"""README examples: every `ffma run` command parses, the library snippet runs."""

import argparse
import re
import shlex
from pathlib import Path

from ffma.cli import _add_run_parser, build_spec

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def run_commands() -> list[str]:
    commands = []
    for block in fenced_blocks("sh"):
        joined = re.sub(r"\\\n\s*", " ", block)
        for line in joined.splitlines():
            # A line may chain commands with &&; keep each `ffma run`.
            for part in line.split("&&"):
                part = part.strip()
                if part.startswith("ffma run"):
                    commands.append(part)
    return commands


def test_readme_run_commands_parse():
    commands = run_commands()
    assert len(commands) >= 5
    parser = argparse.ArgumentParser(prog="ffma")
    _add_run_parser(parser.add_subparsers(dest="command", required=True))
    for command in commands:
        args = parser.parse_args(shlex.split(command)[1:])
        spec = build_spec({}, {k: v for k, v in vars(args).items() if k != "command"})
        assert spec.snr_grid and spec.j_list, command


def test_readme_library_quick_start(capsys):
    (snippet,) = fenced_blocks("python")
    namespace: dict = {}
    exec(compile(snippet, str(README), "exec"), namespace)
    assert namespace["rx_bits"].shape == namespace["bits"].shape == (100, 30, 5)
    assert namespace["converged"].shape == (100,)
    assert "bit errors" in capsys.readouterr().out
