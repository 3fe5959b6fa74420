"""In-memory spans around the calls into each layer of the simulator.

The tracer rebinds the names the calling modules look up at call time,
so nothing under ``src/`` changes. A span records its name, start, end
and the span open when it began; a layer's self time is its duration
minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import time

# (module, name it binds, span). Each wrapper replaces the name that the
# calling module looks up, so a refactor that rebinds an import makes the
# span stop firing, and the benchmark reports it as missing.
BINDINGS = (
    ("experiment", "transmit_cfsp_batch", "ffma_system.transmit"),
    ("experiment", "receive_batch", "ffma_system.receive"),
    ("ffma_system", "cfsp_posterior", "ffma_system.detector"),
    ("ffma_system", "bp_decode_batch", "linear_code.bp"),
    ("experiment", "aloha_cfsp_batch", "baseline_aloha.transmit"),
    ("experiment", "aloha_receive_batch", "baseline_aloha.receive"),
)
FFMA_SPANS = (
    "linear_code.construct",   # LinearCode.generate
    "ffma_system.transmit", "ffma_system.receive",
    "ffma_system.detector", "linear_code.bp",
)
ALOHA_SPANS = ("baseline_aloha.transmit", "baseline_aloha.receive")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index]
        self._open: list[int] = []
        self.bp_frames = 0
        self.bp_converged = 0

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][2] = time.perf_counter()
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def _count_bp(self, result) -> None:
        converged = result[1]
        self.bp_frames += int(converged.size)
        self.bp_converged += int(converged.sum())

    def install(self) -> None:
        """Rebind every layer entry point; a name that is gone is skipped."""
        import importlib

        from ffma.linear_code import LinearCode

        generate = getattr(LinearCode, "generate", None)
        if generate is not None:
            LinearCode.generate = classmethod(
                self.wrap("linear_code.construct", generate.__func__))
        for module_name, attr, span in BINDINGS:
            module = importlib.import_module(f"ffma.{module_name}")
            fn = getattr(module, attr, None)
            if fn is not None:
                on_result = self._count_bp if span == "linear_code.bp" else None
                setattr(module, attr, self.wrap(span, fn, on_result))

    def summary(self) -> dict:
        """Per span name: call count, total seconds and self seconds."""
        out: dict = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child_time):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - covered
        return {
            "spans": out,
            "bp_frames": self.bp_frames,
            "bp_converged": self.bp_converged,
        }
