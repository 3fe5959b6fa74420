"""Reference for the batch simulator ``experiment._simulate_batch``.

``reference_simulate_batch`` is ``_simulate_batch`` as it stood before
the noise was drawn as ``standard_normal`` scaled in place and before
the ALOHA receiver added its repeat copies as whole arrays.  It draws the
noise with ``Generator.normal(0.0, sigma)``, which is ``0.0 + sigma*z``
on the same stream, so the two must return equal counts and per-user
error arrays.
"""

import math

import numpy as np

from ffma.baseline_aloha import AlohaConfig, aloha_cfsp_batch
from ffma.ffma_system import SystemConfig, receive_batch, transmit_cfsp_batch


def reference_aloha_receive_batch(y, cfg: AlohaConfig) -> np.ndarray:
    """Equal-gain combining as numpy's ``sum`` over the repeat axis."""
    y = np.asarray(y, dtype=np.float64)
    B = y.shape[0]
    sums = y.reshape(B, cfg.j_users, cfg.k, cfg.repeat).sum(axis=3)
    return (sums > 0).astype(np.uint8)


def reference_simulate_batch(
    spec,
    code,
    j_users: int,
    n0: float,
    point_index: int,
    start_frame: int,
    count: int,
):
    """Simulate frames [start_frame, start_frame+count) of one grid point."""
    bit_rng = np.random.default_rng((spec.seed, 1, point_index, start_frame))
    noise_rng = np.random.default_rng((spec.seed, 2, point_index, start_frame))
    bits = bit_rng.integers(0, 2, size=(count, j_users, spec.k), dtype=np.uint8)
    sigma = math.sqrt(n0 / 2.0)

    if spec.system == "ALOHA":
        cfg = AlohaConfig(n=spec.n, k=spec.k, j_users=j_users)
        r = aloha_cfsp_batch(bits, cfg)
        y = r + noise_rng.normal(0.0, sigma, size=r.shape)
        rx = reference_aloha_receive_batch(y, cfg)
    else:
        cfg = SystemConfig(
            code=code, k=spec.k, j_users=j_users, mode=spec.system,
            mu_pas=spec.mu_pas, n0=n0, max_iter=spec.max_iter,
        )
        r = transmit_cfsp_batch(bits, cfg)
        y = r + noise_rng.normal(0.0, sigma, size=r.shape)
        rx, _conv = receive_batch(y, cfg)

    err = rx != bits
    return (
        count,
        int(err.sum()),
        int(err.any(axis=(1, 2)).sum()),
        err.sum(axis=(0, 2)).astype(np.int64),
    )
