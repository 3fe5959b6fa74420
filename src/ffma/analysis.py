"""Analytic reporting utilities: closed-form gain figures and BER-curve interpolation."""

from __future__ import annotations

import math

import numpy as np

from .baseline_aloha import AlohaConfig


def polarization_gain_db(mu_pas: float) -> float:
    """Power gain of boosting information symbols by mu_pas."""
    if not 0 < mu_pas < math.inf:
        raise ValueError(f"mu_pas={mu_pas} must be positive and finite")
    return 10.0 * math.log10(mu_pas)


def repetition_gain_db(n: int, j_users: int, k: int) -> float:
    """Combining gain of repeating each bit n/(J*k) times; ``AlohaConfig``
    rejects a slot layout that cannot hold the repetitions."""
    return 10.0 * math.log10(AlohaConfig(n=n, k=k, j_users=j_users).repeat)


def interpolate_snr_at_ber(snr_db, ber, target: float) -> float:
    """SNR (dB) where a measured curve crosses a target BER.

    Linear interpolation of log10(BER) between the first adjacent pair
    that brackets the target; zero-BER points are treated as a decade
    below the target.  Raises if the curve never crosses.
    """
    snr_db = np.asarray(snr_db, dtype=np.float64)
    ber = np.asarray(ber, dtype=np.float64)
    if snr_db.shape != ber.shape or snr_db.ndim != 1:
        raise ValueError("snr_db and ber must be 1-D arrays of equal length")
    order = np.argsort(snr_db)
    snr_db, ber = snr_db[order], ber[order]
    floor = target / 10.0
    logb = np.log10(np.maximum(ber, floor))
    logt = math.log10(target)
    for i in range(len(snr_db) - 1):
        hi, lo = logb[i], logb[i + 1]
        if hi >= logt >= lo and hi > lo:
            frac = (hi - logt) / (hi - lo)
            return float(snr_db[i] + frac * (snr_db[i + 1] - snr_db[i]))
        if hi == logt:
            return float(snr_db[i])
    raise ValueError(f"curve never crosses BER {target:g}")
