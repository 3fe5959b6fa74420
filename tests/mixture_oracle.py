"""References for the windowed detector ``cfsp_posterior``.

``full_mixture_posterior`` evaluates every one of the J+1 binomial levels
and takes the class sums from scipy's ``logsumexp``.  It returns
posterior probabilities (p0, p1), so its LLR log(p0/p1) is infinite once
the weaker class underflows.

``bisection_posterior`` is the detector as it stood before its window
centre became a sorted search and its J = 1 case a closed form: the same
window and arithmetic, with i* found by bisection on d_i and J = 1 run
through the general mixture.  It is the bit-for-bit reference for both.
"""

import math

import numpy as np
from scipy.special import logsumexp

from ffma import ffma_system


def full_mixture_posterior(y, j_users: int, amplitude: float, n0: float):
    """Posterior (p0, p1) of the parity of J superposed antipodal bits.

    The channel sum of J independent equiprobable antipodal symbols takes
    value amplitude*(2*iota - J) with binomial weight C(J, iota)/2^J, and
    the finite-field sum is iota mod 2.  Given an observation y with
    noise variance n0/2 this evaluates the two-class Gaussian-mixture
    posterior (p0, p1), computed in the log domain.

    Accepts scalar or array y; returns matching scalars or arrays.
    """
    y_arr = np.asarray(y, dtype=np.float64)
    iota = np.arange(j_users + 1)
    logw = np.array(
        [math.log(math.comb(j_users, int(i))) for i in iota]
    ) - j_users * math.log(2.0)
    centers = amplitude * (2.0 * iota - j_users)
    pad = (-1,) + (1,) * y_arr.ndim
    ll = logw.reshape(pad) - (y_arr[None, ...] - centers.reshape(pad)) ** 2 / n0
    log_all = logsumexp(ll, axis=0)
    p0 = np.exp(logsumexp(ll[0::2], axis=0) - log_all)
    p1 = np.exp(logsumexp(ll[1::2], axis=0) - log_all)
    if np.isscalar(y) or (isinstance(y, np.ndarray) and y.ndim == 0):
        return float(p0), float(p1)
    return p0, p1


def bisection_posterior(y, j_users: int, amplitude: float, n0: float):
    """``cfsp_posterior`` with its window centre found by bisection.

    i* is the number of i < J with d_i = step_i + scale*y > 0, found in
    J.bit_length() rounds of bisection; settled entries stay put because
    d_J = -inf.  J = 1 takes the whole-mixture path, which gives NaN where
    scale*(y + a) overflows.  Samples are chunked by ffma_system._CHUNK as
    in the simulator, since the chunking moves the LLR's last bit.
    """
    J, a = int(j_users), float(amplitude)
    y_arr = np.asarray(y, dtype=np.float64)
    flat = y_arr.reshape(-1)
    log_comb = ffma_system._log_comb(J)
    scale = 4.0 * a / n0
    kappa = 2.0 * a * scale
    half = min(J, math.floor((ffma_system._TAIL / kappa + 1.0) / 2.0) + 1)
    width = min(2 * half + 1, J + 1)
    t = np.concatenate([np.arange(0, width, 2), np.arange(1, width, 2)])
    n_even = (width + 1) // 2
    table = (log_comb[t[:, None] + np.arange(J + 2 - width)]
             - (a * scale) * t[:, None].astype(np.float64) ** 2)
    if width <= J:
        step = (np.append(np.diff(log_comb), -np.inf)
                - (a * scale) * (2.0 * np.arange(J + 1) + 1.0 - J))
    n_chunks = max(1, -(-flat.size // max(4, ffma_system._CHUNK // width)))
    llr = np.empty(flat.shape)
    for part, out in zip(np.array_split(flat, n_chunks), np.array_split(llr, n_chunks)):
        if width <= J:
            scaled_y = scale * part
            lo = np.zeros(part.shape, dtype=np.intp)
            hi = np.full(part.shape, J, dtype=np.intp)
            for _ in range(J.bit_length()):
                mid = (lo + hi) >> 1
                up = step[mid] + scaled_y > 0
                lo = np.where(up, mid + 1, lo)
                hi = np.where(up, hi, mid)
            start = np.clip(lo - half, 0, J + 1 - width)
            base = np.take(table, start, axis=1)
        else:
            start, base = 0, table
        ll = np.multiply.outer(t.astype(np.float64), scale * (part - a * (2 * start - J)))
        ll += base
        top_even = ll[:n_even].max(axis=0)
        top_odd = ll[n_even:].max(axis=0)
        ll[:n_even] -= top_even
        ll[n_even:] -= top_odd
        np.exp(ll, out=ll)
        part_llr = (top_even - top_odd
                    + np.log(ll[:n_even].sum(axis=0)) - np.log(ll[n_even:].sum(axis=0)))
        out[:] = np.where(start & 1, -part_llr, part_llr)
    if y_arr.ndim == 0:
        return float(llr[0])
    return llr.reshape(y_arr.shape)
