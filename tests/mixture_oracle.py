"""Full-mixture reference for the windowed detector ``cfsp_posterior``.

Every one of the J+1 binomial levels is evaluated and the class sums
come from scipy's ``logsumexp``.  It returns posterior probabilities
(p0, p1), so its LLR log(p0/p1) is infinite once the weaker class
underflows.
"""

import math

import numpy as np
from scipy.special import logsumexp


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
