"""Finite-field multiple-access coding over GF(2^m) with a GMAC simulator."""

from .baseline_aloha import AlohaConfig, aloha_cfsp_batch, aloha_receive_batch
from .ep_code import (
    ElementPair,
    check_uspm,
    f_b2q,
    f_q2b,
    ffsp,
    orthogonal_ep_set,
)
from .experiment import BerPoint, ExperimentSpec, emit_plot_data, run_experiment
from .ffma_system import (
    SystemConfig,
    cfsp_posterior,
    receive_batch,
    transmit_cfsp_batch,
)
from .linear_code import (
    LinearCode,
    ParityCheckMatrix,
    bp_decode_batch,
    load_alist,
)

__version__ = "0.1.0"
