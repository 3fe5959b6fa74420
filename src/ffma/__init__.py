"""Finite-field multiple-access coding over GF(2^m) with a GMAC simulator."""

from .analysis import gain_figures
from .baseline_aloha import AlohaConfig, aloha_cfsp_batch, aloha_receive_batch
from .ep_code import (
    ElementPair,
    EpSet,
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
    make_system,
    pa_power_allocation,
    receive_batch,
    transmit_cfsp_batch,
)
from .gf2m import BasisGF2m
from .linear_code import (
    LinearCode,
    ParityCheckMatrix,
    SystematicGenerator,
    bp_decode_batch,
    encode,
    ldpc_construct,
    load_alist,
    save_alist,
)

__version__ = "0.1.0"
