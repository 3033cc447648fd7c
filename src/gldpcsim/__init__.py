"""Quasi-cyclic generalized LDPC codes: construction, decoding, and simulation.

The package builds (J,K)-regular quasi-cyclic Tanner graphs, upgrades a
fraction of the single parity checks to generalized constraint nodes backed
by a small linear block code, decodes with belief propagation over
AWGN/QPSK or the BEC, and provides erasure-channel density evolution plus a
Monte-Carlo block-error-rate harness.  See README.md for the CLI.
"""

from .component import ComponentCode, default_component_code
from .concat import OuterCodeModel
from .de import DeEnsemble, de_threshold, rate_threshold_sweep
from .decoder import Decoder, count_operations
from .graph import GcPlacement, TannerGraph, design_rate, place_gc_nodes
from .qc import QcProfile, expand, girth_of, search_shifts
from .sim import SimConfig, build_stack, compare_curves, run_bler

__version__ = "0.1.0"

__all__ = [
    "ComponentCode",
    "default_component_code",
    "OuterCodeModel",
    "DeEnsemble",
    "de_threshold",
    "rate_threshold_sweep",
    "Decoder",
    "count_operations",
    "GcPlacement",
    "TannerGraph",
    "design_rate",
    "place_gc_nodes",
    "QcProfile",
    "expand",
    "girth_of",
    "search_shifts",
    "SimConfig",
    "build_stack",
    "compare_curves",
    "run_bler",
    "__version__",
]
