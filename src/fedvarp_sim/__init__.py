"""Deterministic federated-optimization simulator.

Server-side aggregation strategies (fedavg, fedvarp, clusterfedvarp, and
a mifa-style baseline) over synthetic quadratic client objectives with
analytically exact heterogeneity constants.
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    ALGORITHMS,
    CLUSTERFEDVARP,
    FEDAVG,
    FEDVARP,
    MIFA,
    ConfigError,
    DimensionError,
    DivergenceError,
    HyperConfig,
    OracleScaleError,
    RunRecord,
    effective_server_lr,
    lr_precondition_report,
)
