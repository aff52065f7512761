"""Shared numeric types, hyperparameters, and learning-rate bound reports.

Model state is represented throughout as (R, d) float64 numpy arrays,
one model of dimension d per replicate. All arithmetic is 64-bit and
sequentially ordered so that runs are bitwise reproducible.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from functools import cache
from math import inf, isfinite, prod, sqrt
from sys import float_info
from typing import get_args, get_type_hints

import numpy as np

# Algorithm tags used across aggregator state, configs, and reports.
FEDAVG = "fedavg"
FEDVARP = "fedvarp"
CLUSTERFEDVARP = "clusterfedvarp"
MIFA = "mifa"
ALGORITHMS = (FEDAVG, FEDVARP, CLUSTERFEDVARP, MIFA)


class ConfigError(ValueError):
    """Invalid configuration: bad keys, inconsistent sizes, missing files."""


@cache
def field_table(cls) -> dict:
    """cls's fields, their type hints read once: name -> (type, required), a field without a default being required."""
    types = get_type_hints(cls)
    return {f.name: (types[f.name], f.default is MISSING and f.default_factory is MISSING) for f in fields(cls)}


def config_value(name: str, value, typ):
    """value as a config field of type typ: int, finite float, str, a section, or one of them | None."""
    if get_args(typ):  # X | None
        if value is None:
            return None
        typ = get_args(typ)[0]
    if typ is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        if not abs(value) <= float_info.max:  # isfinite would raise OverflowError on an int too large for a float
            raise ConfigError(f"config key {name!r} must be finite, got {value!r}")
        return float(value)
    if type(value) is typ or typ in (int, str) and isinstance(value, typ) and not isinstance(value, bool):
        return value
    raise ConfigError(f"config key {name!r} must be {typ.__name__}, got {value!r}")


def check_fields(obj, section: str | None = None) -> None:
    """Check each field of the config section obj by config_value, named section.field (the field alone when
    section is None), keeping the value it returns, so an int in a float field is widened.

    A value of its field's exact type costs one type test (a float one finiteness test more), so replace stays cheap.
    """
    for key, (typ, _) in field_table(type(obj)).items():
        value = getattr(obj, key)
        if type(value) is not typ or typ is float and not isfinite(value):
            object.__setattr__(obj, key, config_value(key if section is None else f"{section}.{key}", value, typ))


class DimensionError(ValueError):
    """Vector length mismatch."""


class OracleScaleError(ValueError):
    """An exhaustive-enumeration oracle was asked for too large an instance."""


class DivergenceError(RuntimeError):
    """A run stopped at a non-finite iterate.

    Carries the local step index (None otherwise), the kind of result
    that went non-finite ("local step", "server step" or "metrics") and
    what the run logged before it stopped as `result`, whose
    aborted_round is the stop's round.
    """

    def __init__(self, step: int | None, kind: str, result):
        super().__init__(step)
        self.step = step
        self.kind = kind
        self.result = result

    @property
    def round(self) -> int:
        return self.result.aborted_round

    def __str__(self) -> str:
        where = self.kind if self.step is None else f"local_step={self.step}"
        return f"non-finite iterate at round={self.round} ({where})"


# Byte budget of the one buffer an ordered row sum reads its rows through.
ROW_BLOCK_BYTES = 128 * 1024


def ordered_row_sum(n: int, d: int, fill, lead: tuple = ()) -> np.ndarray:
    """Sum n rows of width d left to right, with the bits of the Python loop

        acc = zeros(d)
        for each row k in order:  acc = acc + row_k

    once per replicate of the leading shape lead: () sums one set of
    rows, (R,) sums R sets side by side and returns (R, d). fill(lo, hi,
    out) writes rows lo..hi-1 of every replicate into out, shape
    lead + (hi - lo, d). Rows pass through one buffer of at most
    ROW_BLOCK_BYTES whose first row carries each replicate's running
    sum, starting from +0.0, and np.add.reduce(axis=-2) adds a block at
    least two columns wide row by row, so each block extends the same
    sequential chain. A single column is reduced pairwise, so d=1 runs
    two columns wide with the second one left at zero.

    A row of ±0.0 (say a finite row scaled by 0) leaves a sum started at
    +0.0 unchanged, since such a sum never becomes -0.0: skipping the row
    and adding it give the same bits. The +0.0 start decides only the
    sign of a column whose rows are all ±0.0.
    """
    width = max(d, 2)
    block = min(n + 1, max(2, ROW_BLOCK_BYTES // (8 * width * prod(lead))))
    buf = np.zeros((*lead, block, width))
    lo = 0
    while True:
        hi = min(n, lo + block - 1)
        fill(lo, hi, buf[..., 1 : 1 + hi - lo, :d])
        acc = np.add.reduce(buf[..., : 1 + hi - lo, :], axis=-2)
        if hi == n:
            return acc[..., :d]
        buf[..., 0, :] = acc  # carries the running sums into the next block
        lo = hi


def sum_rows(rows: np.ndarray) -> np.ndarray:
    """Sum the rows of an (n, d) array, n >= 1, with the bits of the loop

        acc = zeros(d)
        for each row k in order:  acc = acc + row_k

    and those of an (R, n, d) array replicate by replicate, as (R, d).
    np.add.reduce(axis=-2) over C-contiguous rows at least two columns
    wide adds them in that order, in each replicate. Where it starts
    from row_0 instead of +0.0 (numpy versions differ), a sum of -0.0
    rows is -0.0; the leading 0.0 + gives the loop's +0.0 either way. A
    single column is reduced pairwise, so it goes through
    ordered_row_sum. Rows of +0.0 appended to a replicate leave its sum
    unchanged, so replicates with fewer rows can be padded to a common n.
    """
    rows = np.ascontiguousarray(rows)
    *lead, n, d = rows.shape
    if d == 1:
        return ordered_row_sum(n, 1, lambda lo, hi, out: np.copyto(out, rows[..., lo:hi, :]), tuple(lead))
    return 0.0 + np.add.reduce(rows, axis=-2)


@dataclass(frozen=True)
class HyperConfig:
    """The JSON `hyper` section: client/server rates, local steps, rounds, participants.

    M <= N spans sections, so RunConfig checks it.
    """

    eta_c: float
    eta_s: float
    tau: int
    T: int
    M: int

    def __post_init__(self):
        check_fields(self, "hyper")
        if not self.eta_c > 0:
            raise ConfigError(f"eta_c must be > 0, got {self.eta_c}")
        if not self.eta_s > 0:
            raise ConfigError(f"eta_s must be > 0, got {self.eta_s}")
        if self.tau < 1:
            raise ConfigError(f"tau must be >= 1, got {self.tau}")
        if self.T < 0:
            raise ConfigError(f"T must be >= 0, got {self.T}")
        if self.M < 1:
            raise ConfigError(f"M must be >= 1, got {self.M}")
        # A run scales its steps by these products: one that overflows would read as a divergence,
        # one that underflows to 0.0 as a run that never moves.
        try:
            valid = all(0 < x < inf for x in (self.eta_c * self.tau, effective_server_lr(self)))
        except OverflowError:  # a float times an int too large to convert
            valid = False
        if not valid:
            raise ConfigError(
                "eta_c * tau and eta_s * eta_c * tau must be finite and positive, "
                f"got eta_c={self.eta_c} eta_s={self.eta_s} tau={self.tau}"
            )


def effective_server_lr(h: HyperConfig) -> float:
    """Effective server step size eta_s * eta_c * tau.

    This is the single place the product is formed; every server update
    receives its value unchanged.
    """
    return h.eta_s * h.eta_c * h.tau


@dataclass(frozen=True)
class LrCondition:
    """One learning-rate bound: quantity, numeric bound, actual value, verdict."""

    quantity: str
    bound: float
    value: float
    satisfied: bool


def lr_precondition_report(
    h: HyperConfig, N: int, L: float, algo: str, p: float | None = None
) -> list[LrCondition]:
    """Evaluate the convergence-theory learning-rate bounds for an algorithm on N clients.

    Purely advisory: callers report the verdicts but never block a run on
    them. The MIFA baseline has no associated bounds and yields an empty
    report. ClusterFedVARP requires the cluster miss probability p.
    """
    if L <= 0:
        raise ValueError(f"smoothness constant L must be > 0, got {L}")
    if algo not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm tag {algo!r}")
    tau, M = h.tau, h.M
    if algo == FEDAVG:
        bounds = (1.0 / (8.0 * L * tau), 1.0 / (24.0 * tau * L))
    elif algo == FEDVARP:
        bounds = (
            1.0 / (10.0 * L * tau),
            min(M**1.5 / (8.0 * L * tau * N), 5.0 * M / (48.0 * tau * L), 1.0 / (4.0 * L * tau)),
        )
    elif algo == CLUSTERFEDVARP:
        if p is None:
            raise ConfigError("clusterfedvarp report requires the miss probability p")
        bounds = (
            1.0 / (10.0 * L * tau),
            min(sqrt(M) * (1.0 - p) / (8.0 * L * tau), M / (16.0 * tau * L), 1.0 / (4.0 * L * tau)),
        )
    else:
        return []  # MIFA: baseline without rate guarantees
    values = (("eta_c", h.eta_c), ("eta_s_eta_c", h.eta_s * h.eta_c))
    return [LrCondition(q, bound, v, v <= bound) for (q, v), bound in zip(values, bounds)]
