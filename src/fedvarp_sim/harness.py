"""Experiment engine: configs, the round loop, sweeps, and self-verification.

A run wires together federation generation, client sampling, local SGD,
and one server aggregator for T rounds, logging exact global metrics.
Everything is keyed off the config seed, so identical configs produce
byte-identical artifacts regardless of client execution order.

Artifacts per run, all inside the configured output directory:
    manifest.json   config echo, derived constants, rate-bound report
    metrics.csv     round, grad_norm_sq, global_loss, dist_to_opt_sq
    status.json     completion flag, aborted round if the run diverged
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    ALGORITHMS,
    CLUSTERFEDVARP,
    FEDAVG,
    FEDVARP,
    MIFA,
    ConfigError,
    DivergenceError,
    HyperParams,
    RunRecord,
    effective_server_lr,
    lr_precondition_report,
)
from .aggregators import (
    RoundUpdates,
    aggregator_step,
    cluster_miss_probability,
    init_state,
)
from .localsgd import LocalRunConfig, local_sgd
from .objectives import (
    Federation,
    FederationConstants,
    cluster_heterogeneity,
    generate_federation,
    global_grad_and_loss,
    make_federation_spec,
)
from .reference_saga import saga_trajectory
from .rng import TAG_LOCAL, TAG_SAMPLING, substream
from .sampling import RoundPlan, enumerate_subsets, sample_round, without_replacement_variance

METRICS_HEADER = "round,grad_norm_sq,global_loss,dist_to_opt_sq"
MIFA_MODES = ("cold_start", "full_first_round")
SWEEP_AXIS_TYPES = {
    "sigma_g_scale": float,
    "M": int,
    "eta_c": float,
    "eta_s": float,
    "tau": int,
    "K": int,
    "algo": str,
}
SWEEP_AXES = tuple(SWEEP_AXIS_TYPES)


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class FederationConfig:
    """Generator knobs for the synthetic federation (mirrors the JSON schema)."""

    N: int
    d: int
    K_true: int
    cluster_center_spread: float
    within_cluster_spread: float
    noise_sigma: float
    hessian_eig_min: float
    hessian_eig_max: float
    seed: int


@dataclass(frozen=True)
class HyperConfig:
    """The tunable rates and counts of the JSON `hyper` section."""

    eta_c: float
    eta_s: float
    tau: int
    T: int
    M: int


@dataclass(frozen=True)
class AlgoConfig:
    """Aggregator choice plus its parameters."""

    name: str
    K: int | None = None
    mifa_mode: str | None = None


@dataclass(frozen=True)
class RunConfig:
    federation: FederationConfig
    hyper: HyperConfig
    algo: AlgoConfig
    log_every: int
    output_dir: str
    seed: int

    def hyper_params(self) -> HyperParams:
        return HyperParams(
            eta_c=self.hyper.eta_c,
            eta_s=self.hyper.eta_s,
            tau=self.hyper.tau,
            T=self.hyper.T,
            M=self.hyper.M,
            N=self.federation.N,
        )

    def as_dict(self) -> dict:
        return {
            "federation": asdict(self.federation),
            "hyper": asdict(self.hyper),
            "algo": {"name": self.algo.name, "K": self.algo.K, "mifa_mode": self.algo.mifa_mode},
            "log_every": self.log_every,
            "output_dir": self.output_dir,
            "seed": self.seed,
        }


_SCHEMA = {
    "federation": {
        "N": int,
        "d": int,
        "K_true": int,
        "cluster_center_spread": float,
        "within_cluster_spread": float,
        "noise_sigma": float,
        "hessian_eig_min": float,
        "hessian_eig_max": float,
        "seed": int,
    },
    "hyper": {"eta_c": float, "eta_s": float, "tau": int, "T": int, "M": int},
    "algo": {"name": str, "K": int, "mifa_mode": str},
    "log_every": int,
    "output_dir": str,
    "seed": int,
}


def _coerce(name: str, value, typ):
    if typ is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        if not math.isfinite(value):
            raise ConfigError(f"config key {name!r} must be finite, got {value!r}")
        return float(value)
    if typ is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if typ is str and isinstance(value, str):
        return value
    raise ConfigError(f"config key {name!r} must be {typ.__name__}, got {value!r}")


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw config dict against the exact key schema."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = set(_SCHEMA) - set(raw)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    for section in ("federation", "hyper", "algo"):
        sec = raw[section]
        if not isinstance(sec, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        unknown = set(sec) - set(_SCHEMA[section])
        if unknown:
            raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")
        missing = set(_SCHEMA[section]) - set(sec)
        if missing:
            raise ConfigError(f"missing keys in {section!r}: {sorted(missing)}")

    fed_raw = {
        k: _coerce(f"federation.{k}", v, _SCHEMA["federation"][k])
        for k, v in raw["federation"].items()
    }
    fed = FederationConfig(**fed_raw)
    hyper = {k: _coerce(f"hyper.{k}", v, _SCHEMA["hyper"][k]) for k, v in raw["hyper"].items()}

    algo_raw = raw["algo"]
    name = _coerce("algo.name", algo_raw["name"], str).lower()
    if name not in ALGORITHMS:
        raise ConfigError(f"algo.name must be one of {ALGORITHMS}, got {name!r}")
    K = algo_raw["K"]
    if K is not None:
        K = _coerce("algo.K", K, int)
    mifa_mode = algo_raw["mifa_mode"]
    if mifa_mode is not None:
        mifa_mode = _coerce("algo.mifa_mode", mifa_mode, str)
        if mifa_mode not in MIFA_MODES:
            raise ConfigError(f"algo.mifa_mode must be one of {MIFA_MODES}, got {mifa_mode!r}")
    if name == CLUSTERFEDVARP:
        if K is None or not 1 <= K <= fed.N:
            raise ConfigError(f"clusterfedvarp needs 1 <= K <= N, got K={K}")
    if name == MIFA and mifa_mode is None:
        mifa_mode = "cold_start"

    cfg = RunConfig(
        federation=fed,
        hyper=HyperConfig(**hyper),
        algo=AlgoConfig(name=name, K=K, mifa_mode=mifa_mode),
        log_every=_coerce("log_every", raw["log_every"], int),
        output_dir=_coerce("output_dir", raw["output_dir"], str),
        seed=_coerce("seed", raw["seed"], int),
    )
    if cfg.log_every < 1:
        raise ConfigError(f"log_every must be >= 1, got {cfg.log_every}")
    if cfg.seed < 0 or fed.seed < 0:
        raise ConfigError("seeds must be nonnegative")
    cfg.hyper_params()  # trips the HyperParams invariants (M <= N etc.)
    return cfg


def load_config(path: str | Path, overrides: tuple[str, ...] | list[str] = ()) -> RunConfig:
    """Read a JSON config file, apply dotted-path overrides, and validate."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(apply_overrides(raw, overrides))


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply dotted-path key=value overrides onto a raw config dict."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        dotted, text = item.split("=", 1)
        keys = dotted.split(".")
        node = raw
        for k in keys[:-1]:
            if not isinstance(node, dict) or k not in node:
                raise ConfigError(f"override references unknown key {dotted!r}")
            node = node[k]
        leaf = keys[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise ConfigError(f"override references unknown key {dotted!r}")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text  # bare strings (algo names, paths) come through unquoted
        node[leaf] = value
    return raw


# ---------------------------------------------------------------------------
# Running


@dataclass
class RunResult:
    records: list[RunRecord]
    manifest: dict
    config: RunConfig
    completed: bool
    aborted_round: int | None = None
    output_dir: Path | None = None


def _run_assignment(cfg: RunConfig) -> np.ndarray | None:
    """Client->cluster map used by the aggregator (contiguous balanced blocks)."""
    if cfg.algo.name != CLUSTERFEDVARP:
        return None
    N, K = cfg.federation.N, cfg.algo.K
    if K is None or not 1 <= K <= N:
        raise ConfigError(f"clusterfedvarp needs 1 <= K <= N, got K={K}")
    return (np.arange(N) * K) // N


def build_manifest(
    cfg: RunConfig, fed: Federation, consts: FederationConstants, assignment
) -> dict:
    h = cfg.hyper_params()
    p = None
    if cfg.algo.name == CLUSTERFEDVARP and cfg.federation.N % cfg.algo.K == 0:
        p = cluster_miss_probability(cfg.federation.N, cfg.federation.N // cfg.algo.K, h.M)
    sigma_K_sq = consts.sigma_K_sq
    if assignment is not None:
        # Report the heterogeneity of the clustering the aggregator actually uses.
        sigma_K_sq = cluster_heterogeneity(fed, assignment)
    if cfg.algo.name == CLUSTERFEDVARP and p is None:
        # Rate bounds need the equal-size clustering; report only what holds.
        report = []
    else:
        report = [c.as_dict() for c in lr_precondition_report(h, consts.L, cfg.algo.name, p)]
    return {
        "artifact_version": __version__,
        "config": cfg.as_dict(),
        "constants": {
            "L": consts.L,
            "sigma_g_sq": consts.sigma_g_sq,
            "sigma_K_sq": sigma_K_sq,
            "w_star": [float(x) for x in consts.w_star],
            "f_star": consts.f_star,
            "p": p,
        },
        "lr_preconditions": report,
    }


def _realize(cfg: RunConfig) -> tuple[Federation, FederationConstants, RunRecord]:
    """Build cfg's federation and its round-0 record, checking that record is finite.

    The run starts from w = 0, so the initial metrics depend on the
    federation alone; a non-finite one is a ConfigError.
    """
    spec = make_federation_spec(**asdict(cfg.federation))
    fed, consts = generate_federation(spec)
    first = _measure(fed, np.zeros(cfg.federation.d), consts.w_star, 0)
    if not _finite(first):
        raise ConfigError("metrics of the initial point overflow float64")
    return fed, consts, first


def _format_row(rec: RunRecord) -> str:
    return (
        f"{rec.round},{rec.grad_norm_sq:.17g},{rec.global_loss:.17g},{rec.dist_to_opt_sq:.17g}"
    )


def _measure(fed, w, w_star, round_index) -> RunRecord:
    # A finite but huge iterate overflows here; the caller treats it as divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        g, loss = global_grad_and_loss(fed, w)
        diff = w - w_star
        return RunRecord(
            round=round_index,
            grad_norm_sq=float(np.dot(g, g)),
            global_loss=loss,
            dist_to_opt_sq=float(np.dot(diff, diff)),
        )


def _finite(rec: RunRecord) -> bool:
    return all(map(math.isfinite, (rec.grad_norm_sq, rec.global_loss, rec.dist_to_opt_sq)))


def run(cfg: RunConfig, write_artifacts: bool = True, realized=None) -> RunResult:
    """Execute one configured run; deterministic in cfg.seed.

    The participants of a round train as one batch, one row each. Each
    draws its gradient noise from its own keyed stream, built only when
    the federation is noisy, and the aggregators reduce in client id
    order, so the result does not depend on how the batch is ordered.

    realized is what _realize(cfg) returns, for a caller that has built
    the federation already. Initial metrics that overflow are a
    ConfigError raised before any artifact is written. A non-finite
    iterate or later metric raises DivergenceError naming the round whose
    update produced it; no non-finite row reaches metrics.csv.
    """
    fed, consts, first = realized or _realize(cfg)
    h = cfg.hyper_params()
    eta_tilde = effective_server_lr(h)
    assignment = _run_assignment(cfg)
    manifest = build_manifest(cfg, fed, consts, assignment)

    out = None
    metrics_fh = None
    if write_artifacts:
        out = Path(cfg.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "manifest.json", manifest)
        metrics_fh = open(out / "metrics.csv", "w", encoding="utf-8", newline="")
        metrics_fh.write(METRICS_HEADER + "\n")

    state = init_state(cfg.algo.name, np.zeros(cfg.federation.d), h.N, cfg.algo.K, assignment)
    local_cfg = LocalRunConfig(tau=h.tau, eta_c=h.eta_c)
    records: list[RunRecord] = []

    def log(rec: RunRecord) -> None:
        records.append(rec)
        if metrics_fh is not None:
            metrics_fh.write(_format_row(rec) + "\n")

    try:
        log(first)
        for t in range(h.T):
            if cfg.algo.name == MIFA and cfg.algo.mifa_mode == "full_first_round" and t == 0:
                plan = RoundPlan(round=0, participants=tuple(range(h.N)))
            else:
                plan = sample_round(h.N, h.M, substream(cfg.seed, TAG_SAMPLING, t), t)
            rngs = ()
            if fed.noise_sigma > 0:
                rngs = [substream(cfg.seed, TAG_LOCAL, t, i) for i in plan.participants]
            try:
                block = local_sgd(fed, plan.participants, state.w, local_cfg, rngs)
            except DivergenceError as exc:
                exc.round = t
                raise
            deltas = dict(zip(plan.participants, block))  # row views of the (M, d) block
            aggregator_step(state, RoundUpdates(plan, deltas), eta_tilde)
            if not np.all(np.isfinite(state.w)):
                raise DivergenceError(step=None, round=t)
            if (t + 1) % cfg.log_every == 0 or (t + 1) == h.T:
                rec = _measure(fed, state.w, consts.w_star, t + 1)
                if not _finite(rec):
                    raise DivergenceError(step=None, round=t)
                log(rec)
    except DivergenceError as exc:
        if write_artifacts:
            metrics_fh.close()
            metrics_fh = None
            _write_json(out / "status.json", {"completed": False, "aborted_round": exc.round})
        exc.result = RunResult(
            records=records,
            manifest=manifest,
            config=cfg,
            completed=False,
            aborted_round=exc.round,
            output_dir=out,
        )
        raise
    finally:
        if metrics_fh is not None:
            metrics_fh.close()

    if write_artifacts:
        _write_json(out / "status.json", {"completed": True, "aborted_round": None})
    return RunResult(
        records=records,
        manifest=manifest,
        config=cfg,
        completed=True,
        output_dir=out,
    )


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def floor_estimate(records: list[RunRecord]) -> float:
    """Mean of the last 20% of logged grad_norm_sq values."""
    if not records:
        raise ConfigError("no records to estimate a floor from")
    k = max(1, len(records) // 5)
    return float(np.mean([r.grad_norm_sq for r in records[-k:]]))


# ---------------------------------------------------------------------------
# Sweeps


def derive_sweep_seed(base_seed: int, axis: str, value) -> int:
    """Stable child seed for one sweep point, reproducible in isolation."""
    digest = hashlib.sha256(f"{base_seed}|{axis}|{value!r}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def sweep_point_config(base: RunConfig, axis: str, value, index: int) -> RunConfig:
    """The config of one sweep point: axis applied, child seed, own subdir.

    The value is checked like a config key (ints for counts, finite
    floats for rates and scales); the child seed is derived from the value
    as given.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    v = _coerce(f"sweep {axis} value", value, SWEEP_AXIS_TYPES[axis])
    cfg = base
    if axis == "sigma_g_scale":
        spreads = {
            key: _coerce(f"federation.{key}", getattr(base.federation, key) * v, float)
            for key in ("cluster_center_spread", "within_cluster_spread")
        }
        cfg = replace(base, federation=replace(base.federation, **spreads))
    elif axis == "M":
        cfg = replace(base, hyper=replace(base.hyper, M=v))
    elif axis == "eta_c":
        cfg = replace(base, hyper=replace(base.hyper, eta_c=v))
    elif axis == "eta_s":
        cfg = replace(base, hyper=replace(base.hyper, eta_s=v))
    elif axis == "tau":
        cfg = replace(base, hyper=replace(base.hyper, tau=v))
    elif axis == "K":
        cfg = replace(base, algo=replace(base.algo, K=v))
    elif axis == "algo":
        name = v.lower()
        if name not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {name!r} in sweep values")
        cfg = replace(base, algo=replace(base.algo, name=name))
    subdir = Path(base.output_dir) / f"point{index:02d}_{axis}"
    cfg = replace(
        cfg,
        seed=derive_sweep_seed(base.seed, axis, value),
        output_dir=str(subdir),
    )
    cfg.hyper_params()  # revalidate after the axis edit
    return cfg


@dataclass
class SweepResult:
    axis: str
    values: list
    results: list[RunResult]
    summary_path: Path | None


def sweep(
    base: RunConfig, axis: str, values: list, write_artifacts: bool = True
) -> SweepResult:
    """Run one point per value and write a floor summary CSV.

    A divergent point does not stop the sweep: its result has
    completed=False, and its summary row leaves the floor columns empty
    and names the aborted round.
    """
    if not values:
        raise ConfigError("sweep needs at least one value")
    # Every point, its federation and its initial metrics are checked
    # before the first one runs; points that share a federation config
    # share one realized federation.
    cfgs = [sweep_point_config(base, axis, value, idx) for idx, value in enumerate(values)]
    realized = {}
    for cfg, value in zip(cfgs, values):
        if cfg.federation not in realized:
            try:
                realized[cfg.federation] = _realize(cfg)
            except ConfigError as exc:
                raise ConfigError(f"sweep point {axis}={value!r}: {exc}") from exc
    results = []
    rows = []
    for cfg, value in zip(cfgs, values):
        try:
            res = run(cfg, write_artifacts=write_artifacts, realized=realized[cfg.federation])
        except DivergenceError as exc:
            res = exc.result
        results.append(res)
        grads = [r.grad_norm_sq for r in res.records]
        floors = (floor_estimate(res.records), min(grads), grads[-1]) if res.completed else ("",) * 3
        rows.append(
            {
                "axis": axis,
                "value": value,
                "seed": cfg.seed,
                "sigma_g_sq": res.manifest["constants"]["sigma_g_sq"],
                "floor_grad_norm_sq": floors[0],
                "min_grad_norm_sq": floors[1],
                "final_grad_norm_sq": floors[2],
                "completed": str(res.completed).lower(),
                "aborted_round": "" if res.aborted_round is None else res.aborted_round,
            }
        )
    summary_path = None
    if write_artifacts:
        out = Path(base.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        summary_path = out / "sweep_summary.csv"
        cols = list(rows[0])
        with open(summary_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(
                    ",".join(
                        f"{row[c]:.17g}" if isinstance(row[c], float) else str(row[c])
                        for c in cols
                    )
                    + "\n"
                )
    return SweepResult(axis=axis, values=list(values), results=results, summary_path=summary_path)


# ---------------------------------------------------------------------------
# Verification suite


@dataclass
class VerifyCheck:
    name: str
    passed: bool
    detail: str


def verify(seed: int = 20240501) -> list[VerifyCheck]:
    """Run the algebraic oracle checks; all must pass on a healthy build."""
    checks = [
        _verify_lemma_variance(seed),
        _verify_subset_mean(seed),
        _verify_unbiased_correction(seed, cluster=False),
        _verify_unbiased_correction(seed, cluster=True),
        _verify_reductions(seed),
        _verify_saga(seed),
        _verify_finite_difference(seed),
    ]
    return checks


def _verify_lemma_variance(seed: int) -> VerifyCheck:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(40):
        N = int(rng.integers(2, 9))
        M = int(rng.integers(1, N + 1))
        d = int(rng.choice([1, 3, 10]))
        xs = [rng.normal(size=d) for _ in range(N)]
        closed = without_replacement_variance(xs, M)
        x_bar = np.mean(xs, axis=0)
        exhaustive = np.mean(
            [
                float(np.sum((np.mean([xs[i] for i in p.participants], axis=0) - x_bar) ** 2))
                for p in enumerate_subsets(N, M)
            ]
        )
        worst = max(worst, abs(closed - exhaustive) / max(1e-30, abs(exhaustive), abs(closed)))
    return VerifyCheck(
        "subset-mean variance closed form vs enumeration", worst <= 1e-12, f"max rel err {worst:.2e}"
    )


def _verify_subset_mean(seed: int) -> VerifyCheck:
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(20):
        N = int(rng.integers(2, 8))
        M = int(rng.integers(1, N + 1))
        xs = [rng.normal(size=3) for _ in range(N)]
        x_bar = np.mean(xs, axis=0)
        avg = np.mean(
            [np.mean([xs[i] for i in p.participants], axis=0) for p in enumerate_subsets(N, M)],
            axis=0,
        )
        worst = max(worst, float(np.max(np.abs(avg - x_bar))))
    return VerifyCheck("subset mean is unbiased over enumeration", worst <= 1e-12, f"max err {worst:.2e}")


def _verify_unbiased_correction(seed: int, cluster: bool) -> VerifyCheck:
    rng = np.random.default_rng(seed + 2 + cluster)
    worst = 0.0
    for _ in range(12):
        N = int(rng.integers(2, 7))
        M = int(rng.integers(1, N + 1))
        d = 3
        deltas = {i: rng.normal(size=d) for i in range(N)}
        if cluster:
            K = int(rng.integers(1, N + 1))
            assignment = rng.integers(0, K, size=N)
        else:
            K, assignment = None, None
        table = rng.normal(size=((K if cluster else N), d))
        subsets = enumerate_subsets(N, M)
        v_sum = np.zeros(d)
        avg_sum = np.zeros(d)
        for p in subsets:
            algo = CLUSTERFEDVARP if cluster else FEDVARP
            state = init_state(algo, np.zeros(d), N, K, assignment)
            state.table = table.copy()
            upd = RoundUpdates(p, {i: deltas[i] for i in p.participants})
            aggregator_step(state, upd, 1.0)
            v_sum = v_sum - state.w  # w started at zero and moved by -v
            avg_sum = avg_sum + np.mean([deltas[i] for i in p.participants], axis=0)
        worst = max(worst, float(np.max(np.abs((v_sum - avg_sum) / len(subsets)))))
    label = "clusterfedvarp" if cluster else "fedvarp"
    return VerifyCheck(
        f"{label} update is subset-mean unbiased over enumeration",
        worst <= 1e-12,
        f"max err {worst:.2e}",
    )


def _verify_reductions(seed: int) -> VerifyCheck:
    base = _quick_config(seed)
    varp = run(replace(base, algo=AlgoConfig(FEDVARP)), write_artifacts=False)
    c_n = run(
        replace(base, algo=AlgoConfig(CLUSTERFEDVARP, K=base.federation.N)), write_artifacts=False
    )
    avg = run(replace(base, algo=AlgoConfig(FEDAVG)), write_artifacts=False)
    c_1 = run(replace(base, algo=AlgoConfig(CLUSTERFEDVARP, K=1)), write_artifacts=False)
    ok = _records_equal(varp.records, c_n.records) and _records_equal(avg.records, c_1.records)
    return VerifyCheck("cluster reductions K=N and K=1 are bitwise identities", ok, "T=60 trajectories")


def _verify_saga(seed: int) -> VerifyCheck:
    rng = np.random.default_rng(seed + 5)
    N, steps, lr = 12, 120, 0.04
    mus = rng.normal(size=N)
    fed = Federation(eigs=np.array([1.0]), mus=mus.reshape(N, 1))
    picks = [int(rng.integers(N)) for _ in range(steps)]
    ref = saga_trajectory(1.0, mus, 0.0, lr, picks)
    state = init_state(FEDVARP, np.zeros(1), N)
    h = HyperParams(eta_c=lr, eta_s=1.0, tau=1, T=steps, M=1, N=N)
    eta_tilde = effective_server_lr(h)
    cfg = LocalRunConfig(tau=1, eta_c=lr)
    ok = True
    for t, j in enumerate(picks):
        (delta,) = local_sgd(fed, (j,), state.w, cfg)
        plan = RoundPlan(round=t, participants=(j,))
        fedvarp_like = aggregator_step(state, RoundUpdates(plan, {j: delta}), eta_tilde)
        ok = ok and fedvarp_like.tobytes() == np.array([ref[t + 1]]).tobytes()
    return VerifyCheck("single-participant path reproduces reference SAGA bitwise", ok, f"{steps} steps")


def _verify_finite_difference(seed: int) -> VerifyCheck:
    rng = np.random.default_rng(seed + 6)
    d = 6
    eigs = rng.uniform(0.2, 2.0, size=d)
    worst = 0.0
    for _ in range(5):
        fed = Federation(eigs=eigs, mus=rng.normal(size=(1, d)))
        w = rng.normal(size=d)
        (g,), _ = fed.grads_and_losses(w)

        def loss(x):
            return fed.grads_and_losses(x)[1][0]

        eps = 1e-5
        for j in range(d):
            e = np.zeros(d)
            e[j] = eps
            fd = (loss(w + e) - loss(w - e)) / (2 * eps)
            worst = max(worst, abs(fd - g[j]))
    return VerifyCheck("finite differences match exact gradients", worst <= 1e-6, f"max err {worst:.2e}")


def _quick_config(seed: int) -> RunConfig:
    return RunConfig(
        federation=FederationConfig(
            N=8,
            d=3,
            K_true=8,
            cluster_center_spread=1.0,
            within_cluster_spread=0.0,
            noise_sigma=0.3,
            hessian_eig_min=0.5,
            hessian_eig_max=1.0,
            seed=seed,
        ),
        hyper=HyperConfig(eta_c=0.05, eta_s=1.0, tau=2, T=60, M=3),
        algo=AlgoConfig(FEDAVG),
        log_every=1,
        output_dir="unused",
        seed=seed + 17,
    )


def _records_equal(a: list[RunRecord], b: list[RunRecord]) -> bool:
    if len(a) != len(b):
        return False
    return all(
        ra.round == rb.round
        and ra.grad_norm_sq == rb.grad_norm_sq
        and ra.global_loss == rb.global_loss
        and ra.dist_to_opt_sq == rb.dist_to_opt_sq
        for ra, rb in zip(a, b)
    )
