"""Experiment engine: configs, the round loop, sweeps, and self-verification.

A run wires together federation generation, client sampling, local SGD,
and one server aggregator for T rounds, logging exact global metrics.
Everything is keyed off the config seed, so identical configs produce
byte-identical artifacts regardless of client execution order.

Artifacts per run, all inside the configured output directory:
    manifest.json   config echo, derived constants, rate-bound report
    metrics.csv     round, grad_norm_sq, global_loss, dist_to_opt_sq
    status.json     completion flag, aborted round if the run diverged
All three are written once, when the run completes or diverges; a run
stopped by anything else writes none of them. Making the output
directory removes the three files a previous run left there, so an
interrupted run leaves none (likewise a sweep's sweep_summary.csv). A
sweep checks every point's output directory before its first point runs.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

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
    HyperConfig,
    RunRecord,
    effective_server_lr,
    lr_precondition_report,
)
from .aggregators import aggregator_step, cluster_miss_probability, init_state
from .localsgd import local_sgd
from .objectives import (
    Federation,
    FederationConfig,
    FederationConstants,
    block_assignment,
    cluster_heterogeneity,
    generate_federation,
    global_grad_and_loss,
)
from .reference_saga import saga_trajectory
from .rng import TAG_LOCAL, TAG_SAMPLING, substream
from .sampling import RoundPlan, enumerate_subsets, sample_round, without_replacement_variance

RUN_ARTIFACTS = ("manifest.json", "metrics.csv", "status.json")
SUMMARY_FILE = "sweep_summary.csv"
METRICS_HEADER = "round,grad_norm_sq,global_loss,dist_to_opt_sq"
SUMMARY_HEADER = (
    "axis,value,seed,sigma_g_sq,floor_grad_norm_sq,min_grad_norm_sq,final_grad_norm_sq,"
    "completed,aborted_round"
)
MIFA_MODES = ("cold_start", "full_first_round")
# Sweep axis -> the config section it edits and the field it sets.
# sigma_g_scale sets no field: it scales both spreads by a float.
SWEEP_AXES = {
    "sigma_g_scale": ("federation", None),
    "M": ("hyper", "M"),
    "eta_c": ("hyper", "eta_c"),
    "eta_s": ("hyper", "eta_s"),
    "tau": ("hyper", "tau"),
    "K": ("algo", "K"),
    "algo": ("algo", "name"),
}


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class AlgoConfig:
    """Aggregator choice plus its parameters; the name is matched case-insensitively.

    mifa runs default to mifa_mode cold_start.
    """

    name: str
    K: int | None = None
    mifa_mode: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "name", self.name.lower())
        if self.name not in ALGORITHMS:
            raise ConfigError(f"algo.name must be one of {ALGORITHMS}, got {self.name!r}")
        if self.name == MIFA and self.mifa_mode is None:
            object.__setattr__(self, "mifa_mode", "cold_start")
        if self.mifa_mode is not None and self.mifa_mode not in MIFA_MODES:
            raise ConfigError(f"algo.mifa_mode must be one of {MIFA_MODES}, got {self.mifa_mode!r}")


@dataclass(frozen=True)
class RunConfig:
    """A whole run configuration: the JSON schema, one field per key.

    Checks that span sections are made here, so a config edited with
    dataclasses.replace is checked again.
    """

    federation: FederationConfig
    hyper: HyperConfig
    algo: AlgoConfig
    log_every: int
    output_dir: str
    seed: int

    def __post_init__(self):
        N, M, K = self.federation.N, self.hyper.M, self.algo.K
        if M > N:
            raise ConfigError(f"M must satisfy 1 <= M <= N, got M={M} N={N}")
        if self.algo.name == CLUSTERFEDVARP and (K is None or not 1 <= K <= N):
            raise ConfigError(f"clusterfedvarp needs 1 <= K <= N, got K={K}")
        if self.log_every < 1:
            raise ConfigError(f"log_every must be >= 1, got {self.log_every}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def _coerce(name: str, value, typ):
    """value as a config field of type typ: int, finite float, str, or one of them | None."""
    if get_args(typ):  # X | None
        if value is None:
            return None
        typ = get_args(typ)[0]
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
    """Validate a raw config dict: each RunConfig field is one required key."""
    return _parse_section(raw, RunConfig, None)


def _parse_section(raw, cls, section: str | None):
    """raw as a cls whose fields are required keys; a dataclass field is a nested section."""
    if not isinstance(raw, dict):
        where = "config root" if section is None else f"config section {section!r}"
        raise ConfigError(f"{where} must be a JSON object")
    keys = "config keys" if section is None else f"keys in {section!r}"
    types = get_type_hints(cls)
    unknown = set(raw) - set(types)
    if unknown:
        raise ConfigError(f"unknown {keys}: {sorted(unknown)}")
    missing = set(types) - set(raw)
    if missing:
        raise ConfigError(f"missing {keys}: {sorted(missing)}")
    values = {}
    for key, value in raw.items():
        typ = types[key]
        if is_dataclass(typ):
            values[key] = _parse_section(value, typ, key)
        else:
            values[key] = _coerce(key if section is None else f"{section}.{key}", value, typ)
    return cls(**values)


def load_config(path: str | Path, overrides: tuple[str, ...] | list[str] = ()) -> RunConfig:
    """Read a JSON config file, apply dotted-path overrides, and validate."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
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
    completed: bool
    aborted_round: int | None = None
    output_dir: Path | None = None


def _run_assignment(cfg: RunConfig) -> np.ndarray | None:
    """Client->cluster map used by the aggregator; only clusterfedvarp has one."""
    if cfg.algo.name != CLUSTERFEDVARP:
        return None
    return block_assignment(cfg.federation.N, cfg.algo.K)


def build_manifest(
    cfg: RunConfig, fed: Federation, consts: FederationConstants, assignment
) -> dict:
    N = cfg.federation.N
    p = None
    if cfg.algo.name == CLUSTERFEDVARP and N % cfg.algo.K == 0:
        p = cluster_miss_probability(N, N // cfg.algo.K, cfg.hyper.M)
    sigma_K_sq = consts.sigma_K_sq
    if assignment is not None:
        # Report the heterogeneity of the clustering the aggregator actually uses.
        sigma_K_sq = cluster_heterogeneity(fed, assignment)
    if cfg.algo.name == CLUSTERFEDVARP and p is None:
        # Rate bounds need the equal-size clustering; report only what holds.
        report = []
    else:
        report = [asdict(c) for c in lr_precondition_report(cfg.hyper, N, consts.L, cfg.algo.name, p)]
    return {
        "artifact_version": __version__,
        "config": asdict(cfg),
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
    fed, consts = generate_federation(cfg.federation)
    first = _measure(fed, np.zeros(cfg.federation.d), consts.w_star, 0)
    if not _finite(first):
        raise ConfigError("metrics of the initial point overflow float64")
    return fed, consts, first


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
    ConfigError raised before the output directory is made. A non-finite
    iterate or later metric raises DivergenceError naming the round whose
    update produced it, with the finite records before it as `result`.
    The artifacts are written once, when the run completes or diverges.
    """
    fed, consts, first = realized or _realize(cfg)
    h, N = cfg.hyper, cfg.federation.N
    eta_tilde = effective_server_lr(h)
    assignment = _run_assignment(cfg)
    result = RunResult(
        records=[first],
        manifest=build_manifest(cfg, fed, consts, assignment),
        completed=False,
        # Made before round 0, so a blocked directory costs no compute.
        output_dir=_make_output_dir(cfg.output_dir, RUN_ARTIFACTS) if write_artifacts else None,
    )
    state = init_state(cfg.algo.name, np.zeros(cfg.federation.d), N, cfg.algo.K, assignment)
    try:
        for t in range(h.T):
            if cfg.algo.name == MIFA and cfg.algo.mifa_mode == "full_first_round" and t == 0:
                plan = RoundPlan(participants=tuple(range(N)))
            else:
                plan = sample_round(N, h.M, substream(cfg.seed, TAG_SAMPLING, t))
            rngs = ()
            if fed.noise_sigma > 0:
                rngs = [substream(cfg.seed, TAG_LOCAL, t, i) for i in plan.participants]
            block = local_sgd(fed, plan.participants, state.w, h.tau, h.eta_c, rngs)
            aggregator_step(state, plan, block, eta_tilde)
            if not np.all(np.isfinite(state.w)):
                raise DivergenceError(step=None)
            if (t + 1) % cfg.log_every == 0 or (t + 1) == h.T:
                rec = _measure(fed, state.w, consts.w_star, t + 1)
                if not _finite(rec):
                    raise DivergenceError(step=None)
                result.records.append(rec)
    except DivergenceError as exc:
        exc.round = result.aborted_round = t
        exc.result = result
        _write_run_artifacts(result)
        raise
    result.completed = True
    _write_run_artifacts(result)
    return result


def _write_run_artifacts(result: RunResult) -> None:
    """manifest.json, metrics.csv and status.json of a run that has ended, if it writes any."""
    out = result.output_dir
    if out is None:
        return
    manifest, metrics, status = RUN_ARTIFACTS
    _write_json(out / manifest, result.manifest)
    rows = [(r.round, r.grad_norm_sq, r.global_loss, r.dist_to_opt_sq) for r in result.records]
    _write_csv(out / metrics, METRICS_HEADER, rows)
    _write_json(out / status, {"completed": result.completed, "aborted_round": result.aborted_round})


def _make_output_dir(path: str, stale: tuple[str, ...]) -> Path:
    """Create an output directory and its parents, removing the stale files named in it.

    A file in the way of the directory, or a directory in the way of a
    stale file, is a ConfigError.
    """
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
        for name in stale:
            (Path(path) / name).unlink(missing_ok=True)
    except (FileExistsError, NotADirectoryError, IsADirectoryError) as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return Path(path)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: str, rows) -> None:
    """The header, then one line per row: floats as .17g (read back exactly), the rest as str."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row) + "\n")


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


def sweep_axis_type(axis: str) -> type:
    """The type of an axis value: that of the field the axis sets, float for sigma_g_scale."""
    section, field = SWEEP_AXES[axis]
    if field is None:
        return float
    typ = get_type_hints(get_type_hints(RunConfig)[section])[field]
    return (get_args(typ) or (typ,))[0]  # K: int | None takes ints


def sweep_point_config(base: RunConfig, axis: str, value, index: int) -> RunConfig:
    """The config of one sweep point: axis applied, child seed, own subdir.

    The value is checked like a config key (ints for counts, finite
    floats for rates and scales); the child seed is derived from the value
    as given.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {tuple(SWEEP_AXES)}, got {axis!r}")
    v = _coerce(f"sweep {axis} value", value, sweep_axis_type(axis))
    section, field = SWEEP_AXES[axis]
    part = getattr(base, section)
    if field is None:
        edit = {
            key: _coerce(f"federation.{key}", getattr(part, key) * v, float)
            for key in ("cluster_center_spread", "within_cluster_spread")
        }
    else:
        edit = {field: v}
    return replace(
        base,
        **{section: replace(part, **edit)},
        seed=derive_sweep_seed(base.seed, axis, value),
        output_dir=str(Path(base.output_dir) / f"point{index:02d}_{axis}"),
    )


@dataclass
class SweepResult:
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
    # Every point, its federation, its initial metrics and its output
    # directory are checked before the first one runs; points that share
    # a federation config share one realized federation.
    cfgs = [sweep_point_config(base, axis, value, idx) for idx, value in enumerate(values)]
    realized = {}
    for cfg, value in zip(cfgs, values):
        if cfg.federation not in realized:
            try:
                realized[cfg.federation] = _realize(cfg)
            except ConfigError as exc:
                raise ConfigError(f"sweep point {axis}={value!r}: {exc}") from exc
    if write_artifacts:
        out = _make_output_dir(base.output_dir, (SUMMARY_FILE,))
        for cfg in cfgs:  # the base exists now, so only a point itself can be in the way
            point = Path(cfg.output_dir)
            if not point.is_dir() and (point.exists() or point.is_symlink()):
                raise ConfigError(f"cannot create output directory {point}: a file is in the way")
    results = []
    rows = []
    for cfg, value in zip(cfgs, values):
        try:
            res = run(cfg, write_artifacts=write_artifacts, realized=realized[cfg.federation])
        except DivergenceError as exc:
            res = exc.result
        results.append(res)
        if res.completed:
            grads = [r.grad_norm_sq for r in res.records]
            tail = (floor_estimate(res.records), min(grads), grads[-1], "true", "")
        else:
            tail = ("", "", "", "false", res.aborted_round)
        rows.append((axis, value, cfg.seed, res.manifest["constants"]["sigma_g_sq"], *tail))
    summary_path = None
    if write_artifacts:
        summary_path = out / SUMMARY_FILE
        _write_csv(summary_path, SUMMARY_HEADER, rows)
    return SweepResult(results=results, summary_path=summary_path)


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
        deltas = rng.normal(size=(N, d))
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
            rows = deltas[list(p.participants)]
            aggregator_step(state, p, rows, 1.0)
            v_sum = v_sum - state.w  # w started at zero and moved by -v
            avg_sum = avg_sum + np.mean(rows, axis=0)
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
    ok = varp.records == c_n.records and avg.records == c_1.records
    return VerifyCheck("cluster reductions K=N and K=1 are bitwise identities", ok, "T=60 trajectories")


def _verify_saga(seed: int) -> VerifyCheck:
    rng = np.random.default_rng(seed + 5)
    N, steps, lr = 12, 120, 0.04
    mus = rng.normal(size=N)
    fed = Federation(eigs=np.array([1.0]), mus=mus.reshape(N, 1))
    picks = [int(rng.integers(N)) for _ in range(steps)]
    ref = saga_trajectory(1.0, mus, 0.0, lr, picks)
    state = init_state(FEDVARP, np.zeros(1), N)
    eta_tilde = effective_server_lr(HyperConfig(eta_c=lr, eta_s=1.0, tau=1, T=steps, M=1))
    ok = True
    for t, j in enumerate(picks):
        plan = RoundPlan(participants=(j,))
        block = local_sgd(fed, plan.participants, state.w, 1, lr)
        fedvarp_like = aggregator_step(state, plan, block, eta_tilde)
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

