"""Experiment engine: configs, the round loop and sweeps.

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
sweep checks its base and every point's directory before it makes any.
"""
from __future__ import annotations

import hashlib
import json
import math
from contextlib import suppress
from dataclasses import asdict, dataclass, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .core import (
    ALGORITHMS,
    CLUSTERFEDVARP,
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
from .rng import KEY_INDEX_LIMIT, TAG_LOCAL, TAG_SAMPLING, philox_keys, philox_rekeyer
from .sampling import sample_round

RUN_ARTIFACTS = ("manifest.json", "metrics.csv", "status.json")
SUMMARY_FILE = "sweep_summary.csv"
METRICS_HEADER = "round,grad_norm_sq,global_loss,dist_to_opt_sq"
SUMMARY_HEADER = (
    "axis,value,seed,sigma_g_sq,floor_grad_norm_sq,min_grad_norm_sq,final_grad_norm_sq,"
    "completed,aborted_round"
)
MIFA_MODES = ("cold_start", "full_first_round")
# run derives its rounds' sampling keys this many rounds at a time.
ROUND_KEY_CHUNK = 1024
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
        if not self.output_dir:  # Path("") is the working directory
            raise ConfigError("output_dir must be non-empty")

    def round_size(self, t: int) -> int:
        """How many clients round t samples: N in round 0 of mifa's full_first_round, else M."""
        # Any algo may carry a mifa_mode, so the name is checked as well.
        if t == 0 and self.algo.name == MIFA and self.algo.mifa_mode == "full_first_round":
            return self.federation.N
        return self.hyper.M


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
        *path, leaf = dotted.split(".")
        node = raw
        for k in path:
            node = node.get(k) if isinstance(node, dict) else None
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


def _check_sizes(cfg: RunConfig) -> None:
    """Raise ConfigError if an array cfg sizes cannot be allocated or a round cannot be keyed.

    Probes the (N, d) federation and server table and, for a noisy
    federation, local_sgd's largest (round_size(0), tau, d) noise block,
    allocating nothing. Round t's sampling stream is keyed with t as its
    id, so T - 1 must be below KEY_INDEX_LIMIT.
    """
    if cfg.hyper.T > KEY_INDEX_LIMIT:
        raise ConfigError(f"T must be at most 2**32, one key word per round, got {cfg.hyper.T}")
    shapes = [(cfg.federation.N, cfg.federation.d)]
    if cfg.federation.noise_sigma > 0:
        shapes.append((cfg.round_size(0), cfg.hyper.tau, cfg.federation.d))
    for shape in shapes:
        try:
            np.empty(shape)
        except (MemoryError, ValueError) as exc:  # ValueError: the byte count overflows
            raise ConfigError(f"{exc} (array shape {shape})") from exc


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

    Round t samples its participants from one reused Philox generator
    rekeyed to substream(seed, TAG_SAMPLING, t)'s key; these keys are
    derived ROUND_KEY_CHUNK rounds at a time. The participants train as
    one batch, one row each. In a noisy federation participant i draws
    its gradient noise from the key of substream(seed, TAG_LOCAL, t, i),
    the round's keys derived as one block, and the aggregators reduce in
    client id order, so the result does not depend on how the batch is
    ordered.

    realized is what _realize(cfg) returns, for a caller that has checked
    cfg's sizes and built the federation already. Array sizes too large
    to allocate, a T too large to key and initial metrics that overflow
    are ConfigErrors raised before the output directory is made. A
    non-finite iterate or later metric raises DivergenceError naming the
    round whose update produced it, with the finite records before it as
    `result`. The artifacts are written once, when the run completes or
    diverges.
    """
    if realized is None:
        _check_sizes(cfg)
        realized = _realize(cfg)
    fed, consts, first = realized
    h, N = cfg.hyper, cfg.federation.N
    eta_tilde = effective_server_lr(h)
    assignment = _run_assignment(cfg)
    manifest = build_manifest(cfg, fed, consts, assignment)
    out = Path(cfg.output_dir) if write_artifacts else None
    if out is not None:  # made before round 0, so a blocked directory costs no compute
        _make_output_dirs({out: RUN_ARTIFACTS})
    result = RunResult(records=[first], manifest=manifest, completed=False, output_dir=out)
    state = init_state(cfg.algo.name, np.zeros(cfg.federation.d), N, cfg.algo.K, assignment)
    rekey = philox_rekeyer()
    try:
        for t in range(h.T):
            if t % ROUND_KEY_CHUNK == 0:
                rounds = np.arange(t, min(t + ROUND_KEY_CHUNK, h.T))
                round_keys = philox_keys(cfg.seed, TAG_SAMPLING, ids=rounds)
            participants = sample_round(N, cfg.round_size(t), rekey(round_keys[t % ROUND_KEY_CHUNK]))
            keys = philox_keys(cfg.seed, TAG_LOCAL, t, ids=participants) if fed.noise_sigma > 0 else None
            block = local_sgd(fed, participants, state.w, h.tau, h.eta_c, keys)
            aggregator_step(state, participants, block, eta_tilde)
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


def _make_output_dirs(dirs: dict) -> None:
    """Make each directory of dirs, parents included, and remove the stale files it lists.

    dirs maps a directory to the names of the artifacts an earlier run
    left in it. Every directory is checked before any is made: a file in
    the way of a directory, or a directory in the way of a stale file, is
    a ConfigError naming that directory, as is any OSError of a later
    pass. Stale files are removed only once every directory exists; a
    mkdir that fails removes the directories this call made, deepest first.
    """
    made = []  # directories this call created, parents first
    try:
        for path, stale in dirs.items():
            p = Path(path)
            if any((p / name).is_dir() and not (p / name).is_symlink() for name in stale):
                raise IsADirectoryError("a directory is in the way of an artifact")
            if any(not q.is_dir() and (q.exists() or q.is_symlink()) for q in (p, *p.parents)):
                raise NotADirectoryError("a file is in the way")
        for path in dirs:
            for q in (*reversed(Path(path).parents), Path(path)):
                if not q.is_dir():
                    q.mkdir()
                    made.append(q)
        for path, stale in dirs.items():
            for name in stale:
                (Path(path) / name).unlink(missing_ok=True)
    except OSError as exc:
        for q in reversed(made):
            with suppress(OSError):
                q.rmdir()
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc


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
    floats for rates and scales); the child seed is derived from the
    checked value, so 1, 1.0 and np.float64(1.0) give one seed.
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
        seed=derive_sweep_seed(base.seed, axis, v),
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
    # Every point, its array sizes, its federation, its initial metrics
    # and its output directory are checked before the first one runs;
    # points that share a federation config share one realized federation.
    cfgs = [sweep_point_config(base, axis, value, idx) for idx, value in enumerate(values)]
    realized = {}
    for cfg, value in zip(cfgs, values):
        try:
            _check_sizes(cfg)
            if cfg.federation not in realized:
                realized[cfg.federation] = _realize(cfg)
        except (ConfigError, MemoryError) as exc:
            raise ConfigError(f"sweep point {axis}={value!r}: {exc}") from exc
    if write_artifacts:  # an interrupted sweep leaves no earlier sweep's point artifacts
        points = {cfg.output_dir: RUN_ARTIFACTS for cfg in cfgs}
        _make_output_dirs({base.output_dir: (SUMMARY_FILE,), **points})
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
        summary_path = Path(base.output_dir) / SUMMARY_FILE
        _write_csv(summary_path, SUMMARY_HEADER, rows)
    return SweepResult(results=results, summary_path=summary_path)
