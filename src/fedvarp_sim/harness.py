"""Experiment engine: the round loop and sweeps.

A run wires together federation generation, client sampling, local SGD,
and one server aggregator for T rounds, logging exact global metrics.
Everything is keyed off the config seed, so identical configs produce
byte-identical artifacts regardless of client execution order. The
configs come from config.py and the artifacts go through artifacts.py.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, artifacts
from .aggregators import aggregator_step, cluster_miss_probability, init_state
from .config import RunConfig, sweep_point_config
from .config import parse_config  # noqa: F401  perfbench/workloads.py calls harness.parse_config
from .core import (
    CLUSTERFEDVARP,
    ConfigError,
    DivergenceError,
    RunRecord,
    effective_server_lr,
    lr_precondition_report,
)
from .localsgd import local_sgd
from .objectives import (
    Federation,
    FederationConstants,
    block_assignment,
    cluster_heterogeneity,
    generate_federation,
    global_grad_and_loss,
)
from .rng import KEY_INDEX_LIMIT, TAG_LOCAL, TAG_SAMPLING, philox_keys, philox_rekeyer
from .sampling import sample_round

# run derives its rounds' sampling keys this many rounds at a time.
ROUND_KEY_CHUNK = 1024


# ---------------------------------------------------------------------------
# Running


@dataclass
class RunResult:
    records: list[RunRecord]
    manifest: dict
    completed: bool
    aborted_round: int | None = None
    output_dir: Path | None = None


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
    # Only clusterfedvarp's aggregator maps clients to clusters.
    assignment = block_assignment(N, cfg.algo.K) if cfg.algo.name == CLUSTERFEDVARP else None
    manifest = build_manifest(cfg, fed, consts, assignment)
    out = Path(cfg.output_dir) if write_artifacts else None
    if out is not None:  # made before round 0, so a blocked directory costs no compute
        artifacts.make_output_dirs({out: artifacts.RUN_ARTIFACTS})
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
        artifacts.write_run_artifacts(result)
        raise
    result.completed = True
    artifacts.write_run_artifacts(result)
    return result


def floor_estimate(records: list[RunRecord]) -> float:
    """Mean of the last 20% of logged grad_norm_sq values."""
    if not records:
        raise ConfigError("no records to estimate a floor from")
    k = max(1, len(records) // 5)
    return float(np.mean([r.grad_norm_sq for r in records[-k:]]))


# ---------------------------------------------------------------------------
# Sweeps


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
    # Every point's array sizes are checked before any federation is
    # built, and every federation, initial metrics and output directory
    # before the first point runs; points that share a federation config
    # share one realized federation.
    cfgs = [sweep_point_config(base, axis, value, idx) for idx, value in enumerate(values)]
    realized = {}
    try:
        for cfg, value in zip(cfgs, values):
            _check_sizes(cfg)
        for cfg, value in zip(cfgs, values):
            if cfg.federation not in realized:
                realized[cfg.federation] = _realize(cfg)
    except (ConfigError, MemoryError) as exc:
        raise ConfigError(f"sweep point {axis}={value!r}: {exc}") from exc
    if write_artifacts:  # an interrupted sweep leaves no earlier sweep's point artifacts
        points = {cfg.output_dir: artifacts.RUN_ARTIFACTS for cfg in cfgs}
        artifacts.make_output_dirs({base.output_dir: (artifacts.SUMMARY_FILE,), **points})
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
        summary_path = Path(base.output_dir) / artifacts.SUMMARY_FILE
        artifacts.write_csv(summary_path, artifacts.SUMMARY_HEADER, rows)
    return SweepResult(results=results, summary_path=summary_path)
