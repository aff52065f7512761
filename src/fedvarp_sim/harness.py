"""Experiment engine: the round loop and sweeps.

A run wires together federation generation, client sampling, local SGD,
and one server aggregator for T rounds, logging exact global metrics.
Everything is keyed off the config seed, so identical configs produce
byte-identical artifacts regardless of client execution order. The
configs come from config.py and the artifacts go through artifacts.py.

One round loop, run_stack, runs a stack of R runs whose configs differ
only in their seeds, output directories and federation seeds and
spreads. Their federations sit on a leading replicate axis, (R, N, d),
and so do the server states, so each round makes one local_sgd, one
aggregator_step and one metrics call for all R. Participants are
drawn a chunk of rounds at a time, one sampling.sample_rounds call per
replicate, since they do not depend on the model; noise keys are
derived per replicate and round. Every kernel keeps each replicate's
bits, so a stacked point writes the artifacts of its solo run byte for
byte. run(cfg) is the stack of one, run without the replicate axis;
sweep stacks the points of a sigma_g_scale sweep.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, artifacts
from .aggregators import aggregator_step, cluster_miss_probability, init_state
from .config import RunConfig, sweep_point
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
from .rng import KEY_INDEX_LIMIT, TAG_LOCAL, TAG_SAMPLING, philox_keys
from .sampling import sample_rounds

# run samples its rounds in chunks of at most this many participant ids
# per replicate, or of one round where a round has more.
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
    if assignment is not None and cfg.algo.K != cfg.federation.K_true:
        # Report the heterogeneity of the clustering the aggregator actually
        # uses; with K == K_true it is the generator's, whose value consts holds.
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


def _check_sizes(cfg: RunConfig, replicates: int = 1) -> None:
    """Raise ConfigError if an array of a stack of replicates runs of cfg cannot be allocated, or a round cannot be keyed.

    Probes the stack's (replicates * N, d) federations and server
    tables and, for a noisy federation, local_sgd's largest
    (replicates * round_size(0), tau, d) noise block, allocating
    nothing. Round t's sampling stream is keyed with t as its id, so
    T - 1 must be below KEY_INDEX_LIMIT.
    """
    if cfg.hyper.T > KEY_INDEX_LIMIT:
        raise ConfigError(f"T must be at most 2**32, one key word per round, got {cfg.hyper.T}")
    shapes = [(replicates * cfg.federation.N, cfg.federation.d)]
    if cfg.federation.noise_sigma > 0:
        shapes.append((replicates * cfg.round_size(0), cfg.hyper.tau, cfg.federation.d))
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
    [first] = _measure(fed, np.zeros(cfg.federation.d), consts.w_star, 0)
    if not _finite(first):
        raise ConfigError("metrics of the initial point overflow float64")
    return fed, consts, first


def _measure(fed: Federation, w, w_star, round_index) -> list[RunRecord]:
    """The metrics of each replicate of fed at w: one record, or one per stacked replicate."""
    # A finite but huge iterate overflows here; the caller treats it as divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        g, loss = global_grad_and_loss(fed, w)
        diff = w - w_star
        if not fed.lead:
            g, loss, diff = (g,), (loss,), (diff,)
        return [
            RunRecord(
                round=round_index,
                grad_norm_sq=float(np.dot(g_r, g_r)),
                global_loss=float(loss_r),
                dist_to_opt_sq=float(np.dot(diff_r, diff_r)),
            )
            for g_r, loss_r, diff_r in zip(g, loss, diff)
        ]


def _finite(rec: RunRecord) -> bool:
    return all(map(math.isfinite, (rec.grad_norm_sq, rec.global_loss, rec.dist_to_opt_sq)))


def run(cfg: RunConfig, write_artifacts: bool = True) -> RunResult:
    """Execute one configured run; deterministic in cfg.seed.

    The run is run_stack's stack of one. Array sizes too large to
    allocate, a T too large to key and initial metrics that overflow are
    ConfigErrors raised before the output directory is made. A
    non-finite iterate or later metric raises DivergenceError naming the
    round whose update produced it, with the finite records before it as
    `result`. The artifacts are written once, when the run completes or
    diverges.
    """
    _check_sizes(cfg)
    realized = _realize(cfg)
    [outcome] = run_stack([cfg], realized[0], [realized], write_artifacts)
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome


def _stack_key(cfg: RunConfig) -> RunConfig:
    """cfg with what may differ within a stack set aside: seeds, output_dir and the federation spreads."""
    fed = replace(cfg.federation, seed=0, cluster_center_spread=0.0, within_cluster_spread=0.0)
    return replace(cfg, federation=fed, seed=0, output_dir="-")


def _stack_points(cfgs: list[RunConfig]) -> list[list[int]]:
    """The indices of cfgs grouped into stacks, in order of each stack's first point.

    Points whose _stack_key is equal share a stack, which grows only
    while _check_sizes passes for it; a point it would overflow starts
    the next stack of its key.
    """
    growing = {}  # stack key -> the last stack of that key
    stacks = []
    for i, cfg in enumerate(cfgs):
        key = _stack_key(cfg)
        stack = growing.get(key)
        if stack is not None:
            try:
                _check_sizes(cfg, len(stack) + 1)
            except ConfigError:
                stack = None
        if stack is None:
            stack = growing[key] = []
            stacks.append(stack)
        stack.append(i)
    return stacks


def run_stack(
    cfgs: list[RunConfig], fed: Federation, realized: list, write_artifacts: bool = True
) -> list:
    """Run cfgs as one stack of replicates; return each point's RunResult or DivergenceError.

    cfgs share a _stack_key. fed is their federation: a lone point's
    own, which runs without the replicate axis, or an (R, N, d) stack
    in cfgs' order. realized holds each point's (federation, constants,
    round-0 record) as _realize builds it; the output directories are
    made here, before round 0.

    Round t of point r trains the participants sample_round draws from
    substream(seed_r, TAG_SAMPLING, t). They are drawn a chunk of rounds
    at a time: one philox_keys and one sample_rounds call per replicate
    give the chunk's participants, at most max(M, ROUND_KEY_CHUNK) ids
    per replicate; round 0 of mifa's full_first_round, N ids, is a chunk
    of its own. In a noisy federation participant i draws its gradient
    noise from the key of substream(seed_r, TAG_LOCAL, t, i), the
    round's keys derived as one block per replicate. The participants
    of all replicates train in one local_sgd call and step in one
    aggregator_step call, and the logged rounds are measured in one
    global_grad_and_loss call.

    A point leaves the stack when its run diverges, with a
    DivergenceError naming the round, its local step (None for the
    server step or the metrics) and its finite records as `result`; its
    artifacts are written then, its rows leave the chunk's participants,
    and the other points run on unchanged.
    A stacked local_sgd that raises is replayed one replicate at a time,
    which gives each replicate's own bits and step. A point that
    completes writes its artifacts at the end.
    """
    cfg = cfgs[0]
    h, N, d = cfg.hyper, cfg.federation.N, cfg.federation.d
    eta_tilde = effective_server_lr(h)
    # Only clusterfedvarp's aggregator maps clients to clusters.
    assignment = block_assignment(N, cfg.algo.K) if cfg.algo.name == CLUSTERFEDVARP else None
    results = [
        RunResult(
            records=[first],
            manifest=build_manifest(point, point_fed, consts, assignment),
            completed=False,
            output_dir=Path(point.output_dir) if write_artifacts else None,
        )
        for point, (point_fed, consts, first) in zip(cfgs, realized)
    ]
    if write_artifacts:  # made before round 0, so a blocked directory costs no compute
        artifacts.make_output_dirs({res.output_dir: artifacts.RUN_ARTIFACTS for res in results})
    outcomes = list(results)
    live = list(range(len(cfgs)))  # the point of each stack row
    w_star = np.array([consts.w_star for _, consts, _ in realized])
    state = init_state(cfg.algo.name, np.zeros((*fed.lead, d)), N, cfg.algo.K, assignment)
    noisy = fed.noise_sigma > 0

    def leave(t: int, steps: dict) -> list | None:
        """Take the rows in steps (row -> local step) out of the stack; the rows kept, or None if none is."""
        nonlocal live, fed, w_star, chunk
        for row, step in steps.items():
            exc = DivergenceError(step)
            res = exc.result = results[live[row]]
            exc.round = res.aborted_round = t
            outcomes[live[row]] = exc
            artifacts.write_run_artifacts(res)
        keep = [row for row in range(len(live)) if row not in steps]
        if not keep:
            return None
        live = [live[row] for row in keep]
        w_star, chunk = w_star[keep], chunk[keep]
        fed = replace(fed, mus=fed.mus[keep])
        state.w = state.w[keep]
        if state.table is not None:
            state.table = state.table[keep]
        return keep

    chunk_end = 0
    for t in range(h.T):
        if t == chunk_end:
            M = cfg.round_size(t)
            # M != h.M only in round 0 of a full_first_round, N ids.
            chunk_end = t + 1 if M != h.M else min(h.T, t + max(1, ROUND_KEY_CHUNK // M))
            rounds = np.arange(t, chunk_end)
            chunk = np.array(  # (replicates, rounds, M)
                [sample_rounds(N, M, philox_keys(cfgs[i].seed, TAG_SAMPLING, ids=rounds)) for i in live]
            )
        rows = chunk[:, t - rounds[0]]
        participants = rows.reshape(*fed.lead, M)
        keys = None
        if noisy:
            keys = [philox_keys(cfgs[i].seed, TAG_LOCAL, t, ids=ids) for i, ids in zip(live, rows)]
            keys = np.array(keys).reshape(*fed.lead, M, 2)
        try:
            block = local_sgd(fed, participants, state.w, h.tau, h.eta_c, keys)
        except DivergenceError:
            block, steps = _replay(fed, participants, state.w, h, keys)
            keep = leave(t, steps)
            if keep is None:
                break
            participants, block = participants[keep], block[keep]
        aggregator_step(state, participants, block, eta_tilde)
        if not np.isfinite(state.w).all():
            bad = (~np.isfinite(state.w.reshape(-1, d)).all(axis=1)).nonzero()[0]
            if leave(t, dict.fromkeys(bad.tolist())) is None:
                break
        if (t + 1) % cfg.log_every == 0 or (t + 1) == h.T:
            recs = _measure(fed, state.w, w_star.reshape(state.w.shape), t + 1)
            bad = {row: None for row, rec in enumerate(recs) if not _finite(rec)}
            for row, rec in enumerate(recs):
                if row not in bad:
                    results[live[row]].records.append(rec)
            if bad and leave(t, bad) is None:
                break
    else:
        for i in live:
            results[i].completed = True
            artifacts.write_run_artifacts(results[i])
    return outcomes


def _replay(fed: Federation, participants, w, h, keys) -> tuple[np.ndarray, dict]:
    """local_sgd one replicate at a time: the stacked block, and row -> local step of the rows that diverge.

    A row's bits depend on its own inputs alone, so each replayed row is
    what the stacked call would have given it; a diverging row's block
    stays zero, as it leaves the stack before the server step.
    """
    M, d = participants.shape[-1], fed.d
    block = np.zeros((*fed.lead, M, d))
    steps = {}
    feds = [fed.replicate(r) for r in range(fed.lead[0])] if fed.lead else [fed]
    rows = zip(feds, participants.reshape(-1, M), w.reshape(-1, d), block.reshape(-1, M, d))
    for r, (fed_r, ids, w_r, out) in enumerate(rows):
        try:
            out[...] = local_sgd(fed_r, ids, w_r, h.tau, h.eta_c, None if keys is None else keys.reshape(-1, M, 2)[r])
        except DivergenceError as exc:
            steps[r] = exc.step
    return block, steps


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

    Points whose configs differ only in seeds, output_dir and the
    federation spreads run as one stack (_stack_points): the points of a
    sigma_g_scale sweep; every other axis runs in stacks of one. Each
    point's artifacts are those of its solo run, byte for byte.

    A divergent point does not stop the sweep: its result has
    completed=False, and its summary row leaves the floor columns empty
    and names the aborted round. The summary's value column is the value
    the point's config holds, so "FedAvg" reads fedavg.
    """
    if not values:
        raise ConfigError("sweep needs at least one value")
    # Every point's array sizes are checked before any federation is
    # built, and every federation, initial metrics and output directory
    # before the first point runs; points that share a federation config
    # share one realized federation. A stack of R points holds one
    # (R, N, d) copy of its federations, each point's a view of its slice.
    points = [sweep_point(base, axis, value, idx) for idx, value in enumerate(values)]
    cfgs = [cfg for cfg, _ in points]
    built = {}
    stacks = []
    try:
        for cfg, value in zip(cfgs, values):
            _check_sizes(cfg)
        for idx in _stack_points(cfgs):
            stacked, realized = None, []
            for r, i in enumerate(idx):
                cfg, value = cfgs[i], values[i]
                if cfg.federation not in built:
                    built[cfg.federation] = _realize(cfg)
                fed, consts, first = built[cfg.federation]
                if len(idx) > 1:
                    if stacked is None:
                        stacked = replace(fed, mus=np.empty((len(idx), *fed.mus.shape)))
                    stacked.mus[r] = fed.mus
                    fed = replace(fed, mus=stacked.mus[r])
                    built[cfg.federation] = (fed, consts, first)
                realized.append((fed, consts, first))
            stacks.append((idx, fed if stacked is None else stacked, realized))
    except (ConfigError, MemoryError) as exc:
        raise ConfigError(f"sweep point {axis}={value!r}: {exc}") from exc
    if write_artifacts:  # an interrupted sweep leaves no earlier sweep's point artifacts
        dirs = {cfg.output_dir: artifacts.RUN_ARTIFACTS for cfg in cfgs}
        artifacts.make_output_dirs({base.output_dir: (artifacts.SUMMARY_FILE,), **dirs})
    results = [None] * len(cfgs)
    for idx, fed, realized in stacks:
        outcomes = run_stack([cfgs[i] for i in idx], fed, realized, write_artifacts)
        for i, out in zip(idx, outcomes):
            results[i] = out.result if isinstance(out, DivergenceError) else out
    rows = []
    for (cfg, held), res in zip(points, results):
        if res.completed:
            grads = [r.grad_norm_sq for r in res.records]
            tail = (floor_estimate(res.records), min(grads), grads[-1], "true", "")
        else:
            tail = ("", "", "", "false", res.aborted_round)
        rows.append((axis, held, cfg.seed, res.manifest["constants"]["sigma_g_sq"], *tail))
    summary_path = None
    if write_artifacts:
        summary_path = Path(base.output_dir) / artifacts.SUMMARY_FILE
        artifacts.write_csv(summary_path, artifacts.SUMMARY_HEADER, rows)
    return SweepResult(results=results, summary_path=summary_path)
