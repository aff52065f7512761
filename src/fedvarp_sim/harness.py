"""The run path: configs in, each run's exact logged metrics and artifacts out.

run_many is the one way to run configs; run(cfg) is its list of one.
Configs that differ only in their seeds, output directories and
federation spreads run as one stack of R runs in the one round loop,
run_stack, their federations and server states on a leading replicate
axis, (R, N, d): each round makes one local_sgd and one aggregator_step
call for all R, and the logged rounds are measured a batch at a time
into one (R, rows, 3) array. Every kernel keeps each replicate's bits
and every draw is keyed off the config seeds, so a config writes the
same bytes stacked or alone, in any client order. A stack's federations
are kept for the next call that runs it: the algorithms of one
federation, run one after another, build it once.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import artifacts
from .aggregators import aggregator_step, init_state
from .config import RunConfig
from .config import parse_config  # noqa: F401  perfbench/workloads.py calls harness.parse_config
from .core import CLUSTERFEDVARP, ROW_BLOCK_BYTES, ConfigError, DivergenceError, effective_server_lr
from .localsgd import local_sgd, tile_rows
from .objectives import Federation, FederationConfig, block_assignment, generate_federation, global_grad_and_loss
from .rng import KEY_INDEX_LIMIT, TAG_LOCAL, philox_keys
from .sampling import sample_participants

# run samples its rounds in chunks of at most this many participant ids
# per replicate, or of one round where a round has more.
ROUND_KEY_CHUNK = 1024

# run_many's stacks, kept for its next call: the federation configs of a
# stack -> its (R, N, d) federation and realized points, as _realize builds them.
_kept = {}


@dataclass
class RunResult:
    """A run's logged round indices (rows,) and metrics (rows, 3): grad_norm_sq, global_loss, dist_to_opt_sq."""

    rounds: np.ndarray
    metrics: np.ndarray
    manifest: dict
    aborted_round: int | None = None
    output_dir: Path | None = None

    @property
    def completed(self) -> bool:
        return self.aborted_round is None


def _check_sizes(cfg: RunConfig, replicates: int = 1) -> None:
    """Raise ConfigError if an array of a stack of replicates runs of cfg cannot be allocated, or a round cannot be keyed.

    Probes the stack's (replicates * N, d) federations and server
    tables, its (replicates, rows, 3) metrics and, for a noisy
    federation, the largest noise buffer local_sgd allocates, (tile,
    tau, d) for tile = min(replicates * round_size(0), tile_rows(d)),
    allocating nothing. The tile does not depend on tau, so the probe
    grows with tau as a run's work does. Round t's sampling stream is
    keyed with t as its id, so T - 1 must be below KEY_INDEX_LIMIT.
    """
    if cfg.hyper.T > KEY_INDEX_LIMIT:
        raise ConfigError(f"T must be at most 2**32, one key word per round, got {cfg.hyper.T}")
    N, d = cfg.federation.N, cfg.federation.d
    shapes = [(replicates * N, d), (replicates, _logged_rows(cfg), 3)]
    if cfg.federation.noise_sigma > 0:
        shapes.append((min(replicates * cfg.round_size(0), tile_rows(d)), cfg.hyper.tau, d))
    for shape in shapes:
        try:
            np.empty(shape)
        except (MemoryError, ValueError) as exc:  # ValueError: the byte count overflows
            raise ConfigError(f"{exc} (array shape {shape})") from exc


def _logged_rows(cfg: RunConfig) -> int:
    """How many rows a run of cfg logs: round 0, every log_every-th round and round T."""
    return 1 + -(-cfg.hyper.T // cfg.log_every)


def _realize(feds: tuple[FederationConfig, ...]) -> tuple[Federation, list]:
    """Build the read-only stack of feds' federations and each one's (row view, constants, round-0 metrics).

    The run starts from w = 0, so the initial metrics depend on the
    federation alone; a non-finite one is a ConfigError. A ConfigError of
    one federation holds its index in feds as `row`.
    """
    fed, consts = generate_federation(list(feds))
    for array in (fed.mus, fed.eigs, *(c.w_star for c in consts)):  # run_many keeps them for later calls
        array.flags.writeable = False
    firsts = _measure(fed, np.zeros((len(feds), 1, fed.d)), np.array([c.w_star for c in consts]))[:, 0]
    for r, finite in enumerate(np.isfinite(firsts).all(axis=1).tolist()):
        if not finite:
            exc = ConfigError("metrics of the initial point overflow float64")
            exc.row = r
            raise exc
    return fed, [(replace(fed, mus=fed.mus[r : r + 1]), *point) for r, point in enumerate(zip(consts, firsts))]


def _measure(fed: Federation, w, w_star) -> np.ndarray:
    """The (R, C, 3) metrics rows of each replicate of the stacked fed at its C models w (R, C, d)."""
    # A finite but huge iterate overflows here; the caller treats it as divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        g, loss = global_grad_and_loss(fed, w)
        diff = w - w_star[:, None]
        rows = np.empty((*loss.shape, 3))
        np.vecdot(g, g, out=rows[..., 0])
        rows[..., 1] = loss
        np.vecdot(diff, diff, out=rows[..., 2])
        return rows


def run(cfg: RunConfig, write_artifacts: bool = True) -> RunResult:
    """Execute one configured run; deterministic in cfg.seed.

    The run is run_many's list of one. Array sizes too large to
    allocate, a T too large to key and initial metrics that overflow are
    ConfigErrors raised before the output directory is made. A
    non-finite iterate or later metric raises DivergenceError naming the
    round whose update produced it, with the finite rows before it as
    `result`. The artifacts are written once, after the run's last round.
    """
    [out] = run_many([cfg], write_artifacts)
    if isinstance(out, DivergenceError):
        raise out
    return out


def run_many(cfgs: list[RunConfig], write_artifacts: bool = True, _sweep_dir: str | None = None) -> list:
    """Run cfgs as stacks (_stack_points); return each one's RunResult or DivergenceError, in cfgs' order.

    All sizes, and when writing artifacts that no two configs share an
    output directory, are checked before any federation is built, and
    every federation, initial metrics, manifest and output directory (a
    sweep's base _sweep_dir first) made before the first stack runs; a
    ConfigError or MemoryError of that preparation holds its config's
    index as `point`, and then no directory is made.
    Each stack's federations are generated into one (R, N, d) array, and
    each point runs on its row. The stacks stay in _kept, read-only and
    keyed by their federation configs, for the next call, which first
    drops those none of its stacks uses: run_many([]) drops all.
    """
    stacks = [(idx, tuple(cfgs[i].federation for i in idx)) for idx in _stack_points(cfgs)]
    for unused in _kept.keys() - {feds for _, feds in stacks}:
        del _kept[unused]
    owners = {}  # output directory -> the first config writing to it
    manifests = {}  # config index -> its manifest
    try:
        for point, cfg in enumerate(cfgs):
            _check_sizes(cfg)
            path = Path(cfg.output_dir).resolve()
            if write_artifacts and owners.setdefault(path, point) != point:
                raise ConfigError(f"configs {owners[path]} and {point} share the output_dir {cfg.output_dir}")
        for idx, feds in stacks:
            point = idx[0]
            if feds not in _kept:
                _kept[feds] = _realize(feds)
            # A manifest of an aggregator's own clustering recomputes its constants, which can overflow.
            for point, (fed, consts, _) in zip(idx, _kept[feds][1]):
                cfg = cfgs[point]
                manifests[point] = artifacts.build_manifest(cfg, fed, consts, _assignment(cfg))
    except (ConfigError, MemoryError) as exc:  # MemoryError: a configured size too large to allocate
        exc.point = idx[exc.row] if hasattr(exc, "row") else point  # a federation's error names its row
        raise
    if write_artifacts:  # made once, before round 0, so a blocked directory costs no compute
        summary = {} if _sweep_dir is None else {_sweep_dir: (artifacts.SUMMARY_FILE,)}
        artifacts.make_output_dirs({**summary, **{Path(cfg.output_dir): artifacts.RUN_ARTIFACTS for cfg in cfgs}})
    outcomes = {}
    for idx, feds in stacks:
        outs = run_stack([cfgs[i] for i in idx], *_kept[feds], [manifests[i] for i in idx], write_artifacts)
        outcomes.update(zip(idx, outs))
    return [outcomes[i] for i in range(len(cfgs))]


def _assignment(cfg: RunConfig) -> np.ndarray | None:
    """The client->cluster map of cfg's aggregator: only clusterfedvarp's has one."""
    return block_assignment(cfg.federation.N, cfg.algo.K) if cfg.algo.name == CLUSTERFEDVARP else None


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
    cfgs: list[RunConfig], fed: Federation, realized: list, manifests: list, write_artifacts: bool = True
) -> list:
    """Run cfgs as one stack of replicates; return each point's RunResult or DivergenceError.

    cfgs share a _stack_key. fed is their (R, N, d) stack of
    federations in cfgs' order, R = 1 for a lone run. realized holds
    each point's (federation, constants, round-0 metrics) as _realize
    builds it, and manifests each point's manifest; run_many has made
    the output directories, if any.

    Round t of point r trains the participants sample_round draws from
    substream(seed_r, TAG_SAMPLING, t). As they do not depend on the
    model, they are drawn a chunk of rounds at a time, in one
    sample_participants call for the stack, at most
    max(M, ROUND_KEY_CHUNK) ids per replicate; round 0 of mifa's
    full_first_round, N ids, is a chunk of its own. In
    a noisy federation participant i draws its gradient noise from the
    key of substream(seed_r, TAG_LOCAL, t, i), the round's keys derived
    as one block per replicate. The participants of all replicates train
    in one local_sgd call and step in one aggregator_step call.

    The models of the logged rounds are kept and measured in one
    global_grad_and_loss call for all replicates, into one (R, rows, 3)
    array, when max(1, ROW_BLOCK_BYTES // (8 R N d)) of them (one
    ordered_row_sum buffer) wait or the loop ends.

    The kernels hand non-finite results back as data, and this loop is
    the one place that turns them into a stop. A point stops at the
    earliest round in which its local step (local_sgd's steps), its
    server step or its metrics are non-finite; within a round a local
    step wins, then the server step. The stack keeps its shape: a
    stopped point's row runs on (every kernel works per replicate, so no
    other row's bits change) and its rows logged after its stop are
    discarded. The loop ends at round T or once every point has stopped.
    Only a stack with a diverging point pays for dead rows and for the
    per-row scans behind the one-reduction guards; no benchmark workload
    diverges. After the loop, in point order, each point gets its
    RunResult, or a DivergenceError naming its stop's round, local step
    and kind with its earlier rows as `result`, and its artifacts are
    written, a diverged point's included.
    """
    cfg = cfgs[0]
    h, N, d, R = cfg.hyper, cfg.federation.N, cfg.federation.d, len(cfgs)
    eta_tilde = effective_server_lr(h)
    # The logged round indices. Any log_every >= T logs rounds 0 and T, so one past int64 steps by T.
    rounds = np.minimum(np.arange(_logged_rows(cfg)) * min(cfg.log_every, max(h.T, 1)), h.T)
    table = np.empty((R, rounds.size, 3))  # each point's metrics rows
    table[:, 0] = [first for _, _, first in realized]
    cap = max(1, ROW_BLOCK_BYTES // (8 * R * N * d))  # logged rounds measured in one call
    filled, models, n = 1, np.empty((R, cap, d)), 0  # rows written; the n logged models since
    w_star = np.array([consts.w_star for _, consts, _ in realized])
    state = init_state(cfg.algo.name, np.zeros((R, d)), N, cfg.algo.K, _assignment(cfg))
    stop = {}  # row -> (round, local step or None, kind) of its earliest non-finite result

    chunk_end = 0
    for t in range(h.T):
        if t == chunk_end:
            chunk_start, M = t, cfg.round_size(t)
            # M != h.M only in round 0 of a full_first_round, N ids.
            chunk_end = t + 1 if M != h.M else min(h.T, t + max(1, ROUND_KEY_CHUNK // M))
            chunk = sample_participants([point.seed for point in cfgs], N, M, np.arange(t, chunk_end))
        participants = chunk[:, t - chunk_start]
        keys = None
        if fed.noise_sigma > 0:
            keys = np.array([philox_keys(point.seed, TAG_LOCAL, t, ids=ids) for point, ids in zip(cfgs, participants)])
        block, steps = local_sgd(fed, participants, state.w, h.tau, h.eta_c, keys)
        if steps.max() >= 0:
            for row, m in np.argwhere(steps >= 0).tolist():  # a replicate's step is its first diverging row's
                stop.setdefault(row, (t, int(steps[row, m]), "local step"))
        aggregator_step(state, participants, block, eta_tilde)
        if not np.isfinite(state.w).all():
            for row in (~np.isfinite(state.w).all(axis=1)).nonzero()[0].tolist():
                stop.setdefault(row, (t, None, "server step"))
        if t + 1 == rounds[filled + n]:
            models[:, n] = state.w
            n += 1
        if n and (n == cap or t + 1 == h.T or len(stop) == R):
            batch = table[:, filled : filled + n] = _measure(fed, models[:, :n], w_star)
            if not np.isfinite(batch).all():
                for row, c in np.argwhere(~np.isfinite(batch).all(axis=2)).tolist():
                    t_bad = int(rounds[filled + c]) - 1  # the round whose update overflowed them
                    if t_bad < stop.get(row, (h.T,))[0]:  # a local or server step of that round wins
                        stop[row] = (t_bad, None, "metrics")
            filled, n = filled + n, 0
        if len(stop) == R:
            break

    outcomes = []
    for i, point in enumerate(cfgs):
        aborted, step, kind = stop.get(i, (None, None, None))
        k = rounds.size if aborted is None else int(np.searchsorted(rounds, aborted, side="right"))
        out = Path(point.output_dir) if write_artifacts else None
        res = RunResult(rounds[:k], table[i, :k], manifests[i], aborted, out)
        artifacts.write_run_artifacts(res)
        outcomes.append(res if aborted is None else DivergenceError(step, kind, res))
    return outcomes
