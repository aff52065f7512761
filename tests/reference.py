"""The reference simulator: every run rule and kernel of a run, written once as plain loops.

simulate(cfg) runs cfg round by round and client by client, from the
spec forms alone:

- the federation from one substream(seed, TAG_OFFSETS, i) per client,
  with w* the mean of its minimizers (federation_mus);
- round t's participants from sample_round(N, round size,
  substream(seed, TAG_SAMPLING, t));
- each participant's local SGD by the per-client recursion, its noise
  from substream(seed, TAG_LOCAL, t, i) (local_sgd);
- the server step by row loops in ascending client and cluster order
  (loop_step, on loop_sum);
- the metrics from the whole (N, d) arrays and numpy's means over the
  clients (grad_and_loss), with one np.dot per squared norm. Those
  means are not row loops: numpy sums each client's loss over d, the
  losses over the clients and, at d = 1, the gradient column pairwise.

It returns the logged rounds, the metrics rows and the stop (round,
local step or None, kind) that harness.run_many must give cfg, alone or
in any stack. The kernel tests take their references from this module
too: the parts above, the exact constants (whole_array_constants), the
O(N) list form of sample_round (list_sample_round) and the row loop of
the sampling variance (row_loop_variance).
"""
import numpy as np

from fedvarp_sim.aggregators import init_state
from fedvarp_sim.core import CLUSTERFEDVARP, FEDAVG, MIFA
from fedvarp_sim.objectives import Federation, block_assignment
from fedvarp_sim.rng import TAG_CENTERS, TAG_LOCAL, TAG_OFFSETS, TAG_SAMPLING, substream
from fedvarp_sim.sampling import sample_round

# Values whose sums cancel exactly or keep a signed zero.
EDGE_VALUES = np.array([-0.0, 0.0, 1.0, -1.0, 0.1, -0.1, 3.0, 1e16, -1e16])


def edge_rows(rng, n, d):
    """Rows mixing normals and edge values, some all -0.0, some cancelling others."""
    normal = rng.normal(size=(n, d))
    rows = np.where(rng.random((n, d)) < 0.5, normal, rng.choice(EDGE_VALUES, size=(n, d)))
    rows[rng.random(n) < 0.2] = -0.0
    for m in np.flatnonzero(rng.random(n) < 0.2):
        rows[m] = -rows[rng.integers(n)]
    return rows


def federation_mus(cfg):
    """The (N, d) minimizers of the federation config cfg: a cluster center plus one substream's offset per client."""
    normals = substream(cfg.seed, TAG_CENTERS).standard_normal((cfg.K_true, cfg.d))
    centers = cfg.cluster_center_spread / np.sqrt(cfg.d) * normals
    half_width = cfg.within_cluster_spread / np.sqrt(cfg.d)
    size = cfg.N // cfg.K_true
    offsets = [substream(cfg.seed, TAG_OFFSETS, i).uniform(-half_width, half_width, cfg.d) for i in range(cfg.N)]
    return np.array([centers[i // size] + offsets[i] for i in range(cfg.N)])


def max_gap_sq(eigs, center, rows):
    """max_i ||A(center - row_i)||^2 over the rows."""
    dev = eigs * (center - rows)
    return float(np.max(np.sum(dev * dev, axis=1)))


def cluster_heterogeneity(fed, assignment):
    """sigma_K^2 of fed's one federation under assignment, a Python loop over the clusters."""
    worst = 0.0
    for k in np.unique(assignment):
        members = fed.mus[0, assignment == k]
        worst = max(worst, max_gap_sq(fed.eigs, members.mean(axis=0), members))
    return worst


def whole_array_constants(fed, assignment):
    """name -> value of the four scalar constants of fed's one federation, and w_star, from whole arrays."""
    eigs, [mus] = fed.eigs, fed.mus
    mu_bar = mus.mean(axis=0)
    return {
        "L": float(np.max(eigs)),
        "sigma_g_sq": max_gap_sq(eigs, mu_bar, mus),
        "sigma_K_sq": cluster_heterogeneity(fed, assignment),
        "f_star": float(np.mean(0.5 * np.sum(eigs * (mu_bar - mus) ** 2, axis=1))),
    }, mu_bar


def list_sample_round(N, M, rng):
    """sample_round as a Fisher-Yates over an O(N) list: M of N ids, ascending."""
    idx = list(range(N))
    for j in range(M):
        r = j + int(rng.integers(N - j))
        idx[j], idx[r] = idx[r], idx[j]
    return np.array(sorted(idx[:M]), dtype=np.intp)


def grad_and_loss(fed, w):
    """The (R, ..., d) gradients and (R, ...) losses at the (R, ..., d) w: the whole (R, ..., N, d) arrays,
    then numpy's means over the clients."""
    grads, losses = fed.grads_and_losses(w)
    return grads.mean(axis=-2), losses.mean(axis=-1)


def local_sgd(eigs, mu, w, tau, eta_c, sigma, rng):
    """One client's tau steps from w: its update, its final iterate and its first non-finite step (None if none)."""
    d = w.shape[0]
    grad_sum = np.zeros_like(w)
    w_k, bad = w, None
    for k in range(tau):
        g = eigs * (w_k - mu)
        if sigma > 0:
            g = g + rng.standard_normal(d) * (sigma / np.sqrt(d))
        grad_sum = grad_sum + g
        w_k = w - (eta_c * tau) * (grad_sum / tau)
        if bad is None and not np.isfinite(w_k).all():
            bad = k
    return grad_sum / tau, w_k, bad


def loop_sum(rows):
    """The rows of an (n, d) array added one at a time, in order, to a sum started at +0.0."""
    acc = np.zeros(rows.shape[1])
    for row in rows:
        acc = acc + row
    return acc


def row_loop_variance(xs, M):
    """The M-subset mean's variance (1/M)((N-M)/(N-1)) (1/N) sum_i ||x_i - x_bar||^2 of the vectors xs, row by row."""
    rows = np.array([np.atleast_1d(np.asarray(x, dtype=np.float64)) for x in xs])
    N = len(rows)
    total = 0.0
    for diff in rows - loop_sum(rows) / N:
        total += float(np.dot(diff, diff))
    return (1.0 / M) * ((N - M) / (N - 1.0)) * (total / N)


def loop_step(state, parts, block, eta_tilde):
    """The server step of a stack of one by row loops, on the ids parts (ascending) and their (M, d) block.

    Every sum runs in ascending client or cluster id: v is the mean
    update, plus (sum_k y_k n_k/N) - (sum_k y_k m_k/M) for the stored
    updates y of the pre-round table; each hit cluster then stores the
    mean of its members' updates (a mifa client, its own update).
    """
    M = len(parts)
    mean_delta = loop_sum(block) / M
    table = None if state.table is None else state.table[0]
    if state.algo == FEDAVG:
        v = mean_delta
    elif state.algo == MIFA:
        table[list(parts)] = block
        v = loop_sum(table) / table.shape[0]
    else:
        N = state.assignment.shape[0]
        clusters = state.assignment[list(parts)]
        hit = sorted(set(clusters.tolist()))
        members = [block[clusters == k] for k in hit]
        m = np.array([len(rows) for rows in members])
        n = np.bincount(state.assignment, minlength=table.shape[0])
        v = mean_delta + (loop_sum(table * (n / N)[:, None]) - loop_sum(table[hit] * (m / M)[:, None]))
        for k, rows in zip(hit, members):
            table[k] = loop_sum(rows) / len(rows)
    state.w = state.w - eta_tilde * v
    return state.w


def simulate(cfg, mus_of=federation_mus):
    """cfg's logged rounds, its (rows, 3) metrics and its stop (round, local step or None, kind), None if it completes.

    The run stops at its first non-finite result, in round order and,
    within a round, local steps (the lowest participant's step) before
    the server step before the metrics of the round's model. A logged
    row whose metrics are not finite is not kept. mus_of(cfg.federation)
    gives the minimizers.
    """
    fc, h, algo = cfg.federation, cfg.hyper, cfg.algo
    N, d = fc.N, fc.d
    mus = mus_of(fc)
    eigs = np.linspace(fc.hessian_eig_min, fc.hessian_eig_max, d)
    fed = Federation(eigs=eigs, mus=mus[None], noise_sigma=fc.noise_sigma)
    w_star = mus.mean(axis=0)
    K = algo.K if algo.name == CLUSTERFEDVARP else None
    state = init_state(algo.name, np.zeros((1, d)), N, K, None if K is None else block_assignment(N, K))
    eta_tilde = h.eta_s * h.eta_c * h.tau
    rounds, rows = [], []

    def logged(t):
        [g], [loss] = grad_and_loss(fed, state.w)
        diff = state.w[0] - w_star
        row = [np.dot(g, g), loss, np.dot(diff, diff)]
        if np.isfinite(row).all():
            rounds.append(t)
            rows.append(row)
            return True
        return False

    with np.errstate(over="ignore", invalid="ignore"):
        assert logged(0), "run_many refuses a config whose initial metrics overflow"
        for t in range(h.T):
            full = t == 0 and algo.name == MIFA and algo.mifa_mode == "full_first_round"
            ids = sample_round(N, N if full else h.M, substream(cfg.seed, TAG_SAMPLING, t)).tolist()
            block = []
            for i in ids:
                rng = substream(cfg.seed, TAG_LOCAL, t, i) if fc.noise_sigma > 0 else None
                delta, _, bad = local_sgd(eigs, mus[i], state.w[0], h.tau, h.eta_c, fc.noise_sigma, rng)
                if bad is not None:
                    return rounds, rows, (t, bad, "local step")
                block.append(delta)
            loop_step(state, tuple(ids), np.array(block), eta_tilde)
            if not np.isfinite(state.w).all():
                return rounds, rows, (t, None, "server step")
            if ((t + 1) % cfg.log_every == 0 or t + 1 == h.T) and not logged(t + 1):
                return rounds, rows, (t, None, "metrics")
    return rounds, rows, None
