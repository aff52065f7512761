"""Spans around the simulator's layer entry points, recorded from outside.

The tracer replaces the names that `fedvarp_sim.harness` and
`fedvarp_sim.cli` look up at call time with timing wrappers, so the
program itself is unchanged. Every call becomes a span (name, start,
end, parent span, run id); spans stay in memory until `write`.

Layers are the package modules on the round path. `core` holds types
and `reference_saga` is an oracle, so neither is timed.
"""
from __future__ import annotations

import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

# module attribute -> span name; the span name's prefix is the layer.
HARNESS_ENTRY_POINTS = {
    "substream": "rng.substream",
    "sample_round": "sampling.sample_round",
    "local_sgd": "localsgd.local_sgd",
    "aggregator_step": "aggregators.aggregator_step",
    "init_state": "aggregators.init_state",
    "global_grad_and_loss": "objectives.global_grad_and_loss",
    "generate_federation": "objectives.generate_federation",
    "run": "harness.run",
}
CLI_ENTRY_POINTS = {
    "main": "cli.main",
    "sweep": "harness.sweep",
}
TAG_LOCAL = 2  # fedvarp_sim.rng.TAG_LOCAL; the purpose tag of local-SGD streams


def _philox_position(gen) -> tuple:
    state = gen.bit_generator.state
    return (tuple(int(x) for x in state["state"]["counter"]), state["buffer_pos"], state["has_uint32"])


class Tracer:
    """In-memory span recorder plus the counters the spans cannot give."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent, run_id)
        self._stack: list[int] = []
        self._run_id = -1
        self.runs: dict[int, dict] = {}  # run id -> algo, tau, state bytes
        self.local_built = 0
        self.local_drawn = 0
        self._pending: list[tuple] = []  # (generator, initial position)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf_counter_ns(), 0, parent, self._run_id))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        name, start, _, parent, run_id = self.spans[idx]
        # Tuples of atomic values leave the garbage collector's lists.
        self.spans[idx] = (name, start, perf_counter_ns(), parent, run_id)
        self._stack.pop()

    def _settle_local_streams(self) -> None:
        for gen, initial in self._pending:
            self.local_drawn += _philox_position(gen) != initial
        self._pending.clear()

    def wrap(self, name: str, fn):
        if name == "harness.run":
            return self._wrap_run(fn)

        def traced(*args, **kwargs):
            if name == "aggregators.aggregator_step":
                # Every local stream of the round has been used by now.
                self._settle_local_streams()
                info = self.runs.get(self._run_id)
                if info is not None and "state_bytes" not in info:
                    info["state_bytes"] = _state_nbytes(args[0])
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name == "rng.substream" and len(args) > 1 and args[1] == TAG_LOCAL:
                self.local_built += 1
                self._pending.append((out, _philox_position(out)))
            return out

        return traced

    def _wrap_run(self, fn):
        def traced(cfg, *args, **kwargs):
            outer = self._run_id
            self._run_id = len(self.spans)
            idx = self._open("harness.run")
            self.runs[idx] = {"algo": cfg.algo.name, "tau": cfg.hyper.tau}
            try:
                return fn(cfg, *args, **kwargs)
            finally:
                self._settle_local_streams()
                self._close(idx)
                self._run_id = outer

        return traced

    @contextmanager
    def installed(self):
        """Patch the entry points for the duration of the block."""
        from fedvarp_sim import cli, harness

        patched = []
        for module, table in ((harness, HARNESS_ENTRY_POINTS), (cli, CLI_ENTRY_POINTS)):
            for attr, name in table.items():
                original = getattr(module, attr, None)
                if original is not None:
                    patched.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def mark(self) -> tuple[int, int, int]:
        """Position to cut a pass out of the record: (spans, built, drawn)."""
        return len(self.spans), self.local_built, self.local_drawn

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent,run_id\n")
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(f"{i},{name},{start},{end},{parent},{run_id}\n")


def _state_nbytes(state) -> int:
    return sum(v.nbytes for v in getattr(state, "__dict__", {}).values() if hasattr(v, "nbytes"))


def self_times(spans: list[tuple], lo: int, hi: int) -> list[int]:
    """Self time (ns) of spans[lo:hi]: duration minus what children cover.

    Calls are sequential, so children never overlap and the covered part
    is the sum of the child durations.
    """
    own = [s[2] - s[1] for s in spans[lo:hi]]
    for s in spans[lo:hi]:
        if s[3] >= lo:
            own[s[3] - lo] -= s[2] - s[1]
    return own


def tail_percentile(n: int) -> float | None:
    """Highest of 50/90/99/99.9 with at least 10 samples beyond it."""
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    return best


def round_times_ms(spans: list[tuple], lo: int, hi: int) -> list[float]:
    """Wall time of each round: from one sample_round start to the next.

    A run's last round ends where its last metrics evaluation ends.
    """
    by_run: dict[int, list[tuple]] = {}
    for s in spans[lo:hi]:
        if s[4] >= 0 and s[0] in ("sampling.sample_round", "objectives.global_grad_and_loss"):
            by_run.setdefault(s[4], []).append(s)
    rounds = []
    for seq in by_run.values():
        starts = [s[1] for s in seq if s[0] == "sampling.sample_round"]
        measures = [s[2] for s in seq if s[0] == "objectives.global_grad_and_loss"]
        if not starts or not measures:
            continue
        bounds = starts + [measures[-1]]
        rounds.extend((b - a) / 1e6 for a, b in zip(bounds, bounds[1:]))
    return rounds


def pass_layer_metrics(tracer: Tracer, start: tuple, end: tuple) -> dict[str, float]:
    """Per-layer totals of one traced pass, between two `Tracer.mark`s."""
    spans = tracer.spans
    lo, hi = start[0], end[0]
    own = self_times(spans, lo, hi)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    agg_by_algo: dict[str, float] = {}
    client_steps = 0
    for s, t in zip(spans[lo:hi], own):
        name = s[0]
        total[name] = total.get(name, 0) + t
        calls[name] = calls.get(name, 0) + 1
        run = tracer.runs.get(s[4])
        if name == "aggregators.aggregator_step" and run is not None:
            agg_by_algo[run["algo"]] = agg_by_algo.get(run["algo"], 0) + t
        if name == "localsgd.local_sgd" and run is not None:
            client_steps += run["tau"]

    def ms(name):
        return total.get(name, 0) / 1e6

    out = {}
    for algo in ("fedavg", "fedvarp", "clusterfedvarp", "mifa"):
        out[f"aggregators.step_ms.{algo}"] = agg_by_algo.get(algo, 0) / 1e6
    out["aggregators.calls"] = calls.get("aggregators.aggregator_step", 0)
    for run_id in range(lo, hi):
        run = tracer.runs.get(run_id)
        if run is not None and "state_bytes" in run:
            out.setdefault(f"aggregators.state_bytes.{run['algo']}", run["state_bytes"])
    out["aggregators.init_ms"] = ms("aggregators.init_state")
    out["objectives.measure_ms"] = ms("objectives.global_grad_and_loss")
    out["objectives.measure_calls"] = calls.get("objectives.global_grad_and_loss", 0)
    out["objectives.generate_ms"] = ms("objectives.generate_federation")
    out["localsgd.ms"] = ms("localsgd.local_sgd")
    out["localsgd.calls"] = calls.get("localsgd.local_sgd", 0)
    out["localsgd.client_steps"] = client_steps
    out["localsgd.us_per_client_step"] = (
        out["localsgd.ms"] * 1e3 / client_steps if client_steps else 0.0
    )
    out["rng.substream_ms"] = ms("rng.substream")
    out["rng.substream_calls"] = calls.get("rng.substream", 0)
    built, drawn = end[1] - start[1], end[2] - start[2]
    out["rng.local_streams_built"] = built
    out["rng.local_draw_ratio"] = drawn / built if built else 0.0
    out["sampling.sample_ms"] = ms("sampling.sample_round")
    out["sampling.calls"] = calls.get("sampling.sample_round", 0)
    out["harness.self_ms"] = ms("harness.run") + ms("harness.sweep")
    out["cli.self_ms"] = ms("cli.main")
    rounds = round_times_ms(spans, lo, hi)
    out["harness.round_ms.samples"] = len(rounds)
    pct = tail_percentile(len(rounds))
    out["harness.round_ms.p50"] = statistics.median(rounds) if rounds else 0.0
    out["harness.round_ms.tail"] = (
        statistics.quantiles(rounds, n=1000, method="inclusive")[int(pct * 10) - 1]
        if pct is not None
        else 0.0
    )
    out["harness.round_ms.tail_pct"] = pct if pct is not None else 0.0
    return out
