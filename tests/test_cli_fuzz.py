"""A fuzzer for the command line: any config and any sweep exit 0, 1 or 2, and nothing escapes.

Configs are drawn from edge values at tiny shapes (N <= 12, d <= 3,
T <= 3), and each field is written either into the config file or as a
--set string. Exit 2 leaves nothing made; exit 1 leaves each diverged
run's status.json with completed false; every metrics.csv row written is
finite.
"""
import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedvarp_sim.cli import main
from fedvarp_sim.config import MIFA_MODES, SWEEP_AXES
from fedvarp_sim.core import ALGORITHMS

EDGE_FLOATS = (0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 3.0, 1e154, 1e300, 1.7e308)
SEEDS = st.integers(0, 2**70)


@st.composite
def invocations(draw):
    """The config file's dotted fields, the dotted fields given as --set, and the subcommand's arguments."""
    N = draw(st.integers(1, 12))
    floats = st.sampled_from(EDGE_FLOATS)
    eig_min, eig_max = sorted(draw(st.tuples(floats, floats)))
    name = draw(st.sampled_from(ALGORITHMS))
    fields = {
        "federation.N": N,
        "federation.d": draw(st.integers(1, 3)),
        "federation.K_true": draw(st.sampled_from([k for k in range(1, N + 1) if N % k == 0])),
        "federation.cluster_center_spread": draw(floats),
        "federation.within_cluster_spread": draw(floats),
        "federation.noise_sigma": draw(floats),
        "federation.hessian_eig_min": eig_min,
        "federation.hessian_eig_max": eig_max,
        "federation.seed": draw(SEEDS),
        "hyper.eta_c": draw(floats),
        "hyper.eta_s": draw(floats),
        "hyper.tau": draw(st.integers(1, 3)),
        "hyper.T": draw(st.integers(0, 3)),
        "hyper.M": draw(st.integers(1, N)),
        "algo.name": name,
        "algo.K": draw(st.integers(1, N)) if name == "clusterfedvarp" else None,
        "algo.mifa_mode": draw(st.sampled_from(MIFA_MODES)) if name == "mifa" else None,
        "log_every": draw(st.integers(1, 3)),
        "seed": draw(SEEDS),
    }
    overridden = draw(st.sets(st.sampled_from(sorted(fields))))
    sets = {key: fields.pop(key) for key in sorted(overridden)}
    if not draw(st.booleans()):
        return fields, sets, ["run"]
    axis = draw(st.sampled_from(sorted(SWEEP_AXES)))
    value = {
        "M": st.integers(1, N),
        "tau": st.integers(1, 3),
        "K": st.integers(1, N),
        "algo": st.sampled_from(ALGORITHMS),
    }.get(axis, floats)
    values = draw(st.lists(value, min_size=1, max_size=3, unique=True))
    return fields, sets, ["sweep", "--axis", axis, "--values", ",".join(map(str, values))]


def _nested(dotted: dict) -> dict:
    """The config file of dotted fields; each section is there, so a --set can fill it."""
    raw = {"federation": {}, "hyper": {}, "algo": {}}
    for key, value in dotted.items():
        *path, leaf = key.split(".")
        node = raw
        for part in path:
            node = node.setdefault(part, {})
        node[leaf] = value
    return raw


# Constants that overflow only for clusterfedvarp's own clustering, K=3
# against the generator's K_true=12, which the manifest recomputes.
OWN_CLUSTERING_OVERFLOW = {
    "federation.N": 12,
    "federation.d": 1,
    "federation.K_true": 12,
    "federation.cluster_center_spread": 1.1550266902666783e54,
    "federation.within_cluster_spread": 0.0,
    "federation.noise_sigma": 0.0,
    "federation.hessian_eig_min": 1e100,
    "federation.hessian_eig_max": 1e100,
    "federation.seed": 2,
    "hyper.eta_c": 1e-101,
    "hyper.eta_s": 1.0,
    "hyper.tau": 1,
    "hyper.T": 2,
    "hyper.M": 2,
    "algo.name": "clusterfedvarp",
    "algo.K": 3,
    "algo.mifa_mode": None,
    "log_every": 1,
    "seed": 99,
}


@settings(max_examples=400, deadline=None, database=None)
@given(invocations())
@example((OWN_CLUSTERING_OVERFLOW, {}, ["run"]))
@example((OWN_CLUSTERING_OVERFLOW, {}, ["sweep", "--axis", "K", "--values", "12,3"]))
def test_the_cli_exits_cleanly_on_any_config(invocation):
    fields, sets, command = invocation
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        out = root / "out"
        config = root / "config.json"
        config.write_text(json.dumps(_nested({**fields, "output_dir": str(out)})))
        argv = [*command, "--config", str(config)]
        for key, value in sets.items():
            argv += ["--set", f"{key}={json.dumps(value)}"]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 1, 2), err.getvalue()
        if code == 2:
            assert sorted(root.iterdir()) == [config], err.getvalue()
            return
        statuses = [json.loads(path.read_text()) for path in sorted(out.rglob("status.json"))]
        assert statuses and any(not s["completed"] for s in statuses) == (code == 1), err.getvalue()
        for path in out.rglob("metrics.csv"):
            with path.open() as fh:
                rows = list(csv.DictReader(fh))
            assert all(math.isfinite(float(x)) for row in rows for x in row.values()), (path, rows)
