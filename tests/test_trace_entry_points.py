"""The per-layer tracer in perfbench/tracing.py times the simulator from outside.

It replaces the module globals of fedvarp_sim.harness and fedvarp_sim.cli
named in its entry-point tables, and skips a name that is missing. A
refactor that stops calling a layer through one of those globals would
drop that layer's spans without any error; this test catches it.

Two names are dropped by design. `substream`: a run derives its
sampling and noise streams as Philox key blocks, so harness no longer
looks substream up, and the tracer's rng.substream spans read zero.
`sample_round`: a run samples a chunk of rounds in one
sampling.sample_rounds call, so harness no longer looks sample_round up,
and the tracer's sampling spans, and the round times it takes from them,
read zero.
"""
import importlib.util
import json
from collections import Counter
from dataclasses import asdict
from pathlib import Path

from fedvarp_sim import cli, harness

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
DROPPED_BY_DESIGN = {(harness, "substream"), (harness, "sample_round")}


def _entry_point_tables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.HARNESS_ENTRY_POINTS, tracing.CLI_ENTRY_POINTS


def _counted(calls: Counter, key: str, fn):
    def counting(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return counting


def test_every_traced_entry_point_is_called(small_config, tmp_path, monkeypatch):
    harness_names, cli_names = _entry_point_tables()
    calls = Counter()
    expected = []
    assert DROPPED_BY_DESIGN <= {(harness, attr) for attr in harness_names}
    for module, attr in DROPPED_BY_DESIGN:
        assert not hasattr(module, attr)
    for module, names in ((harness, harness_names), (cli, cli_names)):
        for attr in names:
            if (module, attr) in DROPPED_BY_DESIGN:
                continue
            key = f"{module.__name__}.{attr}"
            expected.append(key)
            monkeypatch.setattr(module, attr, _counted(calls, key, getattr(module, attr)))

    noisy = dict(algo="clusterfedvarp", K=2, noise_sigma=0.3, T=3)
    harness.run(small_config(**noisy, output_dir=tmp_path / "run"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(asdict(small_config(T=3, output_dir=tmp_path / "sweep"))))
    argv = ["sweep", "--config", str(config), "--axis", "eta_c", "--values", "0.01,0.02"]
    assert cli.main(argv) == 0

    assert [key for key in expected if calls[key] == 0] == []


def test_the_benchmark_entry_points_exist():
    """perfbench/workloads.prepare calls these three; a missing one fails every benchmark run."""
    assert all(callable(fn) for fn in (harness.parse_config, harness.run, cli.main))
