"""Fast checks of the benchmark itself.

Run from the repository root: python3 -m pytest -q perfbench
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracing import self_times, tail_percentile  # noqa: E402
from workloads import WORKLOADS, import_program, prepare  # noqa: E402

ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_metric_names_and_units_match_the_spec():
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert declared == table, section
        for name, unit in declared.items():
            assert NAME.fullmatch(name) and len(name) <= 64, name
            assert UNIT.fullmatch(unit), (name, unit)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_every_ratio_has_its_base_in_the_same_report():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name in table:
            if "ratio" in name or "_per_" in name:
                assert run.RATIO_BASES.get(name) in table, name


def test_gate_fails_when_a_digest_is_tampered(tmp_path):
    cli, harness = import_program()
    workload = WORKLOADS["floor-sweep"]
    recorded = json.loads(run.DIGESTS_PATH.read_text())["floor-sweep"]["0"]
    jobs = workload.jobs(0, tmp_path)
    calls = {job.label: prepare(job, cli, harness) for job in jobs}

    honest = run.Gate(recorded)
    run.run_pass(calls, jobs, honest)
    assert (honest.attempted, honest.failed) == (20, 0), honest.errors

    tampered = dict(recorded)
    key = sorted(tampered)[0]
    tampered[key] = "0" * 64
    gate = run.Gate(tampered)
    run.run_pass(calls, jobs, gate)
    assert (gate.attempted, gate.failed) == (20, 1)
    assert key in gate.errors[0]


def test_self_time_subtracts_children():
    # name, start, end, parent, run id
    spans = [["a", 0, 100, -1, 0], ["b", 10, 30, 0, 0], ["c", 40, 90, 0, 0], ["d", 50, 60, 2, 0]]
    assert self_times(spans, 0, 4) == [30, 20, 40, 10]


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert tail_percentile(9) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(120) == 90.0
    assert tail_percentile(2000) == 99.0


@pytest.mark.parametrize("trace, table", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_run_prints_every_metric_and_a_passing_gate(trace, table):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "floor-sweep", "--seed", "0",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == table


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "floor-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
