"""Sweeps: one run per value of one config axis, as one harness.run_many list, and their floor summary."""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import artifacts
from .config import RunConfig, sweep_point
from .core import ConfigError, DivergenceError
from .harness import RunResult, run_many


def floor_estimate(grads: np.ndarray) -> float:
    """Mean of the last 20% of a run's logged grad_norm_sq values (RunResult.metrics[:, 0])."""
    if not len(grads):
        raise ConfigError("no logged rows to estimate a floor from")
    k = max(1, len(grads) // 5)
    return float(np.mean(grads[-k:]))


@dataclass
class SweepResult:
    results: list[RunResult]
    summary_path: Path | None


def sweep(base: RunConfig, axis: str, values: list, write_artifacts: bool = True) -> SweepResult:
    """Run one point per value and write a floor summary CSV.

    The points are one run_many list, so the points of a sigma_g_scale
    sweep share a stack and every other axis runs in stacks of one. Each
    point's artifacts are those of its solo run, byte for byte; a
    ConfigError of a point's config or preparation names its value, and
    then nothing is made.

    A divergent point does not stop the sweep: its result has
    completed=False, and its summary row leaves the floor columns empty
    and names the aborted round. The summary's value column is the value
    the point's config holds, so "FedAvg" reads fedavg.
    """
    if not values:
        raise ConfigError("sweep needs at least one value")
    points = []
    try:
        for point, value in enumerate(values):
            points.append(sweep_point(base, axis, value, point))
        point = None  # run_many's errors hold their point, if they have one
        outcomes = run_many([cfg for cfg, _ in points], write_artifacts, _sweep_dir=base.output_dir)
    except (ConfigError, MemoryError) as exc:
        point = getattr(exc, "point", point)
        if point is None:  # an output directory; it names itself
            raise
        raise ConfigError(f"sweep point {axis}={values[point]!r}: {exc}") from exc
    results = [out.result if isinstance(out, DivergenceError) else out for out in outcomes]
    rows = []
    for (cfg, held), res in zip(points, results):
        if res.completed:
            grads = res.metrics[:, 0]
            tail = (floor_estimate(grads), float(grads.min()), float(grads[-1]), "true", "")
        else:
            tail = ("", "", "", "false", res.aborted_round)
        rows.append((axis, held, cfg.seed, res.manifest["constants"]["sigma_g_sq"], *tail))
    summary_path = None
    if write_artifacts:
        summary_path = Path(base.output_dir) / artifacts.SUMMARY_FILE
        artifacts.write_csv(summary_path, artifacts.SUMMARY_HEADER, rows)
    return SweepResult(results=results, summary_path=summary_path)
