"""Output directories and the files a run or a sweep writes into them.

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

import json
from contextlib import suppress
from pathlib import Path

from .core import ConfigError

RUN_ARTIFACTS = ("manifest.json", "metrics.csv", "status.json")
SUMMARY_FILE = "sweep_summary.csv"
METRICS_HEADER = "round,grad_norm_sq,global_loss,dist_to_opt_sq"
METRICS_ROW = "%d,%.17g,%.17g,%.17g\n"
SUMMARY_HEADER = (
    "axis,value,seed,sigma_g_sq,floor_grad_norm_sq,min_grad_norm_sq,final_grad_norm_sq,"
    "completed,aborted_round"
)


def make_output_dirs(dirs: dict) -> None:
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


def write_run_artifacts(result) -> None:
    """The manifest.json, metrics.csv (a METRICS_ROW per logged row) and status.json of an ended RunResult, if any."""
    out = result.output_dir
    if out is None:
        return
    manifest, metrics, status = RUN_ARTIFACTS
    _write_json(out / manifest, result.manifest)
    with open(out / metrics, "w", encoding="utf-8", newline="") as fh:  # the bytes write_csv gives the rows
        fh.write(METRICS_HEADER + "\n")
        fh.writelines(METRICS_ROW % (t, *row) for t, row in zip(result.rounds.tolist(), result.metrics.tolist()))
    _write_json(out / status, {"completed": result.completed, "aborted_round": result.aborted_round})


def _write_json(path: Path, payload: dict) -> None:
    """payload as indented JSON, formed in one json.dumps call and written in one write."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_csv(path: Path, header: str, rows) -> None:
    """The header, then one line per row: floats as .17g (read back exactly), the rest as str."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row) + "\n")
