"""Output directories, a run's manifest, and the files a run or a sweep writes into them.

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
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .aggregators import cluster_miss_probability
from .config import RunConfig
from .core import CLUSTERFEDVARP, ConfigError, lr_precondition_report
from .objectives import Federation, FederationConstants, federation_constants

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
    missing = {}  # each directory of dirs -> those of it and its parents not there yet, parents first
    seen = set()  # every directory checked so far
    try:
        for path, stale in dirs.items():
            p = Path(path)
            if any((p / name).is_dir() and not (p / name).is_symlink() for name in stale):
                raise IsADirectoryError("a directory is in the way of an artifact")
            missing[path] = []
            for q in (p, *p.parents):  # an existing directory's parents exist, and a seen one's are checked
                if q in seen:
                    break
                seen.add(q)
                if q.is_dir():
                    break
                if q.exists() or q.is_symlink():
                    raise NotADirectoryError("a file is in the way")
                missing[path].insert(0, q)
        for path, new in missing.items():
            for q in new:
                if not q.is_dir():  # an alias such as "a/.." exists once "a" is made
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


def build_manifest(cfg: RunConfig, fed: Federation, consts: FederationConstants, assignment) -> dict:
    """manifest.json of a run of cfg on fed, whose constants are consts; assignment is clusterfedvarp's, else None."""
    N, K = cfg.federation.N, cfg.algo.K
    p = None
    if cfg.algo.name == CLUSTERFEDVARP and N % K == 0:
        p = cluster_miss_probability(N, N // K, cfg.hyper.M)
    sigma_K_sq = consts.sigma_K_sq
    if assignment is not None and K != cfg.federation.K_true:
        # Report the heterogeneity of the clustering the aggregator actually
        # uses; with K == K_true it is the generator's, whose value consts holds.
        sigma_K_sq = federation_constants(fed, assignment).sigma_K_sq
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
