"""Shared benchmark plumbing.

Each figure benchmark renders its paper-comparable table and both prints it
(visible with ``pytest -s``) and writes it to ``benchmarks/results/`` so a
benchmark run leaves reviewable artifacts next to the timing numbers.
Benchmarks that persist machine-readable ``BENCH_*.json`` reports write
them through :func:`write_bench_json`, which stamps :func:`provenance`
metadata (git commit, interpreter, platform, CPU counts, UTC timestamp) so
a checked-in number can always be traced to the tree and machine that
produced it.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import subprocess

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def publish(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{'=' * 72}\n{text}\n{'=' * 72}")


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO_ROOT,
        capture_output=True, text=True, timeout=10,
    ).stdout.strip()


def provenance() -> dict:
    """Where/when/on-what a benchmark number was produced."""
    try:
        commit = _git("rev-parse", "HEAD") or None
        # A report is written before its commit, so ``git_commit`` names
        # the parent of the tree that produced it when this is true.
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        commit = dirty = None
    try:
        usable_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        usable_cpus = os.cpu_count()
    return {
        "git_commit": commit,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus,
        "timestamp_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def write_bench_json(path, report: dict) -> None:
    """Persist a ``BENCH_*.json`` report with provenance stamped in."""
    stamped = dict(report)
    stamped["provenance"] = provenance()
    pathlib.Path(path).write_text(json.dumps(stamped, indent=2) + "\n")
