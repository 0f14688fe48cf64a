"""Shared pieces of the benchmark: timed child runs, checks, set-up.

Used by ``run.py`` for the end-to-end metrics and by ``layers.py`` for the
traced run.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import workloads

RUNS_DIR = workloads.REPO_ROOT / ".bench_runs"
#: a child run that takes longer is killed and counted as failed
RUN_TIMEOUT = 150.0
STAGE_ORDER = (
    "prepare", "analyze_pre", "repair", "analyze_post", "fixrate",
    "newviol", "sample", "semantic", "metrics", "report",
)
#: stages that digest ``repair/output`` and so rerun after an edit there;
#: ``fixrate`` and ``report`` stay cached, because a verdict-neutral edit
#: leaves the contents of all their inputs unchanged
INCREMENTAL_STAGES = ("analyze_post", "newviol", "sample", "semantic", "metrics")
_STATUS_RE = re.compile(r"^(\w+)\s+(ran|cached|skipped.*)$")


def child_env() -> dict[str, str]:
    """Environment whose ``PYTHONPATH`` resolves ``apreval`` from any cwd.

    Adapter processes inherit it, so the run needs no installed package.
    """
    env = dict(os.environ)
    parts = [str(workloads.SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


@dataclass
class ChildRun:
    seconds: float
    returncode: int
    peak_rss_mb: float
    statuses: dict[str, str]


def run_apreval(workdir: Path, config: Path, jobs: int | None) -> ChildRun:
    """Time one ``apreval run`` child until it has exited.

    Dirty pages left by earlier runs slow file creation down by up to five
    times until they are written back, so every timed step starts after a
    ``sync``. The child runs in its own session, so a timeout can kill every
    adapter it started. ``wait4`` gives the peak RSS of the largest process
    in the child's tree.
    """
    cmd = [sys.executable, "-m", "apreval.cli", "run", "--config", str(config)]
    if jobs:
        cmd += ["--jobs", str(jobs)]
    log = workdir / "run.log"
    with log.open("wb") as out:
        os.sync()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(RUN_TIMEOUT, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: take the whole run down with us
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # adapters that outlived the run, if any
    statuses = {}
    for line in log.read_text(encoding="utf-8", errors="replace").splitlines():
        m = _STATUS_RE.match(line)
        if m:
            statuses[m.group(1)] = m.group(2)
    return ChildRun(seconds, proc.returncode, usage.ru_maxrss / 1024.0, statuses)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def check_run(wl: workloads.Workload, dest: Path, run: ChildRun, expect: dict[str, str]) -> list[str]:
    """Exit code, per-stage cache decisions and the summary of one run."""
    if run.returncode != 0:
        return [f"apreval run exited {run.returncode}: see {dest / 'run.log'}"]
    errors = []
    for stage in STAGE_ORDER:
        if run.statuses.get(stage) != expect[stage]:
            errors.append(f"stage {stage}: {run.statuses.get(stage)!r}, expected {expect[stage]!r}")
    summary = dest / "workspace" / "report" / "summary.json"
    if not summary.is_file():
        return errors + ["no report/summary.json"]
    return errors + wl.check_summary(dest, summary.read_bytes()) + wl.check_workspace(dest)


def fresh_dir(tag: str) -> Path:
    path = RUNS_DIR / "work" / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def set_up(wl: workloads.Workload, seed: int, min_seconds: float = 0.2,
           max_count: int = 200) -> tuple[Path, Path, list[float]]:
    """Set the workload up into fresh directories until ``min_seconds`` of
    set-up time is measured, so cheap set-ups still give a steady median.

    Returns the last directory, its config and every set-up time.
    """
    samples: list[float] = []
    while True:
        dest = fresh_dir(wl.name)
        os.sync()
        start = time.perf_counter()
        config = wl.setup(dest, seed)
        samples.append(time.perf_counter() - start)
        if sum(samples) >= min_seconds or len(samples) >= max_count:
            return dest, config, samples
        shutil.rmtree(dest)


class Budget:
    """A run's measuring time, spent one timed step at a time.

    A step may start when no step of its kind has been timed yet, or when the
    last one of its kind would still end before the deadline. So a run holds
    at least one step of each kind and stops close to its time limit.
    """

    def __init__(self, seconds: float) -> None:
        self.deadline = time.perf_counter() + seconds
        self._last: dict[str, float] = {}

    def allows(self, kind: str) -> bool:
        last = self._last.get(kind)
        return last is None or time.perf_counter() + last <= self.deadline

    @contextmanager
    def step(self, kind: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self._last[kind] = time.perf_counter() - start


class Tally:
    """Attempted and failed ``apreval run`` invocations with their errors."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0

    def record(self, errors: list[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)
        return not errors
