"""End-to-end benchmark of ``apreval run``.

Usage, from the root of a checkout::

    python3 bench/run.py --workload mini_per_rule --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the benchmark times whole ``python -m apreval.cli run``
child processes, one after the other (a closed loop with one client). Each
repetition sets up a fresh directory, then times a cold run on an empty
workspace, immediate reruns in which every stage is cached, and reruns
after a verdict-neutral edit to one repaired file. Repetitions continue
until ``--seconds`` is spent; each metric is the median of its samples.

With ``--trace 1`` it instead drives the pipeline in-process, one stage at a
time, and times calls into each module's public functions on the same
workspace (see ``layers.py``).

Every ``summary.json`` is checked against an answer derived from the
workload generator (see ``workloads.py``). The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when every check passed, 1 when a run failed
or a check did not hold, and 2 when the checkout holds no ``src/apreval``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import workloads  # noqa: E402

#: the end-to-end metrics, each the median of its samples in a run
UNITS = {"setup_s": "s", "cold_run_s": "s", "warm_run_s": "s", "incremental_run_s": "s",
         "peak_rss_mb": "MB"}


def measure_end_to_end(wl: workloads.Workload, seed: int, seconds: float, tally: harness.Tally) -> dict:
    """Closed-loop repetitions of set-up, cold, warm and incremental runs.

    Each repetition sets up a fresh directory and runs cold on it, then the
    warm and incremental reruns, for as long as the time budget allows.
    """
    samples: dict[str, list[float]] = {name: [] for name in UNITS}
    all_ran = dict.fromkeys(harness.STAGE_ORDER, "ran")
    all_cached = dict.fromkeys(harness.STAGE_ORDER, "cached")
    incremental = {s: "ran" if s in harness.INCREMENTAL_STAGES else "cached"
                   for s in harness.STAGE_ORDER}
    budget = harness.Budget(seconds)
    while budget.allows("cold"):
        with budget.step("cold"):
            dest, config, setups = harness.set_up(wl, seed)
            samples["setup_s"] += setups
            cold = harness.run_apreval(dest, config, wl.jobs)
        if tally.record(harness.check_run(wl, dest, cold, all_ran)):
            samples["cold_run_s"].append(cold.seconds)
            samples["peak_rss_mb"].append(cold.peak_rss_mb)
            # warm and incremental reruns alternate, so that each kind samples
            # the machine at several moments of the repetition
            for n in range(max(wl.warm_runs, wl.incremental_runs)):
                if n < wl.warm_runs and budget.allows("warm"):
                    with budget.step("warm"):
                        warm = harness.run_apreval(dest, config, wl.jobs)
                    if tally.record(harness.check_run(wl, dest, warm, all_cached)):
                        samples["warm_run_s"].append(warm.seconds)
                if n < wl.incremental_runs and budget.allows("incremental"):
                    with budget.step("incremental"):
                        workloads.verdict_neutral_edit(dest / "workspace", seed, n)
                        incr = harness.run_apreval(dest, config, wl.jobs)
                    if tally.record(harness.check_run(wl, dest, incr, incremental)):
                        samples["incremental_run_s"].append(incr.seconds)
        if tally.errors:
            break  # keep the directory for inspection
        shutil.rmtree(dest)
    return samples


def environment_info(wl: workloads.Workload, seed: int) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": wl.name,
        "seed": seed,
        "sizes": wl.sizes,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


def warm_up() -> None:
    """Import the package a few times so byte-code and file caches are filled."""
    for _ in range(3):
        subprocess.run([sys.executable, "-c", "import apreval.cli, apreval.stubs"],
                       env=harness.child_env(), check=True, timeout=harness.RUN_TIMEOUT)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark unwinds, so the runs it started are killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (workloads.SRC_DIR / "apreval" / "__init__.py").is_file():
        print(f"no apreval sources under {workloads.SRC_DIR}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    info = environment_info(wl, args.seed)
    print(f"workload {wl.name}, seed {args.seed}: {wl.why}")
    print("environment: " + json.dumps({k: v for k, v in info.items() if k not in ("workload", "seed")}))
    harness.RUNS_DIR.mkdir(exist_ok=True)
    warm_up()
    tally = harness.Tally()
    if args.trace:
        import layers

        metrics, record = layers.traced_run(wl, args.seed, args.seconds, tally)
        units = layers.UNITS
    else:
        samples = measure_end_to_end(wl, args.seed, args.seconds, tally)
        metrics = {name: statistics.median(v) for name, v in samples.items() if v}
        units = UNITS
        record = {"samples": samples}
        for name, values in samples.items():
            if values:
                print(f"{name:<18} {metrics[name]:.6f} {UNITS[name]:<2}  median of {len(values)}")
        ratio = tally.failed / tally.attempted if tally.attempted else 1.0
        print(f"{'ops_failed_ratio':<18} {ratio:.6f}     {tally.failed} of {tally.attempted} runs failed")
    for error in tally.errors:
        print(f"CHECK FAILED: {error}")
    correct = not tally.errors and set(metrics) == set(units)
    out = harness.RUNS_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**info, **record, "metrics": metrics, "errors": tally.errors},
                              indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"details: {out}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
