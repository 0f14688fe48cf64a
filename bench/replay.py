"""Replay tools for the ``large_files_replay`` workload.

``python replay.py <role> <input> <output> --data <replay dir>`` stands in
for an external analyzer, repairer, test runner, metric extractor or
compiler. It copies pre-generated results instead of computing them, so a
pipeline run spends its time in the harness's own analysis, not in tools.

Every generated source file starts with ``// replay-state: original`` or
``// replay-state: repaired``; each tool emits the recorded rows of that
state for exactly the files present in its input tree. The script uses
the standard library only and imports nothing from ``apreval``.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys
from pathlib import Path

STATE_PREFIX = "// replay-state: "
OUTPUTS = {
    "analyzer": "violations.csv",
    "test_runner": "results.csv",
    "metric_extractor": "class_metrics.csv",
}


def input_states(input_dir: Path) -> dict[str, str]:
    """Map each file's relative path to the state its first line records."""
    states = {}
    for path in sorted(input_dir.rglob("*.java")):
        with path.open(encoding="utf-8") as fh:
            first = fh.readline().rstrip("\n")
        if not first.startswith(STATE_PREFIX):
            raise SystemExit(f"{path}: no replay state marker")
        states[path.relative_to(input_dir).as_posix()] = first[len(STATE_PREFIX):]
    return states


def replay_rows(data: Path, name: str, states: dict[str, str], file_column: int, out: Path) -> None:
    """Write the recorded rows of ``name`` whose file is in ``states``."""
    with out.open("w", encoding="utf-8", newline="") as dst:
        writer = csv.writer(dst, lineterminator="\n")
        header_written = False
        for state in sorted(set(states.values())):
            with (data / state / name).open(encoding="utf-8", newline="") as src:
                reader = csv.reader(src)
                header = next(reader)
                if not header_written:
                    writer.writerow(header)
                    header_written = True
                writer.writerows(r for r in reader if states.get(r[file_column]) == state)
        if not header_written:
            raise SystemExit("input tree holds no source files")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=("analyzer", "repairer", "test_runner", "metric_extractor", "compiler"))
    parser.add_argument("input", type=Path)
    parser.add_argument("output", type=Path)
    parser.add_argument("--data", type=Path, required=True)
    args = parser.parse_args(argv)
    args.output.mkdir(parents=True, exist_ok=True)
    states = input_states(args.input)
    if args.role == "repairer":
        for rel in states:
            dest = args.output / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(args.data / "repaired" / "tree" / rel, dest)
    elif args.role == "compiler":
        records = []
        for state in sorted(set(states.values())):
            recorded = json.loads((args.data / state / "compile_results.json").read_text(encoding="utf-8"))
            records += [r for r in recorded if states.get(r["file"]) == state]
        (args.output / "compile_results.json").write_text(
            json.dumps(sorted(records, key=lambda r: r["file"]), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    else:
        file_column = 1 if args.role == "test_runner" else 0
        replay_rows(args.data, OUTPUTS[args.role], states, file_column, args.output / OUTPUTS[args.role])
    return 0


if __name__ == "__main__":
    sys.exit(main())
