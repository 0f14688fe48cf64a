"""Tests of the benchmark itself: generators, checks and cross-checks.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
The workloads are shrunk here; the checks are the ones the benchmark uses.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import layers  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


def small_replicated() -> workloads.ReplicatedCorpus:
    return workloads.ReplicatedCorpus(replicas=3)


def small_large() -> workloads.LargeFilesReplay:
    return workloads.LargeFilesReplay(files=8, lines=300, findings=30, tests=16)


@pytest.fixture(autouse=True)
def runs_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "RUNS_DIR", tmp_path / "runs")
    return tmp_path / "runs"


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            text = path.read_bytes().replace(str(root.resolve()).encode(), b"<root>")
            h.update(text)
    return h.hexdigest()


@pytest.mark.parametrize("make", [workloads.MiniPerRule, small_replicated, small_large])
def test_generators_are_deterministic_per_seed(make, tmp_path):
    wl = make()
    digests = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        wl.setup(tmp_path / name, seed)
        digests[name] = tree_digest(tmp_path / name)
    assert digests["a"] == digests["b"]
    if not isinstance(wl, workloads.MiniPerRule):  # its summary is pinned
        assert digests["a"] != digests["c"]


@pytest.mark.parametrize("make", [small_replicated, small_large])
@pytest.mark.parametrize("seed", [3, 1234])
def test_other_seeds_pass_every_check(make, seed):
    tally = harness.Tally()
    samples = bench.measure_end_to_end(make(), seed, 0.0, tally)
    assert tally.errors == []
    assert tally.attempted == 3  # with no time left, one run of each kind
    assert all(samples[name] for name in bench.UNITS)


def test_mini_per_rule_other_seed_and_tampered_digest(monkeypatch, capsys):
    wl = workloads.WORKLOADS["mini_per_rule"]
    monkeypatch.setattr(wl, "warm_runs", 1)
    monkeypatch.setattr(wl, "incremental_runs", 1)
    assert bench.main(["--workload", wl.name, "--seed", "99", "--seconds", "0", "--trace", "0"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is True

    monkeypatch.setattr(workloads, "MINI_SUMMARY_SHA256", "0" * 64)
    assert bench.main(["--workload", wl.name, "--seed", "99", "--seconds", "0", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


def test_replica_renaming_is_consistent():
    texts = workloads.replicate_texts(workloads.mini_corpus_texts(), "R00042")
    shapes = texts["ShapesR00042.java"]
    assert "public class ShapesR00042 {" in shapes
    assert "class CircleR00042 extends ShapesR00042 {" in shapes
    assert len(texts) == 12
    assert all(name.endswith("R00042.java") for name in texts)


def test_edit_avoids_deleted_and_broken_files(tmp_path):
    output = tmp_path / "repair" / "output"
    output.mkdir(parents=True)
    (output / "Empty.java").write_text("", encoding="utf-8")
    (output / "Broken.java").write_text("class B {}\n// @broken: cannot find symbol\n", encoding="utf-8")
    (output / "Fine.java").write_text("class F {}\n", encoding="utf-8")
    for seed in range(5):
        assert workloads.edit_target(tmp_path, seed).name == "Fine.java"
    workloads.verdict_neutral_edit(tmp_path, 0, 0)
    workloads.verdict_neutral_edit(tmp_path, 0, 1)
    assert (output / "Fine.java").read_text(encoding="utf-8") == "class F {}\n \n  \n"


def test_layer_calls_are_cross_checked(tmp_path):
    sys.path.insert(0, str(workloads.SRC_DIR))
    from apreval.pipeline import load_config, run_pipeline

    wl = small_large()
    config = load_config(wl.setup(tmp_path / "w", 5))
    run_pipeline(config)
    values = layers._layer_calls(wl, 5, config, tmp_path / "w", layers.Tracer())
    assert values["newviol.verdicts_new"] > 0
    assert values["newviol.verdicts_key"] > 0
    assert values["newviol.verdicts_fragment"] > 0

    new_csv = config.workspace_dir / "newviol" / "new_violations.csv"
    with new_csv.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("verdict")
    flipped = next(r for r in rows[1:] if r[column] == "new")
    flipped[column] = "not_new_key_match"
    with new_csv.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    run_pipeline(config, stages=["report"])  # keeps the stage digests consistent
    with pytest.raises(layers.Mismatch, match="exact verdict counts"):
        layers._layer_calls(wl, 5, config, tmp_path / "w", layers.Tracer())


def test_benchmark_json_names_every_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.UNITS


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mini_per_rule", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
