import builtins
import csv
import json
import re
import shutil
from pathlib import Path

import pytest

from apreval import minicorpus
from apreval import newviol as newviol_mod
from apreval.cli import main
from apreval.newviol import NEW_VIOLATIONS_HEADER
from apreval.pipeline import STAGE_ORDER
from apreval.sampling import SHEET_HEADER

from test_fixrate import golden_reports
from apreval.violations import CSV_HEADER, serialize_report


#: how the benchmark (``bench/harness.py``) reads a status line of ``apreval run``
STATUS_LINE = re.compile(r"^(\w+)\s+(ran|cached|skipped.*)$")


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_mini")
    config = minicorpus.materialize(root, seed=17)
    code = main(["run", "--config", str(config)])
    assert code == 0
    return root


class TestRun:
    def test_run_and_cached_rerun(self, mini, capsys):
        config = mini / "config.json"
        assert main(["run", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "cached" in out

    def test_status_lines_parse_on_every_kind_of_run(self, tmp_path, capsys):
        config = minicorpus.materialize(tmp_path, seed=17)
        incremental = {"analyze_post", "newviol", "sample", "semantic", "metrics"}
        runs = [
            ("cold", [], dict.fromkeys(STAGE_ORDER, "ran")),
            ("warm", [], dict.fromkeys(STAGE_ORDER, "cached")),
            ("incremental", [], {s: "ran" if s in incremental else "cached" for s in STAGE_ORDER}),
            ("forced", ["--force"], dict.fromkeys(STAGE_ORDER, "ran")),
        ]
        for kind, extra, expected in runs:
            if kind == "incremental":
                edited = tmp_path / "workspace" / "repair" / "output" / "EventBus.java"
                with edited.open("a", encoding="utf-8") as fh:
                    fh.write(" \n")
            assert main(["run", "--config", str(config), *extra]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[-1].startswith("workspace: ")
            matches = [STATUS_LINE.match(line) for line in lines[:-1]]
            assert all(matches), (kind, lines)
            assert dict(m.groups() for m in matches) == expected, kind

    def test_seed_and_workspace_override_the_config(self, tmp_path, capsys):
        config = minicorpus.materialize(tmp_path / "mini", seed=17)
        assert main(["run", "--config", str(config)]) == 0

        def run(*extra: str) -> dict[str, str]:
            capsys.readouterr()
            assert main(["run", "--config", str(config), *extra]) == 0
            lines = capsys.readouterr().out.splitlines()[:-1]
            return dict(STATUS_LINE.match(line).groups() for line in lines)

        def outputs(workspace: Path) -> dict[str, bytes]:
            return {p.relative_to(workspace).as_posix(): p.read_bytes() for p in sorted(workspace.rglob("*"))
                    if p.is_file() and p.name != "state.json" and not p.name.startswith("adapter_")}

        # the config's own seed changes no digest
        assert run("--seed", "17") == dict.fromkeys(STAGE_ORDER, "cached")
        # another seed draws another sample, and so another report
        reseeded = {"sample", "report"}
        assert run("--seed", "18") == {s: "ran" if s in reseeded else "cached" for s in STAGE_ORDER}
        assert run("--seed", "18") == dict.fromkeys(STAGE_ORDER, "cached")
        # both flags at once: a cold run elsewhere gives the same files
        fresh = tmp_path / "fresh"
        assert run("--seed", "18", "--workspace", str(fresh)) == dict.fromkeys(STAGE_ORDER, "ran")
        assert outputs(fresh) == outputs(tmp_path / "mini" / "workspace")
        assert json.loads(config.read_text(encoding="utf-8"))["seed"] == 17

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "c.json"
        bad.write_text('{"corpus_dir": "x"}', encoding="utf-8")
        assert main(["run", "--config", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        config = minicorpus.materialize(tmp_path, seed=17)
        assert main(["run", "--config", str(config), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == "config error: jobs: must be at least 1\n"
        assert not (tmp_path / "workspace" / "state.json").exists()

    def test_unknown_report_adapter_is_usage_error(self, tmp_path, capsys):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        doc = json.loads(config_path.read_text(encoding="utf-8"))
        doc["report_adapter"] = "nope"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == (
            "config error: report_adapter: must be one of ['analyzer-json', 'csv']\n"
        )
        assert not (tmp_path / "workspace" / "state.json").exists()

    @pytest.mark.parametrize("edit, message", [
        ({"sampling": {"confidence": 2.0}}, "sampling.confidence: must be one of [0.9, 0.95, 0.99]"),
        ({"sampling": {"margin": 0.0}}, "sampling.margin: must be in (0, 1)"),
        ({"report_adapter": "analyzer-json", "report_adapter_options": {"mapping": "nope"}},
         "report_adapter_options.mapping: unknown mapping 'nope'; known: sonarqube-9"),
    ])
    def test_value_a_stage_would_refuse_is_usage_error(self, tmp_path, capsys, edit, message):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        doc = json.loads(config_path.read_text(encoding="utf-8"))
        doc.update(edit)
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "workspace" / "state.json").exists()

    def test_malformed_analyzer_report_names_its_file(self, tmp_path, capsys):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        analyzer = tmp_path / "analyzer.py"
        analyzer.write_text(
            "import sys\n"
            "from pathlib import Path\n"
            f"Path(sys.argv[1], 'violations.csv').write_text({','.join(CSV_HEADER) + chr(10)!r} + 'A.java,S1118\\n')\n",
            encoding="utf-8",
        )
        doc = json.loads(config_path.read_text(encoding="utf-8"))
        doc["adapters"]["analyzer"]["command"] = f"{{python}} {analyzer} {{output}} {{input}}"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 2
        report = tmp_path / "workspace" / "analyze_pre" / "raw" / "violations.csv"
        assert capsys.readouterr().err == (
            f"stage failure: stage 'analyze_pre' failed: {report}: expected 7 fields, got 2 (line 2)\n"
        )

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1

    def test_adapter_failure_exit_code(self, tmp_path):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        doc = json.loads(config_path.read_text(encoding="utf-8"))
        doc["adapters"]["analyzer"]["command"] = (
            "{python} -c \"import sys;sys.exit(7)\" {input} {output}"
        )
        doc["adapters"]["analyzer"].pop("expected_artifacts", None)
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 3

    def test_missing_corpus_fails_prepare(self, tmp_path, capsys):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        corpus = (tmp_path / "corpus").resolve()
        shutil.rmtree(corpus)
        assert main(["run", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert f"stage 'prepare' failed: corpus directory does not exist: {corpus}" in err
        assert not (tmp_path / "workspace" / "state.json").exists()

    def test_stage_subset_with_missing_upstream(self, tmp_path):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        assert main(["run", "--config", str(config_path), "--stages", "fixrate"]) == 2

    def test_corrupt_state_reruns_every_stage(self, tmp_path, capsys):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        assert main(["run", "--config", str(config_path)]) == 0
        ws = tmp_path / "workspace"
        summary = (ws / "report" / "summary.json").read_bytes()
        state = ws / "state.json"
        state.write_bytes(state.read_bytes()[:40])
        capsys.readouterr()
        assert main(["run", "--config", str(config_path)]) == 0
        captured = capsys.readouterr()
        statuses = [line.split()[1] for line in captured.out.splitlines() if not line.startswith("workspace:")]
        assert statuses == ["ran"] * 10
        assert str(state) in captured.err
        assert (ws / "report" / "summary.json").read_bytes() == summary

    def test_truncated_stage_json_fails_the_report_naming_it(self, tmp_path, capsys):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        assert main(["run", "--config", str(config_path)]) == 0
        metrics_json = tmp_path / "workspace" / "metrics" / "metrics.json"
        metrics_json.write_text('{\n  "metrics": ', encoding="utf-8")
        capsys.readouterr()
        assert main(["run", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            f"stage failure: stage 'report' failed: {metrics_json}: invalid JSON: Expecting value (line 2)\n"
        )

    @pytest.mark.parametrize("stage, corrupt", [
        ("fixrate", lambda stages: stages.update(fixrate="garbage")),
        ("semantic", lambda stages: stages["semantic"]["steps"].update(baseline_raw="garbage")),
        ("newviol", lambda stages: stages["newviol"].update(files=7)),
    ], ids=["record-not-an-object", "step-not-an-object", "files-not-a-string"])
    def test_corrupt_record_reruns_its_stage(self, tmp_path, capsys, stage, corrupt):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        assert main(["run", "--config", str(config_path)]) == 0
        ws = tmp_path / "workspace"
        summary = (ws / "report" / "summary.json").read_bytes()
        state = ws / "state.json"
        doc = json.loads(state.read_text(encoding="utf-8"))
        corrupt(doc["stages"])
        state.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["run", "--config", str(config_path)]) == 0
        captured = capsys.readouterr()
        statuses = dict(line.split()[:2] for line in captured.out.splitlines() if not line.startswith("workspace:"))
        assert statuses[stage] == "ran"
        assert statuses["prepare"] == statuses["analyze_pre"] == "cached"
        assert f"{stage!r} record in {state}" in captured.err
        assert (ws / "report" / "summary.json").read_bytes() == summary


class TestFixrateCommand:
    def test_golden_fixture_through_cli(self, tmp_path, capsys):
        pre, post = golden_reports()
        pre_csv = tmp_path / "pre.csv"
        post_csv = tmp_path / "post.csv"
        pre_csv.write_text(serialize_report(pre), encoding="utf-8")
        post_csv.write_text(serialize_report(post), encoding="utf-8")
        out = tmp_path / "out"
        code = main([
            "fixrate", "--pre", str(pre_csv), "--post", str(post_csv),
            "--profile", "sorald-30", "--out", str(out),
        ])
        assert code == 0
        assert "97.0%" in capsys.readouterr().out
        assert (out / "fixrate.csv").is_file()
        assert (out / "fixrate.json").is_file()
        assert (out / "fixed_violations.csv").is_file()
        payload = json.loads((out / "fixrate.json").read_text())
        assert payload["overall"]["fixed_total"] == 3423


class TestNewviolCommand:
    def test_against_mini_corpus_workspace(self, mini, capsys):
        ws = mini / "workspace"
        out = mini / "nv_out"
        code = main([
            "newviol",
            "--pre", str(ws / "analyze_pre" / "pre_violations.csv"),
            "--post", str(ws / "analyze_post" / "post_violations.csv"),
            "--original", str(ws / "repair" / "input"),
            "--repaired", str(ws / "repair" / "output"),
            "--out", str(out),
        ])
        assert code == 0
        assert "5 classified new" in capsys.readouterr().out
        assert (out / "new_violations.csv").is_file()
        assert (out / "new_matrix.csv").is_file()
        assert (out / "new_frequency.csv").is_file()

    def test_builds_no_whole_corpus_verdict_list(self, mini, tmp_path, monkeypatch):
        # the verdicts go to the writer one file at a time, as in the stage
        def whole_corpus(*args, **kwargs):
            raise AssertionError("detect_new_violations was called")

        monkeypatch.setattr(newviol_mod, "detect_new_violations", whole_corpus)
        args = [str(a) for a in _axis_args(mini / "workspace")["newviol"]]
        assert main(["newviol", *args, "--out", str(tmp_path / "newviol")]) == 0


class TestSampleAndPrecision:
    def test_sample_sheet_then_precision(self, mini, tmp_path, capsys):
        ws = mini / "workspace"
        sheet = tmp_path / "sheet.csv"
        code = main([
            "sample",
            "--new-violations", str(ws / "newviol" / "new_violations.csv"),
            "--original", str(ws / "repair" / "input"),
            "--repaired", str(ws / "repair" / "output"),
            "--seed", "17",
            "--out", str(sheet),
        ])
        assert code == 0
        lines = sheet.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(SHEET_HEADER)
        assert len(lines) == 6  # header + the 5 sampled items

        # label every row TP except one FP, then test against 70%
        labeled = [lines[0]]
        for i, line in enumerate(lines[1:]):
            verdict = "FP" if i == 0 else "TP"
            assert line.endswith(",,,")
            labeled.append(line[:-3] + f",{verdict},{verdict},")
        labels = tmp_path / "labeled.csv"
        labels.write_text("\n".join(labeled) + "\n", encoding="utf-8")
        code = main(["precision", "--labels", str(labels), "--threshold", "0.70"])
        assert code == 0
        out = capsys.readouterr().out
        assert "true positives: 4/5" in out

    def test_unsupported_confidence_is_a_stage_error(self, mini, tmp_path, capsys):
        ws = mini / "workspace"
        code = main([
            "sample",
            "--new-violations", str(ws / "newviol" / "new_violations.csv"),
            "--original", str(ws / "repair" / "input"),
            "--repaired", str(ws / "repair" / "output"),
            "--seed", "17", "--confidence", "2",
            "--out", str(tmp_path / "sheet.csv"),
        ])
        assert code == 2
        assert "confidence must be one of [0.9, 0.95, 0.99], got 2.0" in capsys.readouterr().err

    @pytest.mark.parametrize("population", ["empty", "mini"])
    def test_parameters_are_checked_with_nothing_to_sample(self, mini, tmp_path, capsys, population):
        args = [str(a) for a in _axis_args(mini / "workspace")["sample"]]
        if population == "empty":
            new_csv = tmp_path / "new_violations.csv"
            new_csv.write_text(",".join(NEW_VIOLATIONS_HEADER) + "\n", encoding="utf-8")
            args[args.index("--new-violations") + 1] = str(new_csv)
        sheet = tmp_path / "sheet.csv"
        assert main(["sample", *args, "--confidence", "0.5", "--margin", "5", "--out", str(sheet)]) == 2
        assert capsys.readouterr().err == "error: margin must be in (0, 1), got 5.0\n"
        assert not sheet.exists()

    def test_missing_column_is_a_clear_error(self, mini, tmp_path, capsys):
        ws = mini / "workspace"
        text = (ws / "newviol" / "new_violations.csv").read_text(encoding="utf-8")
        bad = tmp_path / "new_violations.csv"
        bad.write_text(text.replace(",verdict,", ",label,", 1), encoding="utf-8")
        code = main([
            "sample",
            "--new-violations", str(bad),
            "--original", str(ws / "repair" / "input"),
            "--repaired", str(ws / "repair" / "output"),
            "--seed", "17",
            "--out", str(tmp_path / "sheet.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "missing column 'verdict'" in err

    def test_short_row_in_new_violations_is_a_clear_error(self, mini, tmp_path, capsys):
        ws = mini / "workspace"
        bad = tmp_path / "new_violations.csv"
        bad.write_text(
            ",".join(NEW_VIOLATIONS_HEADER) + "\nA.java,S1118,CodeSmell,Low,1,1,m,new,\nB.java,S1118\n",
            encoding="utf-8",
        )
        code = main([
            "sample",
            "--new-violations", str(bad),
            "--original", str(ws / "repair" / "input"),
            "--repaired", str(ws / "repair" / "output"),
            "--seed", "17",
            "--out", str(tmp_path / "sheet.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "(line 3)" in err
        assert not (tmp_path / "sheet.csv").exists()

    def test_over_long_field_in_new_violations_is_a_clear_error(self, mini, tmp_path, capsys):
        ws = mini / "workspace"
        text = (ws / "newviol" / "new_violations.csv").read_text(encoding="utf-8")
        bad = tmp_path / "new_violations.csv"
        bad.write_text(text + "A.java," + "x" * (csv.field_size_limit() + 1) + "\n", encoding="utf-8")
        code = main([
            "sample",
            "--new-violations", str(bad),
            "--original", str(ws / "repair" / "input"),
            "--repaired", str(ws / "repair" / "output"),
            "--seed", "17",
            "--out", str(tmp_path / "sheet.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_labels_are_a_clear_error(self, tmp_path, capsys):
        labels = tmp_path / "labeled.csv"
        row = ["item1", "A.java", "S1118", "1", "1", "x" * (csv.field_size_limit() + 1), "TP", "TP", ""]
        labels.write_text(",".join(SHEET_HEADER) + "\n" + ",".join(row) + "\n", encoding="utf-8")
        assert main(["precision", "--labels", str(labels)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "(line 2)" in err

    def test_seed_reproducibility(self, mini, tmp_path):
        ws = mini / "workspace"
        args = [
            "sample",
            "--new-violations", str(ws / "newviol" / "new_violations.csv"),
            "--original", str(ws / "repair" / "input"),
            "--repaired", str(ws / "repair" / "output"),
            "--seed", "41",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSemanticCommand:
    def test_on_mini_corpus_results(self, mini, tmp_path, capsys):
        ws = mini / "workspace"
        out = tmp_path / "sem_out"
        code = main([
            "semantic",
            "--baseline", str(ws / "semantic" / "baseline_raw" / "results.csv"),
            "--repaired", str(ws / "semantic" / "repaired_raw" / "results.csv"),
            "--compile-log", str(ws / "semantic" / "compile_raw"),
            "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "executed 35" in printed
        assert (out / "regressions.csv").is_file()
        assert (out / "failure_histogram.csv").is_file()
        assert (out / "compile_errors.csv").is_file()


    @pytest.mark.parametrize("results", [
        "[{",
        '{"file": "A.java", "ok": true}',
        '[{"file": "A.java", "diagnostic": ""}]',
        '[{"file": "A.java", "ok": false}]',
        '["A.java"]',
        '[{"file": "../outside.txt", "ok": true}]',
        '[{"file": "/abs/A.java", "ok": true}]',
        '[{"file": "", "ok": true}]',
        '[{"file": "./A.java", "ok": true}]',
        '[{"file": "A.java", "ok": true}, {"file": "A.java", "ok": false, "diagnostic": "d"}]',
    ], ids=["invalid-json", "not-a-list", "no-ok", "rejected-without-diagnostic", "not-an-object",
            "outside-the-corpus", "absolute", "empty", "not-normal", "listed-twice"])
    def test_malformed_compile_results_are_a_clear_error(self, mini, tmp_path, capsys, results):
        ws = mini / "workspace"
        log_dir = tmp_path / "compile"
        log_dir.mkdir()
        (log_dir / "compile_results.json").write_text(results, encoding="utf-8")
        code = main([
            "semantic",
            "--baseline", str(ws / "semantic" / "baseline_raw" / "results.csv"),
            "--repaired", str(ws / "semantic" / "repaired_raw" / "results.csv"),
            "--compile-log", str(log_dir),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "compile_results.json" in err


class TestMetricsCommand:
    def test_on_mini_corpus_extracts(self, mini, tmp_path, capsys):
        ws = mini / "workspace"
        out = tmp_path / "met_out"
        code = main([
            "metrics",
            "--pre", str(ws / "metrics" / "pre_raw" / "class_metrics.csv"),
            "--post", str(ws / "metrics" / "post_raw" / "class_metrics.csv"),
            "--out", str(out),
        ])
        assert code == 0
        assert "file pairs" in capsys.readouterr().out
        assert (out / "structural_stats.csv").is_file()
        assert (out / "metric_medians.csv").is_file()
        assert (out / "signed_ranks.csv").is_file()


def _axis_args(ws):
    """Each axis command's flags, pointed at its pipeline stage's own inputs."""
    return {
        "fixrate": [
            "--pre", ws / "analyze_pre" / "pre_violations.csv",
            "--post", ws / "analyze_post" / "post_violations.csv",
            "--violating-files", ws / "repair" / "violating_files.txt",
        ],
        "newviol": [
            "--pre", ws / "analyze_pre" / "pre_violations.csv",
            "--post", ws / "analyze_post" / "post_violations.csv",
            "--original", ws / "repair" / "input",
            "--repaired", ws / "repair" / "output",
        ],
        "semantic": [
            "--baseline", ws / "semantic" / "baseline_raw" / "results.csv",
            "--repaired", ws / "semantic" / "repaired_raw" / "results.csv",
            "--compile-log", ws / "semantic" / "compile_raw",
        ],
        "metrics": [
            "--pre", ws / "metrics" / "pre_raw" / "class_metrics.csv",
            "--post", ws / "metrics" / "post_raw" / "class_metrics.csv",
        ],
        "sample": [
            "--new-violations", ws / "newviol" / "new_violations.csv",
            "--original", ws / "repair" / "input",
            "--repaired", ws / "repair" / "output",
            "--seed", "17",
        ],
    }


#: the whole stdout of each axis command on the mini workspace
AXIS_STDOUT = {
    "fixrate": (
        "rule      violations   fixed    rate\n"
        "S2164              4       1   25.0%\n"
        "S1068              3       3    100%\n"
        "S1118              3       2   66.7%\n"
        "S1481              3       3    100%\n"
        "S1132              1       1    100%\n"
        "S1444              1       1    100%\n"
        "S1854              1       1    100%\n"
        "S1948              1       1    100%\n"
        "S2057              1       1    100%\n"
        "S2095              1       1    100%\n"
        "S2142              1       1    100%\n"
        "S2184              1       1    100%\n"
        "S2755              1       1    100%\n"
        "overall           22      18   81.8%\n"
        "\n"
    ),
    "newviol": "16 post-repair violations, 5 classified new\n",
    "sample": "sampled 5 of 5 new violations across 4 rules\n",
    "semantic": "executed 35, failed 9, pass rate 74.3%, uncompilable files 1\n",
    "metrics": "11 file pairs (1 excluded); significant at 0.05: none\n",
}


class TestAxisStdout:
    @pytest.mark.parametrize("command", list(AXIS_STDOUT))
    def test_prints_exactly(self, mini, tmp_path, capsys, command):
        args = [str(a) for a in _axis_args(mini / "workspace")[command]]
        capsys.readouterr()
        assert main([command, *args, "--out", str(tmp_path / command)]) == 0
        assert capsys.readouterr().out == AXIS_STDOUT[command]

    def test_violating_files_with_crlf_line_ends(self, mini, tmp_path, capsys):
        # a list written by hand on Windows reads as the stage's own
        ws = mini / "workspace"
        crlf = tmp_path / "violating_files.txt"
        crlf.write_bytes((ws / "repair" / "violating_files.txt").read_bytes().replace(b"\n", b"\r\n"))
        args = [str(a) for a in _axis_args(ws)["fixrate"]]
        args[args.index("--violating-files") + 1] = str(crlf)
        capsys.readouterr()
        assert main(["fixrate", *args, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out == AXIS_STDOUT["fixrate"]


class TestInputDirectoryMissing:
    @pytest.mark.parametrize("command, flag", [
        ("newviol", "--repaired"), ("sample", "--repaired"), ("semantic", "--compile-log"),
    ])
    def test_is_a_usage_error_that_names_it(self, mini, tmp_path, capsys, command, flag):
        # read as it is, a missing repaired tree holds every file deleted, and
        # a missing log directory no file that failed to compile
        args = [str(a) for a in _axis_args(mini / "workspace")[command]]
        missing = tmp_path / "missing"
        args[args.index(flag) + 1] = str(missing)
        capsys.readouterr()
        assert main([command, *args, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", f"file not found: {missing} is not a directory\n")
        assert not (tmp_path / "out").exists()


class TestMalformedReport:
    @pytest.mark.parametrize("flag", ["--pre", "--post"])
    @pytest.mark.parametrize("command", ["fixrate", "newviol"])
    def test_error_names_the_file(self, mini, tmp_path, capsys, command, flag):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(CSV_HEADER) + "\nA.java,S1118\n", encoding="utf-8")
        args = [str(a) for a in _axis_args(mini / "workspace")[command]]
        args[args.index(flag) + 1] = str(bad)
        assert main([command, *args, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {bad}: expected 7 fields, got 2 (line 2)\n"

    @pytest.mark.parametrize("flag", ["--pre", "--post"])
    def test_blank_required_field_names_the_file(self, mini, tmp_path, capsys, flag):
        bad = tmp_path / "bad.csv"
        bad.write_text(",".join(CSV_HEADER) + "\nA.java,,CodeSmell,Low,1,1,\n", encoding="utf-8")
        args = [str(a) for a in _axis_args(mini / "workspace")["fixrate"]]
        args[args.index(flag) + 1] = str(bad)
        assert main(["fixrate", *args, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {bad}: missing required field 'rule' (line 2)\n"


class TestInputNotUtf8:
    @pytest.mark.parametrize("command, flag, name", [
        ("fixrate", "--pre", None),
        ("fixrate", "--violating-files", None),
        ("sample", "--new-violations", None),
        ("semantic", "--baseline", None),
        ("metrics", "--post", None),
        ("semantic", "--compile-log", "compile_results.json"),
        ("semantic", "--compile-log", "Broken.log"),
        ("precision", "--labels", None),
        ("newviol", "--original", "EventBus.java"),  # a file with post findings, so it is read
        ("run", "--config", None),
    ])
    def test_is_named_with_its_line(self, mini, tmp_path, capsys, command, flag, name):
        # the file, or the file ``name`` in the directory, that the flag
        # names gets a byte that is not UTF-8 on its second line
        ws = mini / "workspace"
        labels = tmp_path / "labels.csv"
        labels.write_text(",".join(SHEET_HEADER) + "\n", encoding="utf-8")
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "Broken.log").write_text("error: cannot find symbol\n", encoding="utf-8")
        args = {
            **_axis_args(ws),
            "sample": ["--new-violations", ws / "newviol" / "new_violations.csv", "--original", ws / "repair" / "input",
                       "--repaired", ws / "repair" / "output", "--seed", "17"],
            "precision": ["--labels", labels],
            "run": ["--config", mini / "config.json"],
        }[command]
        args = [str(a) for a in args]
        if name == "Broken.log":
            args[args.index(flag) + 1] = str(logs)
        i = args.index(flag) + 1
        (tmp_path / "copy").mkdir()
        copy = tmp_path / "copy" / Path(args[i]).name
        (shutil.copytree if name else shutil.copyfile)(args[i], copy)
        args[i] = str(copy)
        bad = copy / name if name else copy
        head, _, rest = bad.read_bytes().partition(b"\n")
        bad.write_bytes(head + b"\n\xff" + rest)
        out = [] if command in ("precision", "run") else ["--out", str(tmp_path / "out")]
        assert main([command, *args, *out]) == (1 if command == "run" else 2)
        err = capsys.readouterr().err
        assert f"{bad}: " in err
        assert "can't decode byte 0xff" in err
        assert command == "run" or err.endswith("(line 2)\n")


class TestCompilerWithoutResults:
    @pytest.mark.parametrize("role, stub, stage, tree, artifact", [
        ("compiler", "compiler", "prepare", "corpus", "compile_results.json"),
        ("compiler", "compiler", "semantic", "output", "compile_results.json"),
        ("test_runner", "testrunner", "semantic", "input", "results.csv"),
        ("test_runner", "testrunner", "semantic", "output", "results.csv"),
        ("metric_extractor", "metrics", "metrics", "input", "class_metrics.csv"),
        ("metric_extractor", "metrics", "metrics", "output", "class_metrics.csv"),
    ])
    def test_is_an_adapter_failure_in_each_stage(self, tmp_path, capsys, role, stub, stage, tree, artifact):
        # a tool that exits 0 without writing its file for one tree (prepare
        # compiles the corpus; semantic and metrics read repair/input and
        # repair/output) and declares no artifact, so the stage finds it missing
        config_path = minicorpus.materialize(tmp_path, seed=17)
        wrapper = tmp_path / "tool.py"
        wrapper.write_text(
            "import subprocess, sys\n"
            "from pathlib import Path\n"
            f"subprocess.run([sys.executable, '-m', 'apreval.stubs', {stub!r}, *sys.argv[1:]], check=True)\n"
            f"if Path(sys.argv[1]).name == {tree!r}:\n"
            f"    Path(sys.argv[2], {artifact!r}).unlink()\n",
            encoding="utf-8",
        )
        doc = json.loads(config_path.read_text(encoding="utf-8"))
        doc["adapters"][role] = {"command": f"{{python}} {wrapper} {{input}} {{output}}"}
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [f"adapter failure: adapter {role!r} did not produce expected artifact {artifact!r}"]
        ws = tmp_path / "workspace"
        state = json.loads((ws / "state.json").read_text(encoding="utf-8"))
        assert state["stages"].pop(stage)["status"] == "failed"
        # the stages that ended before it keep their records and outputs
        assert all(record["status"] == "ok" and (ws / name).is_dir() for name, record in state["stages"].items())
        assert stage == "prepare" or "repair" in state["stages"]


class TestStageParity:
    """An axis command writes what its pipeline stage writes, byte for byte."""

    @staticmethod
    def _assert_out_dir_matches(ws, out, stage):
        args = [str(a) for a in _axis_args(ws)[stage]]
        assert main([stage, *args, "--out", str(out)]) == 0
        stage_files = sorted(p.name for p in (ws / stage).iterdir() if p.is_file())
        assert stage_files
        assert sorted(p.name for p in out.iterdir()) == stage_files
        for name in stage_files:
            assert (out / name).read_bytes() == (ws / stage / name).read_bytes(), name

    @pytest.mark.parametrize("stage", ["fixrate", "newviol", "semantic", "metrics"])
    def test_out_dir_matches_stage_dir(self, mini, tmp_path, stage):
        self._assert_out_dir_matches(mini / "workspace", tmp_path / stage, stage)

    def test_newviol_reads_each_judged_source_once(self, mini, tmp_path, monkeypatch):
        # only files with post findings are judged; notes.txt needs no source read
        ws = mini / "workspace"
        trees = [ws / "repair" / "input", ws / "repair" / "output"]
        reads = []
        read_bytes, open_ = Path.read_bytes, builtins.open

        def spy(read):
            def counted(path, *args, **kwargs):
                if not isinstance(path, int) and any(Path(path).is_relative_to(tree) for tree in trees):
                    reads.append(Path(path))
                return read(path, *args, **kwargs)
            return counted

        # a source is read as text, or as bytes after a fault
        monkeypatch.setattr(Path, "read_bytes", spy(read_bytes))
        monkeypatch.setattr(builtins, "open", spy(open_))
        args = [str(a) for a in _axis_args(ws)["newviol"]]
        assert main(["newviol", *args, "--out", str(tmp_path / "newviol")]) == 0
        with (ws / "analyze_post" / "post_violations.csv").open(encoding="utf-8", newline="") as fh:
            judged = {row["file"] for row in csv.DictReader(fh)}
        assert sorted(reads) == sorted(tree / rel for rel in judged for tree in trees if (tree / rel).is_file())

    def test_pre_findings_outside_the_repaired_files_are_left_out(self, tmp_path):
        # a pre finding in a file that was not sent to repair
        config = minicorpus.materialize(tmp_path, seed=17)
        assert main(["run", "--config", str(config)]) == 0
        ws = tmp_path / "workspace"
        with (ws / "analyze_pre" / "pre_violations.csv").open("a", encoding="utf-8") as fh:
            fh.write("Extra.java,S1118,CodeSmell,Low,3,3,probe\n")
        assert main(["run", "--config", str(config)]) == 0
        for stage in ("fixrate", "newviol"):
            self._assert_out_dir_matches(ws, tmp_path / stage, stage)

    def test_sample_sheet_matches_stage(self, mini, tmp_path):
        ws = mini / "workspace"
        seed = json.loads((mini / "config.json").read_text(encoding="utf-8"))["seed"]
        sheet = tmp_path / "sheet.csv"
        code = main([
            "sample",
            "--new-violations", str(ws / "newviol" / "new_violations.csv"),
            "--original", str(ws / "repair" / "input"),
            "--repaired", str(ws / "repair" / "output"),
            "--seed", str(seed),
            "--out", str(sheet),
        ])
        assert code == 0
        assert sheet.read_bytes() == (ws / "sample" / "sheet.csv").read_bytes()


class TestReportCommand:
    def test_emits_summary(self, mini, capsys):
        ws = mini / "workspace"
        code = main(["report", "--workspace", str(ws)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fixrate"]["overall"]["pre_total"] == 22
        assert (ws / "report" / "summary.json").is_file()

    def test_truncated_fixrate_json_names_its_file_and_line(self, tmp_path, capsys):
        fixrate_json = tmp_path / "fixrate" / "fixrate.json"
        fixrate_json.parent.mkdir()
        fixrate_json.write_text('{\n  "overall": ', encoding="utf-8")
        assert main(["report", "--workspace", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {fixrate_json}: invalid JSON: Expecting value (line 2)\n"

    def test_empty_workspace_fails_cleanly(self, tmp_path, capsys):
        code = main(["report", "--workspace", str(tmp_path)])
        assert code == 2
        assert "fixrate" in capsys.readouterr().err
