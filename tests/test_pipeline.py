import builtins
import errno
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apreval import minicorpus, pipeline, stages, violations
from apreval import newviol as newviol_mod
from apreval import sampling as sampling_mod
from apreval import semantic as semantic_mod
from apreval.cli import main
from apreval.errors import (
    AdapterTimeoutError,
    ConfigError,
    MissingArtifactError,
    MissingStageOutputError,
    NonZeroExitError,
    StageFailureError,
    WorkspaceLockedError,
)
from apreval.pipeline import (
    CORPUS,
    STAGE_ORDER,
    STAGES,
    PipelineConfig,
    PipelineRun,
    SamplingParams,
    ToolAdapter,
    _adapter_env,
    digest_paths,
    emit_reports,
    load_config,
    run_pipeline,
    run_tool_adapter,
    split_lines,
)
from apreval.stages import prepare_corpus_violating
from apreval.violations import SORALD_30, StateLabel

from conftest import mkreport, mkviol

PY = sys.executable

#: sha256 of the mini-corpus ``report/summary.json`` (seed 17)
MINI_SUMMARY_SHA256 = "cd2c4f24d5c2ff3c612b3e9a5125eded5d715061edc71a86daf3283a2f4389af"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # a killed orphan can linger as a zombie until its new parent reaps it
    stat = Path(f"/proc/{pid}/stat")
    try:
        return stat.read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


def write_config(path: Path, **overrides):
    doc = {
        "corpus_dir": "corpus",
        "workspace_dir": "workspace",
        "adapters": {
            "analyzer": {"command": "{python} -m apreval.stubs analyzer {input} {output}",
                         "expected_artifacts": ["violations.csv"]},
            "repairer": {"command": "{python} -m apreval.stubs repairer {input} {output}"},
            "test_runner": {"command": "{python} -m apreval.stubs testrunner {input} {output}",
                            "expected_artifacts": ["results.csv"]},
            "metric_extractor": {"command": "{python} -m apreval.stubs metrics {input} {output}",
                                 "expected_artifacts": ["class_metrics.csv"]},
            "compiler": {"command": "{python} -m apreval.stubs compiler {input} {output}",
                         "expected_artifacts": ["compile_results.json"]},
        },
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_minimal_config_gets_defaults(self, tmp_path):
        (tmp_path / "corpus").mkdir()
        config = load_config(write_config(tmp_path / "c.json"))
        assert config.sampling == SamplingParams(0.95, 0.05, 0.5)
        assert config.seed == 0
        assert config.profile == "sorald-30"
        assert config.corpus_dir == tmp_path / "corpus"

    def test_missing_role_rejected(self, tmp_path):
        doc = {
            "corpus_dir": "corpus",
            "workspace_dir": "ws",
            "adapters": {"repairer": {"command": "x {input}"}},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "adapters.analyzer" in str(err.value)

    def test_skip_role_accepted(self, tmp_path):
        path = write_config(
            tmp_path / "c.json",
            adapters={
                "analyzer": {"command": "a {input} {output}"},
                "repairer": {"command": "r {input} {output}"},
                "test_runner": "skip",
                "metric_extractor": "skip",
                "compiler": "skip",
            },
        )
        config = load_config(path)
        assert config.adapters["test_runner"] is None
        assert config.adapters["analyzer"] is not None

    def test_zero_timeout_rejected(self, tmp_path):
        path = write_config(
            tmp_path / "c.json",
            adapters={
                "analyzer": {"command": "a {input}", "timeout": 0},
                "repairer": "skip", "test_runner": "skip",
                "metric_extractor": "skip", "compiler": "skip",
            },
        )
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "timeout" in str(err.value)

    def test_unknown_keys_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.json", extra_knob=1)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "extra_knob" in str(err.value)

    def test_unknown_report_adapter_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path / "c.json", report_adapter="nope"))
        assert err.value.key_path == "report_adapter"
        assert "must be one of ['analyzer-json', 'csv']" in str(err.value)
        config = load_config(write_config(tmp_path / "c.json", report_adapter="analyzer-json"))
        assert config.report_adapter == "analyzer-json"

    @pytest.mark.parametrize("key_path, value", [
        ("sampling.confidence", {"sampling": {"confidence": 2.0}}),
        ("sampling.confidence", {"sampling": {"confidence": 0.8}}),
        ("sampling.margin", {"sampling": {"margin": 0.0}}),
        ("sampling.margin", {"sampling": {"margin": 1}}),
        ("sampling.proportion", {"sampling": {"proportion": -0.5}}),
        ("report_adapter_options.mapping",
         {"report_adapter": "analyzer-json", "report_adapter_options": {"mapping": "nope"}}),
        ("report_adapter_options.mapping",
         {"report_adapter": "analyzer-json", "report_adapter_options": {"mapping": ["sonarqube-9"]}}),
        ("report_adapter_options.end_line_fallback",
         {"report_adapter": "analyzer-json", "report_adapter_options": {"end_line_fallback": "false"}}),
        # an option the chosen adapter does not read: misspelled, or for csv, any
        ("report_adapter_options.end_line_fallbak",
         {"report_adapter": "analyzer-json", "report_adapter_options": {"end_line_fallbak": True}}),
        ("report_adapter_options.anything", {"report_adapter_options": {"anything": 1}}),
    ])
    def test_value_a_stage_would_refuse_is_rejected(self, tmp_path, key_path, value):
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path / "c.json", **value))
        assert err.value.key_path == key_path
        # the csv adapter reads no option, so a mapping is refused before it is looked up
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path / "c.json", report_adapter_options={"mapping": "nope"}))
        assert str(err.value) == "report_adapter_options.mapping: the 'csv' report adapter takes no option"

    def test_options_the_adapter_reads_are_accepted(self, tmp_path):
        options = {"mapping": "sonarqube-9", "end_line_fallback": True}
        config = load_config(write_config(tmp_path / "c.json", report_adapter="analyzer-json",
                                          report_adapter_options=options))
        assert config.report_adapter_options == options
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path / "c.json", report_adapter="analyzer-json",
                                     report_adapter_options={**options, "end_line_fallbak": True}))
        assert str(err.value) == (
            "report_adapter_options.end_line_fallbak: "
            "the 'analyzer-json' report adapter takes only end_line_fallback, mapping"
        )

    @pytest.mark.parametrize("artifact", ["/outside.csv", "../../../outside.csv", "raw/../../outside.csv"])
    def test_artifact_outside_the_output_directory_rejected(self, tmp_path, capsys, artifact):
        path = write_config(tmp_path / "c.json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["adapters"]["analyzer"]["expected_artifacts"] = [artifact]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.key_path == "adapters.analyzer.expected_artifacts"
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"config error: adapters.analyzer.expected_artifacts: {artifact!r} is not a relative path under {{output}}\n"
        )
        with pytest.raises(ConfigError):
            ToolAdapter(name="analyzer", command_template="tool {input} {output}", expected_artifacts=(artifact,))

    def test_artifact_in_a_subdirectory_accepted(self, tmp_path):
        adapter = ToolAdapter(name="analyzer", command_template="tool {input}", expected_artifacts=("out/a..b.csv",))
        assert adapter.expected_artifacts == ("out/a..b.csv",)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, tmp_path, jobs):
        (tmp_path / "corpus").mkdir()
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path / "c.json", jobs=jobs))
        assert err.value.key_path == "jobs"
        config = load_config(write_config(tmp_path / "c.json"))
        with pytest.raises(ConfigError) as err:
            PipelineRun(config, jobs=jobs)
        assert err.value.key_path == "jobs"

    @pytest.mark.parametrize("key_path, edit", [
        ("adapters.analyzer.expected_artifacts",
         lambda doc: doc["adapters"]["analyzer"].update(expected_artifacts="violations.csv")),
        ("adapters.analyzer.timeout", lambda doc: doc["adapters"]["analyzer"].update(timeout="abc")),
        ("adapters.analyzer.timeout", lambda doc: doc["adapters"]["analyzer"].update(timeout=True)),
        ("adapters.analyzer.timeout", lambda doc: doc["adapters"]["analyzer"].update(timeout=float("nan"))),
        ("sampling.margin", lambda doc: doc.update(sampling={"margin": float("inf")})),
        ("adapters.analyzer.command", lambda doc: doc["adapters"]["analyzer"].update(command=["a", "{input}"])),
        ("jobs", lambda doc: doc.update(jobs="two")),
        ("jobs", lambda doc: doc.update(jobs=2.0)),
        ("seed", lambda doc: doc.update(seed=1.7)),
        ("sampling", lambda doc: doc.update(sampling=[0.9])),
        ("sampling.confidence", lambda doc: doc.update(sampling={"confidence": "x"})),
        ("report_adapter_options", lambda doc: doc.update(report_adapter_options=[1, 2])),
        ("corpus_dir", lambda doc: doc.update(corpus_dir=3)),
        ("workspace_dir", lambda doc: doc.update(workspace_dir=None)),
        ("profile", lambda doc: doc.update(profile=30)),
    ])
    def test_wrongly_typed_value_rejected(self, tmp_path, capsys, key_path, edit):
        (tmp_path / "corpus").mkdir()
        path = write_config(tmp_path / "c.json", sampling={"confidence": 0.9, "margin": 0.1}, seed=3, jobs=2)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["adapters"]["analyzer"]["timeout"] = 60
        path.write_text(json.dumps(doc), encoding="utf-8")
        load_config(path)  # an int is a number too
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.key_path == key_path
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key_path}")

    def test_template_without_input_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ToolAdapter(name="analyzer", command_template="tool --fast")

    def test_unknown_placeholder_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ToolAdapter(name="analyzer", command_template="tool {input} {outut}")

    def test_rule_placeholder_outside_the_repairer_rejected(self, tmp_path, capsys):
        # only the repairer's passes fill in {rule}
        path = write_config(tmp_path / "c.json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["adapters"]["analyzer"]["command"] += " --rule {rule}"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.key_path == "adapters.analyzer.command"
        assert main(["run", "--config", str(path)]) == 1
        assert "{rule} is filled in for the repairer alone" in capsys.readouterr().err

    def test_template_that_cannot_be_split_rejected(self, tmp_path, capsys):
        # refused at load, before any stage runs
        path = write_config(tmp_path / "c.json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["adapters"]["metric_extractor"]["command"] = "{python} -m apreval.stubs metrics '{input} {output}"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.key_path == "adapters.metric_extractor.command"
        assert main(["run", "--config", str(path)]) == 1
        assert "cannot be split into arguments: No closing quotation" in capsys.readouterr().err

    def test_template_with_a_lone_brace_rejected(self):
        # str.format could not fill it in
        with pytest.raises(ConfigError) as err:
            ToolAdapter(name="analyzer", command_template="tool {input} }")
        assert err.value.key_path == "adapters.analyzer.command"
        assert "Single '}' encountered" in str(err.value)


class TestRunToolAdapter:
    def test_copy_stub_produces_manifest(self, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        (src / "a.txt").write_text("alpha", encoding="utf-8")
        (src / "b.txt").write_text("beta", encoding="utf-8")
        adapter = ToolAdapter(
            name="copier",
            command_template=f"{PY} -c \"import shutil,sys;"
            + "shutil.copytree(sys.argv[1], sys.argv[2], dirs_exist_ok=True)\" {input} {output}",
            expected_artifacts=("a.txt",),
        )
        run_tool_adapter(adapter, src, tmp_path / "out")
        assert sorted(p.name for p in (tmp_path / "out").iterdir() if not p.name.startswith("adapter_")) == [
            "a.txt", "b.txt"]
        assert (tmp_path / "out" / "b.txt").read_text(encoding="utf-8") == "beta"

    def test_timeout_enforced(self, tmp_path):
        (tmp_path / "in").mkdir()
        adapter = ToolAdapter(
            name="sleeper",
            command_template=f"{PY} -c \"import time;time.sleep(5)\" {{input}}",
            timeout=0.3,
        )
        with pytest.raises(AdapterTimeoutError):
            run_tool_adapter(adapter, tmp_path / "in", tmp_path / "out")

    def test_timeout_kills_grandchildren(self, tmp_path):
        (tmp_path / "in").mkdir()
        forker = tmp_path / "forker.py"
        forker.write_text(
            "import subprocess, sys, time\n"
            "from pathlib import Path\n"
            "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'],\n"
            "                         stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)\n"
            "Path(sys.argv[1], 'grandchild.pid').write_text(str(child.pid))\n"
            "time.sleep(60)\n",
            encoding="utf-8",
        )
        adapter = ToolAdapter(
            name="forker",
            command_template=f"{PY} {forker} {{output}} {{input}}",
            timeout=1.0,
        )
        started = time.monotonic()
        with pytest.raises(AdapterTimeoutError):
            run_tool_adapter(adapter, tmp_path / "in", tmp_path / "out")
        assert time.monotonic() - started < 10.0
        pid = int((tmp_path / "out" / "grandchild.pid").read_text())
        try:
            deadline = time.monotonic() + 5.0
            while _pid_alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _pid_alive(pid)
        finally:
            if _pid_alive(pid):
                os.kill(pid, signal.SIGKILL)

    def test_nonzero_exit_carries_stderr(self, tmp_path):
        (tmp_path / "in").mkdir()
        adapter = ToolAdapter(
            name="crasher",
            command_template=f"{PY} -c \"import sys;sys.stderr.write('boom');sys.exit(2)\" {{input}}",
        )
        with pytest.raises(NonZeroExitError) as err:
            run_tool_adapter(adapter, tmp_path / "in", tmp_path / "out")
        assert err.value.returncode == 2
        assert "boom" in err.value.stderr

    def test_missing_artifact(self, tmp_path):
        (tmp_path / "in").mkdir()
        adapter = ToolAdapter(
            name="lazy",
            command_template=f"{PY} -c pass {{input}}",
            expected_artifacts=("report.csv",),
        )
        with pytest.raises(MissingArtifactError):
            run_tool_adapter(adapter, tmp_path / "in", tmp_path / "out")

    def test_logs_captured(self, tmp_path):
        (tmp_path / "in").mkdir()
        adapter = ToolAdapter(
            name="talker",
            command_template=f"{PY} -c \"print('hello from tool')\" {{input}}",
        )
        run_tool_adapter(adapter, tmp_path / "in", tmp_path / "out")
        assert "hello from tool" in (tmp_path / "out" / "adapter_stdout.log").read_text()


def test_a_stage_is_a_tool_stage_when_its_body_is_a_generator_function():
    import inspect

    assert list(stages.BODIES) == list(STAGE_ORDER)
    bodies = [stages.BODIES[stage.name] for stage in STAGES]
    flags = [inspect.isgeneratorfunction(getattr(body, "func", body)) for body in bodies]
    assert [stage.tools for stage in STAGES] == flags
    assert [stage.name for stage in STAGES if stage.tools] == [
        "prepare", "analyze_pre", "repair", "analyze_post", "semantic", "metrics"]


class TestPrepareViolating:
    def test_no_profile_violations_gives_empty(self):
        report = mkreport([mkviol(rule="S9999")], StateLabel.PRE_REPAIR)
        assert prepare_corpus_violating(["A.java"], report, SORALD_30) == []

    def test_three_of_seven_retained(self):
        files = [f"F{i}.java" for i in range(7)]
        entries = [mkviol(file_id=f"F{i}.java", rule="S1118") for i in (1, 3, 5)]
        entries.append(mkviol(file_id="F0.java", rule="S9999"))  # out of profile
        report = mkreport(entries, StateLabel.PRE_REPAIR)
        assert prepare_corpus_violating(files, report, SORALD_30) == [
            "F1.java", "F3.java", "F5.java",
        ]

    def test_uncompilable_files_not_selected(self):
        report = mkreport([mkviol(file_id="Bad.java", rule="S1118")], StateLabel.PRE_REPAIR)
        assert prepare_corpus_violating(["Good.java"], report, SORALD_30) == []


class TestListFiles:
    @pytest.mark.parametrize("text, names", [
        ("", []),
        ("A.java\nB.java\n", ["A.java", "B.java"]),
        ("A.java\nB.java", ["A.java", "B.java"]),
        ("A.java\r\nB.java\r\n", ["A.java", "B.java"]),
        ("A.java\n\n", ["A.java", ""]),
        ("Ut\u2028ils.java\nF\x0c\x85.java\n", ["Ut\u2028ils.java", "F\x0c\x85.java"]),
    ])
    def test_split_on_newline_alone(self, text, names):
        assert split_lines(text) == names

    def test_name_with_a_unicode_line_break_is_repaired_then_cached(self, tmp_path):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        corpus = tmp_path / "corpus"
        shutil.copyfile(corpus / "Utils.java", corpus / "Ut\u2028ils.java")
        cfg = load_config(config_path)
        assert set(run_pipeline(cfg).values()) == {"ran"}
        assert (cfg.workspace_dir / "repair" / "input" / "Ut\u2028ils.java").is_file()
        assert set(run_pipeline(cfg).values()) == {"cached"}

    @pytest.mark.parametrize("name", ["Ut\nils.java", "Ut\rils.java"])
    def test_name_with_a_newline_fails_prepare(self, tmp_path, name):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        corpus = tmp_path / "corpus"
        shutil.copyfile(corpus / "Utils.java", corpus / name)
        with pytest.raises(StageFailureError) as err:
            run_pipeline(load_config(config_path))
        assert str(err.value) == f"stage 'prepare' failed: corpus file name holds a line break: {name!r}"


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    """One full pipeline run over the bundled corpus, shared by read-only tests."""
    root = tmp_path_factory.mktemp("mini")
    config = minicorpus.materialize(root, seed=17)
    cfg = load_config(config)
    summary = run_pipeline(cfg)
    return root, cfg, summary


class TestMiniCorpusRun:
    def test_all_stages_ran(self, mini_run):
        _, _, summary = mini_run
        assert all(status == "ran" for status in summary.values())
        assert list(summary) == [
            "prepare", "analyze_pre", "repair", "analyze_post", "fixrate",
            "newviol", "sample", "semantic", "metrics", "report",
        ]

    def test_workspace_layout(self, mini_run):
        root, cfg, _ = mini_run
        ws = cfg.workspace_dir
        for name in ("fixrate/fixrate.csv", "newviol/new_violations.csv",
                     "sample/sheet.csv", "semantic/semantic.json",
                     "metrics/structural_stats.csv", "report/summary.json"):
            assert (ws / name).is_file(), name

    def test_rerun_is_fully_cached(self, mini_run):
        root, cfg, _ = mini_run
        summary = run_pipeline(cfg)
        assert all(status == "cached" for status in summary.values())

    def test_paths_with_a_space_and_a_quote(self, tmp_path):
        # each substituted path stays one argument of the adapter call
        cfg = load_config(minicorpus.materialize(tmp_path / "it's a dir", seed=17))
        run_pipeline(cfg)
        summary = cfg.workspace_dir / "report" / "summary.json"
        assert hashlib.sha256(summary.read_bytes()).hexdigest() == MINI_SUMMARY_SHA256

    def test_fresh_workspace_is_byte_identical(self, mini_run, tmp_path):
        root, cfg, _ = mini_run
        config2 = minicorpus.materialize(tmp_path, seed=17)
        cfg2 = load_config(config2)
        run_pipeline(cfg2)
        a = (cfg.workspace_dir / "report" / "summary.json").read_bytes()
        b = (cfg2.workspace_dir / "report" / "summary.json").read_bytes()
        assert a == b

    def test_editing_repaired_file_reruns_only_downstream(self, mini_run):
        root, cfg, _ = mini_run
        target = cfg.workspace_dir / "repair" / "output" / "EventBus.java"
        original = target.read_text(encoding="utf-8")
        try:
            target.write_text(original + "// touched\n", encoding="utf-8")
            summary = run_pipeline(cfg)
            assert summary["prepare"] == "cached"
            assert summary["analyze_pre"] == "cached"
            assert summary["repair"] == "cached"  # its own inputs are unchanged
            assert summary["analyze_post"] == "ran"
            assert summary["semantic"] == "ran"
        finally:
            target.write_text(original, encoding="utf-8")
            run_pipeline(cfg)  # restore downstream outputs

    def test_force_reruns_everything(self, mini_run):
        root, cfg, _ = mini_run
        summary = run_pipeline(cfg, force=True)
        assert all(status == "ran" for status in summary.values())

    def test_forced_rerun_is_byte_identical(self, mini_run):
        _, cfg, _ = mini_run
        before = _workspace_bytes(cfg)
        summary = run_pipeline(cfg, force=True)
        assert set(summary.values()) == {"ran"}
        assert _workspace_bytes(cfg) == before

    def test_summary_sections_present(self, mini_run):
        _, cfg, _ = mini_run
        summary = json.loads((cfg.workspace_dir / "report" / "summary.json").read_text())
        assert set(summary) == {"fixrate", "newviol", "sample", "semantic", "metrics"}
        assert summary["fixrate"]["overall"]["pre_total"] == 22
        assert summary["newviol"]["total_new"] == 5
        assert summary["semantic"]["executed"] == 35
        assert summary["semantic"]["uncompilable_files"] == 1

    def test_seed_threads_into_sample_stage(self, mini_run, tmp_path):
        _, cfg, _ = mini_run
        config2 = minicorpus.materialize(tmp_path, seed=99)
        cfg2 = load_config(config2)
        run_pipeline(cfg2)
        alloc1 = json.loads((cfg.workspace_dir / "sample" / "allocation.json").read_text())
        alloc2 = json.loads((cfg2.workspace_dir / "sample" / "allocation.json").read_text())
        assert alloc1["seed"] == 17
        assert alloc2["seed"] == 99

    def test_stage_filter_runs_subset(self, mini_run):
        _, cfg, _ = mini_run
        summary = run_pipeline(cfg, stages=["fixrate", "report"])
        assert set(summary) == {"fixrate", "report"}

    def test_each_run_reports_only_its_own_stages(self, tmp_path):
        run = PipelineRun(load_config(minicorpus.materialize(tmp_path, seed=17)))
        assert run.run(["prepare", "analyze_pre"]) == {"prepare": "ran", "analyze_pre": "ran"}
        assert run.run(["repair"]) == {"repair": "ran"}

    def test_jobs_parallelism_gives_same_outputs(self, mini_run, tmp_path):
        _, cfg, _ = mini_run
        config2 = minicorpus.materialize(tmp_path, seed=17)
        cfg2 = load_config(config2)
        run_pipeline(cfg2, jobs=4)
        a = (cfg.workspace_dir / "report" / "summary.json").read_bytes()
        b = (cfg2.workspace_dir / "report" / "summary.json").read_bytes()
        assert a == b


def _rglob_files(root: Path) -> list[Path]:
    return [p for p in sorted(root.rglob("*")) if p.is_file()]


def _spy_stage_inputs(monkeypatch) -> dict[str, tuple[list[Path], str]]:
    """Record the inputs and config fingerprint each stage digests."""
    calls: dict[str, tuple[list[Path], str]] = {}
    run_stage = PipelineRun._run_stage

    def spy(self, stage):
        calls[stage.name] = (stage.inputs(self), stage.extra(self))
        return run_stage(self, stage)

    monkeypatch.setattr(PipelineRun, "_run_stage", spy)
    return calls


def _assert_digests_match_reference(cfg, calls) -> None:
    state = json.loads((cfg.workspace_dir / "state.json").read_text(encoding="utf-8"))
    assert set(calls) == set(state["stages"])
    for name, (inputs, extra) in calls.items():
        record = state["stages"][name]
        assert record["input_digest"] == digest_paths(inputs, extra), name
        assert record["output_digest"] == digest_paths([cfg.workspace_dir / name]), name


@pytest.fixture(scope="module")
def digest_run(tmp_path_factory):
    """A cold run over the bundled corpus, with the inputs each stage digested."""
    root = tmp_path_factory.mktemp("digest")
    cfg = load_config(minicorpus.materialize(root, seed=17))
    with pytest.MonkeyPatch.context() as m:
        calls = _spy_stage_inputs(m)
        run_pipeline(cfg)
    return cfg, calls


class TestDigestPaths:
    def test_walk_matches_sorted_rglob(self, tmp_path):
        root = tmp_path / "tree"
        for rel in ("a/b", "a.x", "a/c/d/e.txt", "a-b/f", "B/g", "z", ".hidden"):
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(rel, encoding="utf-8")
        (root / "empty" / "nested_empty").mkdir(parents=True)
        (root / "a" / "c" / "empty").mkdir()
        (root / "link_dir").symlink_to(root / "a", target_is_directory=True)
        (root / "a" / "link_file").symlink_to(root / "z")
        (root / "dangling").symlink_to(root / "missing")

        walked = list(pipeline._walk_files(str(root)))
        expected = _rglob_files(root)
        assert [rel for rel, _ in walked] == [p.relative_to(root).as_posix() for p in expected]
        assert [path for _, path in walked] == [str(p) for p in expected]
        assert "a/link_file" in dict(walked)
        assert not any(rel.startswith("link_dir") for rel, _ in walked)

    def test_digest_hashes_names_then_file_sha256(self, tmp_path):
        tree = tmp_path / "tree"
        (tree / "a").mkdir(parents=True)
        (tree / "a" / "b").write_bytes(b"bee")
        (tree / "a.x").write_bytes(b"")
        single = tmp_path / "single.csv"
        single.write_bytes(b"x,y\n")

        def framed(data: bytes) -> bytes:
            return len(data).to_bytes(8, "big") + data

        h = hashlib.sha256()
        for p in _rglob_files(tree):
            h.update(framed(p.relative_to(tree).as_posix().encode()))
            h.update(hashlib.sha256(p.read_bytes()).digest())
        h.update(framed(b"single.csv") + hashlib.sha256(b"x,y\n").digest())
        h.update(framed(b"cfg"))
        assert digest_paths([tree, single], "cfg") == h.hexdigest()

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            digest_paths([tmp_path / "nope"])

    def test_stage_digests_are_pinned(self, digest_run):
        # the spy records whatever the code passes; only fixed values catch a
        # reordered input list or fingerprint, which would rerun every
        # existing workspace
        cfg, _ = digest_run
        state = json.loads((cfg.workspace_dir / "state.json").read_text(encoding="utf-8"))
        digests = {name: record["input_digest"] for name, record in state["stages"].items()}
        assert digests == {
            "prepare": "d6b5ac4fcb507c05365c9998ca27155633b717fa71845457a4c30dc11bcdb5d5",
            "analyze_pre": "500d9ea92b7e8f00cdf9044ca73512ccbbecdc24e966921253a382711666357f",
            "repair": "26c6f521f78335171da6fe2509ae0829a24de5d4a5fd57eb16a9651b2f7222fb",
            "analyze_post": "dff9a735d3dd87a6780501bef81f8337ec74650c18c3a1471c69e5fc0ab1a20f",
            "fixrate": "9b1ae9c9a5c15f55593640dc4b8ced816872030b9f9078af9900702f3a411e5b",
            "newviol": "5045cff7bf83dd8ef6bd372675c490e12129be043d72667a1309916d633186b3",
            "sample": "7dd6a9c3d09e37c84be6bd41a4285507a3608ed8093d89e3e79601f928c5c58a",
            "semantic": "22930cf765a9b3c97ec7ccbb8d7571b980ee6a94bbd7d039b34d628c72e4c76b",
            "metrics": "104c56d12c16ecc5ac44a9300831143fd84f4a992e44fecefec055dc93e178fd",
            "report": "94b3d44a541de92149be30ddf9b4695835eae4840f5e4a40d5e4761a8af39b2e",
        }

    def test_outputs_outside_the_digests_are_pinned(self, digest_run):
        # the input digests pin every stage output read by a later stage;
        # these files are read by none, so only their bytes catch a changed layout
        cfg, _ = digest_run
        hashes = {
            rel: hashlib.sha256((cfg.workspace_dir / rel).read_bytes()).hexdigest()
            for rel in ("fixrate/fixrate.csv", "fixrate/fixed_violations.csv",
                        "prepare/rejected.json", "report/summary.json")
        }
        assert hashes == {
            "fixrate/fixrate.csv": "63f39035cde77a24381636f194eaf208a5bd67310d48c9c2510ec7df59d482ff",
            "fixrate/fixed_violations.csv": "2af69530dfe60b5f229a9b16090d9f1ad2eff9944011699b69515f3151d423be",
            "prepare/rejected.json": "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356",
            "report/summary.json": "cd2c4f24d5c2ff3c612b3e9a5125eded5d715061edc71a86daf3283a2f4389af",
        }

    def test_stage_digests_match_memoless_reference(self, digest_run, monkeypatch):
        cfg, cold_calls = digest_run
        assert len(cold_calls) == len(STAGE_ORDER)
        _assert_digests_match_reference(cfg, cold_calls)
        warm_calls = _spy_stage_inputs(monkeypatch)
        summary = run_pipeline(cfg)
        assert all(status == "cached" for status in summary.values())
        _assert_digests_match_reference(cfg, warm_calls)

    def test_warm_run_hashes_each_file_once(self, digest_run, monkeypatch):
        cfg, calls = digest_run
        hashed: Counter[str] = Counter()
        file_sha256 = pipeline._file_sha256

        def counting(path):
            hashed[path] += 1
            return file_sha256(path)

        monkeypatch.setattr(pipeline, "_file_sha256", counting)
        summary = run_pipeline(cfg)
        assert all(status == "cached" for status in summary.values())
        expected = set()
        for inputs, _ in calls.values():
            for path in inputs:
                expected.update(map(str, _rglob_files(path)) if path.is_dir() else [str(path)])
        assert set(hashed) == expected
        assert set(hashed.values()) == {1}

    def test_adapter_write_reaches_later_digests(self, tmp_path, monkeypatch):
        # a test runner that also writes into repair/output, outside its own
        # stage: the metrics stage after it must digest the changed tree
        config_path = minicorpus.materialize(tmp_path, seed=17)
        repair_out = tmp_path / "workspace" / "repair" / "output"
        meddler = tmp_path / "meddler.py"
        meddler.write_text(
            "import subprocess, sys\n"
            "from pathlib import Path\n"
            "subprocess.run([sys.executable, '-m', 'apreval.stubs', 'testrunner', sys.argv[1], sys.argv[2]],\n"
            "               check=True)\n"
            "Path(sys.argv[3], 'added.txt').write_text('added', encoding='utf-8')\n"
            "with Path(sys.argv[3], 'EventBus.java').open('a', encoding='utf-8') as fh:\n"
            "    fh.write('// meddled\\n')\n",
            encoding="utf-8",
        )
        doc = json.loads(config_path.read_text(encoding="utf-8"))
        doc["adapters"]["test_runner"]["command"] = f"{PY} {meddler} {{input}} {{output}} {repair_out}"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        cfg = load_config(config_path)
        calls = _spy_stage_inputs(monkeypatch)
        run_pipeline(cfg)
        assert (repair_out / "added.txt").is_file()
        state = json.loads((cfg.workspace_dir / "state.json").read_text(encoding="utf-8"))
        inputs, extra = calls["metrics"]
        assert state["stages"]["metrics"]["input_digest"] == digest_paths(inputs, extra)

    def test_in_process_stages_hash_each_file_once(self, digest_run, monkeypatch):
        # these bodies start no adapter, so each forgets only its own directory
        cfg, _ = digest_run
        hashed: Counter[str] = Counter()
        file_sha256 = pipeline._file_sha256

        def counting(path):
            hashed[path] += 1
            return file_sha256(path)

        monkeypatch.setattr(pipeline, "_file_sha256", counting)
        summary = run_pipeline(cfg, force=True, stages=["fixrate", "newviol", "sample", "report"])
        assert set(summary.values()) == {"ran"}
        assert hashed
        assert set(hashed.values()) == {1}

    def test_cold_run_reads_each_source_once(self, tmp_path, monkeypatch):
        # newviol reads the source pair of each file with post-repair
        # findings once, and sample reads the repaired file of each file it
        # drew once more, and no original; no other source file is read
        cfg = load_config(minicorpus.materialize(tmp_path, seed=17))
        repair = cfg.workspace_dir / "repair"
        trees = {repair / "input", repair / "output"}
        read: Counter[Path] = Counter()
        read_bytes, open_ = Path.read_bytes, builtins.open

        def counting(read_file):
            def counted(path, *args, **kwargs):
                if isinstance(path, (str, os.PathLike)) and trees.intersection(Path(path).parents):
                    read[Path(path)] += 1
                return read_file(path, *args, **kwargs)
            return counted

        # a source is read as text, or as bytes after a fault
        monkeypatch.setattr(Path, "read_bytes", counting(read_bytes))
        monkeypatch.setattr(builtins, "open", counting(open_))
        run = PipelineRun(cfg)
        summary = run.run()
        assert summary["newviol"] == summary["sample"] == "ran"
        assert run._handoffs == {}
        post = violations.read_report(cfg.workspace_dir / "analyze_post" / "post_violations.csv",
                                      StateLabel.POST_REPAIR)
        needed = {v.file_id for v in post.entries}
        sheet = (cfg.workspace_dir / "sample" / "sheet.csv").read_bytes().decode("utf-8")
        sampled = {row[1] for _, row in violations.read_csv_table(sheet, sampling_mod.SHEET_HEADER)}
        assert sampled and sampled <= needed
        expected: Counter[Path] = Counter()
        for rel in needed:
            expected[repair / "input" / rel] = 1
            if (repair / "output" / rel).is_file():
                expected[repair / "output" / rel] = 1 + (rel in sampled)
        assert read == expected
        assert len(expected) < len(_rglob_files(repair))

    def test_cold_run_keeps_at_most_two_source_pairs_alive(self, tmp_path, monkeypatch):
        # newviol and sample each build one file's pair at a time and keep
        # none: while the next is built, only the one just judged may be alive
        cfg = load_config(minicorpus.materialize(tmp_path, seed=17))
        alive: weakref.WeakSet = weakref.WeakSet()
        built: list[tuple[str, int]] = []  # each pair's file, and how many others were alive then
        from_texts = newviol_mod.SourcePair.from_texts.__func__

        def tracking(cls, rel, *texts):
            pair = from_texts(cls, rel, *texts)
            built.append((rel, len(alive)))
            alive.add(pair)
            return pair

        monkeypatch.setattr(newviol_mod.SourcePair, "from_texts", classmethod(tracking))
        summary = run_pipeline(cfg)
        assert summary["newviol"] == summary["sample"] == "ran"
        assert max(others for _, others in built) <= 1
        files = [rel for rel, _ in built]
        assert len(files) > len(set(files)) > 2  # sample builds again the pairs of the files it drew


def _count_parses(monkeypatch) -> list[int]:
    """Record one entry per ``parse_report`` call the pipeline makes.

    The analyze stages look it up in ``violations`` as they run, and every
    other reader goes through ``violations.read_report``, which does too.
    """
    calls: list[int] = []
    parse_report = violations.parse_report

    def counting(*args, **kwargs):
        calls.append(1)
        return parse_report(*args, **kwargs)

    monkeypatch.setattr(violations, "parse_report", counting)
    return calls


def _workspace_bytes(cfg, logs: bool = False) -> dict[str, bytes]:
    """Every workspace file but ``state.json`` and, unless asked for, the adapter logs."""
    return {
        p.relative_to(cfg.workspace_dir).as_posix(): p.read_bytes()
        for p in _rglob_files(cfg.workspace_dir)
        if p.name != "state.json" and (logs or not p.name.startswith("adapter_"))
    }


IN_PROCESS_STAGES = ["fixrate", "newviol", "sample", "report"]


@pytest.fixture(scope="module")
def parsed_run(tmp_path_factory):
    """A cold run over the bundled corpus, counting its report parses."""
    cfg = load_config(minicorpus.materialize(tmp_path_factory.mktemp("parsed"), seed=17))
    with pytest.MonkeyPatch.context() as m:
        parses = _count_parses(m)
        run = PipelineRun(cfg)
        summary = run.run()
    return cfg, run, summary, len(parses)


def _drop_first_finding(cfg) -> None:
    path = cfg.workspace_dir / "analyze_pre" / "pre_violations.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(lines[0] + "".join(lines[2:]), encoding="utf-8")


class TestReportsParsedOnce:
    def test_cold_run_parses_each_analyzer_output_once(self, parsed_run):
        # the analyze stages parse the raw analyzer output; repair, fixrate
        # and newviol reuse those reports instead of re-reading their CSVs
        _, run, summary, parses = parsed_run
        assert set(summary.values()) == {"ran"}
        assert parses == 2
        assert run._handoffs == {}  # the reports too

    def test_rerun_reading_from_disk_is_byte_identical(self, parsed_run, monkeypatch):
        cfg, _, _, _ = parsed_run
        cold = _workspace_bytes(cfg)
        parses = _count_parses(monkeypatch)
        summary = run_pipeline(cfg, force=True, stages=IN_PROCESS_STAGES)
        assert set(summary.values()) == {"ran"}
        assert len(parses) == 2  # fixrate reads pre and post; newviol reuses them
        assert _workspace_bytes(cfg) == cold

    def test_edited_pre_report_matches_fresh_workspace(self, tmp_path):
        edited = load_config(minicorpus.materialize(tmp_path / "edited", seed=17))
        run_pipeline(edited)
        before = (edited.workspace_dir / "report" / "summary.json").read_bytes()
        _drop_first_finding(edited)
        summary = run_pipeline(edited)
        assert summary["analyze_pre"] == "cached"
        assert summary["repair"] == summary["fixrate"] == summary["newviol"] == "ran"
        assert (edited.workspace_dir / "report" / "summary.json").read_bytes() != before

        fresh = load_config(minicorpus.materialize(tmp_path / "fresh", seed=17))
        run_pipeline(fresh, stages=["prepare", "analyze_pre"])
        _drop_first_finding(fresh)
        run_pipeline(fresh)
        assert _workspace_bytes(edited) == _workspace_bytes(fresh)

    def test_report_rewritten_mid_run_is_read_again(self, tmp_path):
        # a repairer that also edits the pre report after the repair stage
        # has read it: the seeded report is stale, and fixrate and newviol
        # must read the file instead
        config_path = minicorpus.materialize(tmp_path, seed=17)
        pre_csv = tmp_path / "workspace" / "analyze_pre" / "pre_violations.csv"
        meddler = tmp_path / "meddler.py"
        meddler.write_text(
            "import subprocess, sys\n"
            "from pathlib import Path\n"
            "subprocess.run([sys.executable, '-m', 'apreval.stubs', 'repairer', sys.argv[1], sys.argv[2]],\n"
            "               check=True)\n"
            "lines = Path(sys.argv[3]).read_text(encoding='utf-8').splitlines(keepends=True)\n"
            "Path(sys.argv[3]).write_text(lines[0] + ''.join(lines[2:]), encoding='utf-8')\n",
            encoding="utf-8",
        )
        doc = json.loads(config_path.read_text(encoding="utf-8"))
        doc["adapters"]["repairer"]["command"] = f"{PY} {meddler} {{input}} {{output}} {pre_csv}"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        cfg = load_config(config_path)
        run_pipeline(cfg)
        cold = _workspace_bytes(cfg)
        run_pipeline(cfg, force=True, stages=IN_PROCESS_STAGES)
        assert _workspace_bytes(cfg) == cold


def _count_new_loads(monkeypatch) -> list[Path]:
    """Record the path of each ``new_violations.csv`` the pipeline parses."""
    loads: list[Path] = []
    load = newviol_mod.load_new

    def counting(path):
        loads.append(path)
        return load(path)

    monkeypatch.setattr(newviol_mod, "load_new", counting)
    return loads


class TestNewViolationsParsedOnce:
    def test_cold_run_hands_the_newviol_rows_on(self, tmp_path, monkeypatch):
        cfg = load_config(minicorpus.materialize(tmp_path, seed=17))
        handed = []
        parsed = stages._parsed

        def spy(run, handoff, files=None):
            value = parsed(run, handoff, files)
            if handoff == stages._NEW:
                handed.append(value)
            return value

        monkeypatch.setattr(stages, "_parsed", spy)
        loads = _count_new_loads(monkeypatch)
        run = PipelineRun(cfg)
        run.run()
        assert loads == []  # sample and report take what newviol wrote
        assert run._handoffs == {}  # the NEW rows too
        path = cfg.workspace_dir / "newviol" / "new_violations.csv"
        assert handed == [newviol_mod.load_new(path)] * 2
        assert handed[0][1]

    def test_cached_newviol_is_read_from_disk(self, tmp_path, monkeypatch):
        cfg = load_config(minicorpus.materialize(tmp_path, seed=17))
        run_pipeline(cfg)
        cold = _workspace_bytes(cfg)
        loads = _count_new_loads(monkeypatch)
        summary = run_pipeline(cfg, force=True, stages=["sample", "report"])
        assert set(summary.values()) == {"ran"}
        assert loads == [cfg.workspace_dir / "newviol" / "new_violations.csv"]
        assert _workspace_bytes(cfg) == cold

    def test_stale_rows_are_read_again(self, tmp_path):
        cfg = load_config(minicorpus.materialize(tmp_path, seed=17))
        run_pipeline(cfg)
        path = cfg.workspace_dir / "newviol" / "new_violations.csv"
        run = PipelineRun(cfg)
        stale = hashlib.sha256(b"other bytes").hexdigest()
        run._handoffs[stages._NEW[0]] = (stale, (0, []))
        assert stages._parsed(run, stages._NEW) == newviol_mod.load_new(path)


#: each hand-off, the stages it is kept for, and those that find it seeded on a cold run
HANDOFF_READERS = {
    "pre report": (stages._PRE_REPORT[0], {"repair", "fixrate", "newviol"}, {"repair", "fixrate", "newviol"}),
    "post report": (stages._POST_REPORT[0], {"repair", "fixrate", "newviol"}, {"fixrate", "newviol"}),
    "NEW rows": (stages._NEW[0], {"sample", "report"}, {"sample", "report"}),
}


class TestHandoffLifetimes:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_entry_lives_until_its_last_reader_is_done(self, tmp_path, monkeypatch, jobs):
        cfg = load_config(minicorpus.materialize(tmp_path, seed=17))
        events: list[tuple[str, str, set]] = []  # (start or end, stage, hand-offs kept then)
        run_stage = PipelineRun._run_stage

        def spy(self, stage):
            events.append(("start", stage.name, set(self._handoffs)))
            yield from run_stage(self, stage)
            events.append(("end", stage.name, set(self._handoffs)))

        monkeypatch.setattr(PipelineRun, "_run_stage", spy)
        run = PipelineRun(cfg, jobs=jobs)
        assert set(run.run().values()) == {"ran"}
        assert run._handoffs == {}
        for label, (handoff, readers, seeded) in HANDOFF_READERS.items():
            kept = [handoff in held for _, _, held in events]
            last = max(i for i, (kind, name, _) in enumerate(events) if kind == "end" and name in readers)
            first = kept.index(True)
            # kept from its first appearance until the last reader ends, and never again
            assert kept == [first <= i < last for i in range(len(events))], label
            for kind, name, held in events:
                if kind == "start" and name in seeded:
                    assert handoff in held, (label, name)


#: the stages that read ``repair/output``, and ``fixrate`` and ``report`` after them
DOWNSTREAM_STAGES = ["analyze_post", "fixrate", "newviol", "sample", "semantic", "metrics", "report"]


def _neutral_edit(cfg, n: int = 0) -> None:
    """Append a whitespace-only line to one repaired file, as the benchmark does."""
    with (cfg.workspace_dir / "repair" / "output" / "EventBus.java").open("a", encoding="utf-8") as fh:
        fh.write(" " * (1 + n % 4) + "\n")


def _spy_adapter_outputs(monkeypatch) -> list[str]:
    """Record the workspace-relative output directory of each adapter call."""
    outputs: list[str] = []
    run_adapter = pipeline.run_tool_adapter

    def spy(adapter, input_dir, output_dir, rule=None):
        outputs.append(output_dir.relative_to(output_dir.parents[1]).as_posix())
        return run_adapter(adapter, input_dir, output_dir, rule)

    monkeypatch.setattr(pipeline, "run_tool_adapter", spy)
    return outputs


@pytest.fixture(scope="module")
def reuse_root(tmp_path_factory):
    """A cold run over the bundled corpus, copied by each test that edits it."""
    root = tmp_path_factory.mktemp("reuse")
    run_pipeline(load_config(minicorpus.materialize(root, seed=17)))
    return root


@pytest.fixture(scope="module")
def edited_reference(tmp_path_factory):
    """The workspace files of a fresh run on the tree that ``_neutral_edit`` leaves."""
    cfg = load_config(minicorpus.materialize(tmp_path_factory.mktemp("edited"), seed=17))
    run_pipeline(cfg, stages=["prepare", "analyze_pre", "repair"])
    _neutral_edit(cfg)
    run_pipeline(cfg)
    return _workspace_bytes(cfg)


def _copy_run(reuse_root: Path, tmp_path: Path) -> PipelineConfig:
    shutil.copytree(reuse_root, tmp_path / "copy", symlinks=True)
    return load_config(tmp_path / "copy" / "config.json")


class TestSubStepReuse:
    def test_edit_spawns_only_what_changed(self, tmp_path, monkeypatch):
        # 30 per-rule repair passes, as in the benchmark's mini_per_rule
        config_path = minicorpus.materialize(tmp_path, seed=17)
        cfg = _edit_config(config_path, lambda doc: doc["adapters"]["repairer"].update(
            command="{python} -m apreval.stubs repairer {input} {output} --rule {rule}"))
        outputs = _spy_adapter_outputs(monkeypatch)

        def spawns(**kwargs) -> int:
            before = len(outputs)
            run_pipeline(cfg, **kwargs)
            return len(outputs) - before

        assert spawns() == 38
        for n in range(2):
            # analyze_post, and the repaired-side calls of semantic and metrics
            _neutral_edit(cfg, n)
            assert spawns() == 4
        assert spawns(force=True) == 38

    def test_reused_steps_are_recorded(self, reuse_root, tmp_path, monkeypatch, edited_reference):
        cfg = _copy_run(reuse_root, tmp_path)
        state = json.loads((cfg.workspace_dir / "state.json").read_text(encoding="utf-8"))
        cold_steps = {name: state["stages"][name]["steps"] for name in ("semantic", "metrics")}
        assert set(cold_steps["semantic"]) == {"baseline_raw"}
        assert set(cold_steps["metrics"]) == {"pre_raw"}
        _neutral_edit(cfg)
        outputs = _spy_adapter_outputs(monkeypatch)
        summary = run_pipeline(cfg)
        assert [s for s in summary if summary[s] == "ran"] == [
            "analyze_post", "newviol", "sample", "semantic", "metrics"
        ]
        assert sorted(outputs) == [
            "analyze_post/raw", "metrics/post_raw", "semantic/compile_raw", "semantic/repaired_raw"
        ]
        state = json.loads((cfg.workspace_dir / "state.json").read_text(encoding="utf-8"))
        assert {name: state["stages"][name]["steps"] for name in cold_steps} == cold_steps
        assert _workspace_bytes(cfg) == edited_reference
        assert not list(cfg.workspace_dir.glob(".*.prev"))

    def test_incremental_run_matches_forced_rebuild(self, reuse_root, tmp_path):
        # reused sub-steps keep their adapter logs, which must be the ones a
        # rebuild writes
        cfg = _copy_run(reuse_root, tmp_path)
        _neutral_edit(cfg)
        run_pipeline(cfg)
        incremental = _workspace_bytes(cfg, logs=True)
        assert set(run_pipeline(cfg, force=True, stages=DOWNSTREAM_STAGES).values()) == {"ran"}
        assert _workspace_bytes(cfg, logs=True) == incremental

    @pytest.mark.parametrize("change", ["edited_baseline", "edited_regressions", "runner_timeout",
                                        "record_without_steps", "failed_record"])
    def test_changed_sub_step_reruns(self, reuse_root, tmp_path, monkeypatch, edited_reference, change):
        cfg = _copy_run(reuse_root, tmp_path)
        if change == "edited_baseline":
            # a hand edit the stage cache does not notice, but the sub-step's
            # output digest does: every baseline test now fails
            results = cfg.workspace_dir / "semantic" / "baseline_raw" / "results.csv"
            results.write_text(results.read_text(encoding="utf-8").replace(",pass,", ",fail,"), encoding="utf-8")
        elif change == "edited_regressions":
            # a hand edit to a file of the old build that no sub-step covers
            with (cfg.workspace_dir / "semantic" / "regressions.csv").open("a", encoding="utf-8") as fh:
                fh.write("edited,by,hand\n")
        elif change == "runner_timeout":
            cfg = _edit_config(cfg.workspace_dir.parent / "config.json",
                               lambda doc: doc["adapters"]["test_runner"].update(timeout=1 + doc["adapters"]["test_runner"]["timeout"]))
        elif change == "failed_record":
            # the baseline sub-step ran and was recorded, then the stage failed
            def fail(*args, **kwargs):
                raise ValueError("comparison failed")

            with monkeypatch.context() as m:
                m.setattr(semantic_mod, "score_semantic", fail)
                with pytest.raises(StageFailureError):
                    run_pipeline(cfg, stages=["semantic"], force=True)
        else:
            # a record written before sub-steps were recorded
            state_path = cfg.workspace_dir / "state.json"
            state = json.loads(state_path.read_text(encoding="utf-8"))
            for record in state["stages"].values():
                record.pop("steps", None)
            state_path.write_text(json.dumps(state), encoding="utf-8")
            assert set(run_pipeline(cfg).values()) == {"cached"}
        _neutral_edit(cfg)
        outputs = _spy_adapter_outputs(monkeypatch)
        run_pipeline(cfg)
        assert "semantic/baseline_raw" in outputs
        assert ("metrics/pre_raw" in outputs) == (change == "record_without_steps")
        assert _workspace_bytes(cfg) == edited_reference

    def test_old_build_is_hashed_only_where_it_may_be_reused(self, reuse_root, tmp_path, monkeypatch,
                                                              edited_reference):
        # sample's record holds no steps or files, so nothing of its old build
        # is worth a hash; semantic's old build is hashed once, as it is set
        # aside, and a file added by hand there makes it reuse nothing
        cfg = _copy_run(reuse_root, tmp_path)
        for stage in ("sample", "semantic"):
            (cfg.workspace_dir / stage / "sentinel.txt").write_text("added by hand", encoding="utf-8")
        _neutral_edit(cfg)
        hashed: list[str] = []
        file_sha256 = pipeline._file_sha256

        def counting(path):
            hashed.append(path)
            return file_sha256(path)

        monkeypatch.setattr(pipeline, "_file_sha256", counting)
        outputs = _spy_adapter_outputs(monkeypatch)
        summary = run_pipeline(cfg)
        assert summary["sample"] == summary["semantic"] == "ran"
        # the stage of each sentinel hash, whether hashed in place or set aside as .<stage>.prev
        sentinels = [
            Path(path).relative_to(cfg.workspace_dir).parts[0].removeprefix(".").removesuffix(".prev")
            for path in hashed if os.path.basename(path) == "sentinel.txt"
        ]
        assert sentinels == ["semantic"]
        assert "semantic/baseline_raw" in outputs and "metrics/pre_raw" not in outputs
        assert _workspace_bytes(cfg) == edited_reference

    def test_interrupted_rebuild_reuses_nothing(self, reuse_root, tmp_path, monkeypatch, edited_reference):
        cfg = _copy_run(reuse_root, tmp_path)
        _neutral_edit(cfg)

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        with monkeypatch.context() as m:
            m.setattr(semantic_mod, "ingest_test_results", interrupt)
            with pytest.raises(KeyboardInterrupt):
                run_pipeline(cfg)
        assert not (cfg.workspace_dir / ".semantic.prev").exists()
        # what a run killed while rebuilding semantic leaves behind
        (cfg.workspace_dir / ".semantic.prev" / "baseline_raw").mkdir(parents=True)
        (cfg.workspace_dir / ".semantic.prev" / "baseline_raw" / "results.csv").write_text("stale")
        outputs = _spy_adapter_outputs(monkeypatch)
        summary = run_pipeline(cfg)
        assert summary["semantic"] == "ran"
        assert "semantic/baseline_raw" in outputs
        assert not (cfg.workspace_dir / ".semantic.prev").exists()
        assert _workspace_bytes(cfg) == edited_reference


def _post_files(cfg) -> set[str]:
    post = violations.read_report(cfg.workspace_dir / "analyze_post" / "post_violations.csv", StateLabel.POST_REPAIR)
    return {v.file_id for v in post.entries}


def _spy_judged(monkeypatch) -> list[set[str]]:
    """Record the files of the post findings each ``judge_files`` call judges."""
    judged: list[set[str]] = []
    detect = newviol_mod.judge_files

    def spy(pre, post, sources, normalization):
        judged.append({v.file_id for v in post.entries})
        return detect(pre, post, sources, normalization)

    monkeypatch.setattr(newviol_mod, "judge_files", spy)
    return judged


#: the stages that judge the post findings and sample them, with the analysis they read
JUDGING_STAGES = ["analyze_post", "fixrate", "newviol", "sample"]
JUDGED_OUTPUTS = ("newviol/new_violations.csv", "newviol/new_matrix.csv", "newviol/new_frequency.csv",
                  "newviol/notes.txt", "sample/sheet.csv", "sample/allocation.json")

#: a line the stub analyzer reports
_FINDING_LINE = "    int added = 0; // @viol:S1481:CodeSmell:Low added by an edit"


def _edit_lines(path: Path, kind: str, a: int, b: int) -> None:
    """Insert a blank or a finding line at ``a``, or move line ``a`` to ``b``."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    if kind == "moved" and len(lines) > 1:
        lines.insert(b % len(lines), lines.pop(a % len(lines)))
    elif kind != "moved":
        lines.insert(a % (len(lines) + 1), " " * (1 + b % 3) + "\n" if kind == "whitespace" else _FINDING_LINE + "\n")
    path.write_text("".join(lines), encoding="utf-8")


class TestEditCutoffs:
    """An edited rerun judges only the files whose inputs changed, and parses
    no analyzer report whose raw bytes did not change."""

    def test_neutral_edit_judges_only_the_edited_file(self, reuse_root, tmp_path, monkeypatch, edited_reference):
        cfg = _copy_run(reuse_root, tmp_path)
        _neutral_edit(cfg)
        parses = _count_parses(monkeypatch)
        built: list[str] = []  # the file of each violation built from a report row
        csv_violation = violations._csv_violation
        monkeypatch.setattr(violations, "_csv_violation", lambda line, row: built.append(row[0]) or csv_violation(line, row))
        pairs: list[str] = []
        from_texts = newviol_mod.SourcePair.from_texts.__func__
        monkeypatch.setattr(newviol_mod.SourcePair, "from_texts",
                            classmethod(lambda cls, rel, *texts: pairs.append(rel) or from_texts(cls, rel, *texts)))
        judged = _spy_judged(monkeypatch)
        loaded_by_newviol: list[list[str]] = []
        write_newviol = newviol_mod.write_newviol
        # newviol judges as it writes: the pairs loaded once its rows are written
        monkeypatch.setattr(newviol_mod, "write_newviol",
                            lambda *args: (write_newviol(*args), loaded_by_newviol.append(list(pairs)))[0])
        summary = run_pipeline(cfg)
        assert summary["analyze_post"] == summary["newviol"] == summary["sample"] == "ran"
        assert parses == []  # analyze_post moved its old CSV in; fixrate is cached
        assert judged == [{"EventBus.java"}]
        assert loaded_by_newviol == [["EventBus.java"]]
        ws = cfg.workspace_dir
        rows = [
            row for name in ("analyze_pre/pre_violations.csv", "analyze_post/post_violations.csv")
            for _, row in violations.read_csv_table((ws / name).read_text(encoding="utf-8"), violations.CSV_HEADER)
            if row[0] == "EventBus.java"
        ]
        # the other files' NEW rows become violations too, for the sample, as
        # a re-read of new_violations.csv would make them; no report row does
        assert built == ["EventBus.java"] * len(rows)
        sheet = (ws / "sample" / "sheet.csv").read_text(encoding="utf-8")
        sampled = {row[1] for _, row in violations.read_csv_table(sheet, sampling_mod.SHEET_HEADER)}
        assert sorted(pairs) == sorted(sampled | {"EventBus.java"})  # sample loads what it draws from
        assert _workspace_bytes(cfg) == edited_reference
        state = json.loads((ws / "state.json").read_text(encoding="utf-8"))
        assert len(state["stages"]["newviol"]["files"]) == 16 * len(_post_files(cfg))

    def test_force_reuses_nothing(self, reuse_root, tmp_path, monkeypatch):
        cfg = _copy_run(reuse_root, tmp_path)
        before = _workspace_bytes(cfg, logs=True)
        parses = _count_parses(monkeypatch)
        judged = _spy_judged(monkeypatch)
        assert set(run_pipeline(cfg, force=True).values()) == {"ran"}
        assert len(parses) == 2  # each analyze stage parses its raw report
        assert judged == [_post_files(cfg)]
        assert _workspace_bytes(cfg, logs=True) == before

    def test_option_the_csv_adapter_does_not_read_is_refused(self, reuse_root, tmp_path):
        cfg = _copy_run(reuse_root, tmp_path)
        before = _workspace_bytes(cfg)
        # an option the native CSV adapter ignores would only change the
        # analyze stages' fingerprint and rerun them for the same output
        config_path = cfg.workspace_dir.parent / "config.json"
        with pytest.raises(ConfigError) as err:
            _edit_config(config_path, lambda doc: doc.update(report_adapter_options={"unused": True}))
        assert err.value.key_path == "report_adapter_options.unused"
        cfg = _edit_config(config_path, lambda doc: doc.pop("report_adapter_options"))
        assert set(run_pipeline(cfg).values()) == {"cached"}
        assert _workspace_bytes(cfg) == before

    @pytest.mark.parametrize("report, finding", [
        # a pre finding added at the key of a NEW one makes it a key match; the
        # row goes at the end, apart from the file's other pre rows
        ("analyze_pre/pre_violations.csv", "AccountStore.java,S115,CodeSmell,High,5,5,constant renamed by tool"),
        # a post finding dropped takes its row away; the file keeps another
        ("analyze_post/post_violations.csv", "UtilityBox.java,S1106,CodeSmell,Low,2,2,brace placement of injected constructor"),
    ])
    def test_finding_edit_rejudges_its_file(self, reuse_root, tmp_path, monkeypatch, report, finding):
        cfg = _copy_run(reuse_root, tmp_path)
        path = cfg.workspace_dir / report
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        if report.startswith("analyze_pre"):
            lines.append(finding + "\n")
        else:
            lines.remove(finding + "\n")
        path.write_text("".join(lines), encoding="utf-8")
        judged = _spy_judged(monkeypatch)
        summary = run_pipeline(cfg, stages=JUDGING_STAGES)
        assert summary["analyze_post"] == "cached" and summary["newviol"] == "ran"
        assert judged == [{finding.split(",")[0]}]  # the file's sources and other findings are unchanged
        incremental = {name: (cfg.workspace_dir / name).read_bytes() for name in JUDGED_OUTPUTS}
        rows = incremental["newviol/new_violations.csv"].decode("utf-8").splitlines()
        assert [row for row in rows if row.startswith(finding)] == (
            [finding + ",not_new_key_match,5"] if report.startswith("analyze_pre") else [])
        run_pipeline(cfg, stages=["fixrate", "newviol", "sample"], force=True)
        assert {name: (cfg.workspace_dir / name).read_bytes() for name in JUDGED_OUTPUTS} == incremental

    @pytest.mark.parametrize("edited", ["analyze_post/post_violations.csv", "newviol/new_violations.csv"])
    def test_hand_edited_output_is_not_reused(self, reuse_root, tmp_path, monkeypatch, edited_reference, edited):
        # a stage's own output, edited by hand: the record's output digest
        # notices, so the edited rerun builds it afresh
        cfg = _copy_run(reuse_root, tmp_path)
        path = cfg.workspace_dir / edited
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if ",CodeSmell," in line and not line.startswith("EventBus"))
        lines[row] = lines[row].replace(",CodeSmell,", ",Bug,")
        path.write_text("".join(lines), encoding="utf-8")
        _neutral_edit(cfg)
        parses = _count_parses(monkeypatch)
        judged = _spy_judged(monkeypatch)
        run_pipeline(cfg)
        assert len(parses) == (edited.startswith("analyze_post") and 1)
        assert judged == [_post_files(cfg) if edited.startswith("newviol") else {"EventBus.java"}]
        assert _workspace_bytes(cfg) == edited_reference

    @settings(max_examples=10, deadline=None)
    @given(edits=st.lists(st.tuples(st.sampled_from(["whitespace", "moved", "finding"]),
                                    st.integers(0, 999), st.integers(0, 999), st.integers(0, 999)),
                          min_size=1, max_size=2))
    def test_edited_reruns_match_a_fresh_judgement(self, reuse_root, tmp_path_factory, edits):
        cfg = _copy_run(reuse_root, tmp_path_factory.mktemp("edits"))
        output = cfg.workspace_dir / "repair" / "output"
        files = sorted(output.rglob("*.java"))
        for kind, which, a, b in edits:
            _edit_lines(files[which % len(files)], kind, a, b)
            run_pipeline(cfg, stages=JUDGING_STAGES)
        incremental = {name: (cfg.workspace_dir / name).read_bytes() for name in JUDGED_OUTPUTS}
        assert set(run_pipeline(cfg, stages=JUDGING_STAGES, force=True).values()) == {"ran"}
        assert {name: (cfg.workspace_dir / name).read_bytes() for name in JUDGED_OUTPUTS} == incremental


#: a single-pass repairer that runs the stub, then on its first call only
#: (the flag file ``argv[3]``, outside the workspace) appends to a file of
#: its input, against the adapter contract
_IN_PLACE_REPAIRER = """\
import subprocess, sys
from pathlib import Path
input_dir, output_dir, flag = sys.argv[1:]
subprocess.run([sys.executable, "-m", "apreval.stubs", "repairer", input_dir, output_dir], check=True)
if not Path(flag).exists():
    Path(flag).write_text("written")
    with Path(input_dir, "AccountStore.java").open("a", encoding="utf-8") as fh:
        fh.write("// written in place\\n")
"""


def _append(path: Path) -> None:
    with path.open("a", encoding="utf-8") as fh:
        fh.write("// appended in place\n")


class TestLinkedStageTrees:
    """``repair/input`` hard-links ``prepare/sources``; the corpus is always copied."""

    def test_input_links_sources_and_nothing_links_the_corpus(self, reuse_root):
        ws, corpus = reuse_root / "workspace", load_config(reuse_root / "config.json").corpus_dir
        inputs = _rglob_files(ws / "repair" / "input")
        assert inputs
        for path in inputs:
            assert os.path.samefile(path, ws / "prepare" / "sources" / path.name)
        corpus_inodes = {(p.stat().st_dev, p.stat().st_ino) for p in _rglob_files(corpus)}
        for path in _rglob_files(ws / "prepare" / "sources") + inputs:
            assert (path.stat().st_dev, path.stat().st_ino) not in corpus_inodes, path

    @pytest.mark.parametrize("code", [errno.EPERM, errno.EXDEV])
    def test_refused_links_fall_back_to_copies(self, reuse_root, tmp_path, monkeypatch, code):
        def refuse(*args, **kwargs):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, "link", refuse)
        cfg = load_config(minicorpus.materialize(tmp_path, seed=17))
        assert set(run_pipeline(cfg).values()) == {"ran"}
        inputs = _rglob_files(cfg.workspace_dir / "repair" / "input")
        assert inputs and all(path.stat().st_nlink == 1 for path in inputs)
        assert _workspace_bytes(cfg) == _workspace_bytes(load_config(reuse_root / "config.json"))
        assert set(run_pipeline(cfg).values()) == {"cached"}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_in_place_edits_heal(self, reuse_root, tmp_path, jobs):
        cfg = load_config(minicorpus.materialize(tmp_path, seed=17))
        run_pipeline(cfg, jobs=jobs)
        ws, clean = cfg.workspace_dir, _workspace_bytes(load_config(reuse_root / "config.json"))
        edits = [
            # through either name, a linked file changes in both trees
            (lambda: _append(ws / "repair" / "input" / "AccountStore.java"), {"prepare", "repair"}),
            (lambda: _append(ws / "prepare" / "sources" / "Calculator.java"), {"prepare", "repair"}),
            (lambda: (ws / "repair" / "input" / "EventBus.java").unlink(), {"repair"}),
        ]
        for edit, rerun in edits:
            edit()
            summary = run_pipeline(cfg, jobs=jobs)
            assert summary == {s: "ran" if s in rerun else "cached" for s in STAGE_ORDER}
            assert _workspace_bytes(cfg) == clean
            assert set(run_pipeline(cfg, jobs=jobs).values()) == {"cached"}

    def test_adapter_write_to_its_input_heals(self, reuse_root, tmp_path):
        config_path = minicorpus.materialize(tmp_path / "run", seed=17)
        tool = tmp_path / "repairer.py"
        tool.write_text(_IN_PLACE_REPAIRER, encoding="utf-8")
        cfg = _edit_config(config_path, lambda doc: doc["adapters"]["repairer"].update(
            command=f"{{python}} {tool} {{input}} {{output}} {tmp_path / 'written.flag'}"))
        run_pipeline(cfg)
        assert (tmp_path / "written.flag").is_file()
        run_pipeline(cfg)
        assert _workspace_bytes(cfg) == _workspace_bytes(load_config(reuse_root / "config.json"))
        assert set(run_pipeline(cfg).values()) == {"cached"}


class TestPerRuleRepair:
    def test_rule_placeholder_runs_sequential_passes(self, tmp_path):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        doc = json.loads(config_path.read_text(encoding="utf-8"))
        doc["adapters"]["repairer"]["command"] = (
            "{python} -m apreval.stubs repairer {input} {output} --rule {rule}"
        )
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        cfg = load_config(config_path)
        summary = run_pipeline(cfg)
        assert summary["repair"] == "ran"
        ws = cfg.workspace_dir
        passes = sorted(p.name for p in (ws / "repair").glob("pass_*"))
        assert len(passes) == 30
        assert passes[0] == "pass_00_S1118"
        assert passes[-1] == "pass_29_S2164"
        # the sequential per-rule path reaches the same repaired sources
        single_root = tmp_path / "single"
        single_cfg = load_config(minicorpus.materialize(single_root, seed=17))
        run_pipeline(single_cfg, stages=["prepare", "analyze_pre", "repair"])
        for f in sorted((ws / "repair" / "output").glob("*.java")):
            other = single_cfg.workspace_dir / "repair" / "output" / f.name
            assert f.read_text(encoding="utf-8") == other.read_text(encoding="utf-8"), f.name

    def test_escaped_rule_placeholder_runs_one_pass(self, tmp_path, monkeypatch):
        # {{rule}} is literal text to str.format, so the repairer is called once
        cfg = _edit_config(minicorpus.materialize(tmp_path, seed=17), lambda doc: doc["adapters"]["repairer"].update(
            command="{python} -m apreval.stubs repairer {input} {output} --rule {{rule}}"))
        outputs = _spy_adapter_outputs(monkeypatch)
        assert run_pipeline(cfg, stages=["prepare", "analyze_pre", "repair"])["repair"] == "ran"
        assert [out for out in outputs if out.startswith("repair/")] == ["repair/output"]
        assert not list((cfg.workspace_dir / "repair").glob("pass_*"))

    def test_output_keeps_files_named_like_adapter_logs(self, tmp_path):
        # only the two logs run_tool_adapter writes atop the last pass stay behind
        tool = tmp_path / "carrier.py"
        tool.write_text(
            "import shutil, sys\n"
            "from pathlib import Path\n"
            "shutil.copytree(sys.argv[1], sys.argv[2], dirs_exist_ok=True)\n"
            "Path(sys.argv[2], 'logs').mkdir(exist_ok=True)\n"
            "Path(sys.argv[2], 'logs', 'adapter_notes.log').write_text('notes', encoding='utf-8')\n"
            "Path(sys.argv[2], 'adapter_x.log').write_text('x', encoding='utf-8')\n",
            encoding="utf-8",
        )
        cfg = _edit_config(minicorpus.materialize(tmp_path / "run", seed=17), lambda doc: doc["adapters"][
            "repairer"].update(command=f"{{python}} {tool} {{input}} {{output}} --rule {{rule}}"))
        run_pipeline(cfg, stages=["prepare", "analyze_pre", "repair"])
        repair = cfg.workspace_dir / "repair"
        last = {p.relative_to(repair / "pass_29_S2164").as_posix(): p.read_bytes()
                for p in _rglob_files(repair / "pass_29_S2164")}
        output = {p.relative_to(repair / "output").as_posix(): p.read_bytes() for p in _rglob_files(repair / "output")}
        assert {"logs/adapter_notes.log", "adapter_x.log", "adapter_stdout.log"} <= last.keys()
        assert output == {rel: data for rel, data in last.items()
                          if rel not in ("adapter_stdout.log", "adapter_stderr.log")}


#: a tool that sleeps on ``repair/input`` after writing its pid, and is the
#: stub tool ``argv[1]`` otherwise
_SLEEPER = """\
import os, sys, time
from pathlib import Path
role, input_dir, output_dir = sys.argv[1:]
if Path(input_dir).name == "input":
    Path(output_dir, "sleeper.pid").write_text(str(os.getpid()))
    time.sleep(60)
os.execv(sys.executable, [sys.executable, "-m", "apreval.stubs", role, input_dir, output_dir])
"""


#: ``apreval run`` with the CLI arguments ``argv[3:]``, recording in
#: ``argv[1]`` the worker threads and adapters left when the workspace lock
#: is released; with ``argv[2]`` a path, the newviol stage writes it and then
#: computes until the run is stopped
_STOPPABLE = """\
import json, sys, threading, time
from pathlib import Path
from apreval import newviol, pipeline
from apreval.cli import main

at_unlock = Path(sys.argv[1])
unlock = pipeline._WorkspaceLock.__exit__

def recording_unlock(self, *exc):
    threads = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    at_unlock.write_text(json.dumps([threads, len(pipeline._running_adapters)]))
    return unlock(self, *exc)

def computing(*args, **kwargs):
    Path(sys.argv[2]).write_text("computing")
    while True:
        time.sleep(0.01)

pipeline._WorkspaceLock.__exit__ = recording_unlock
if sys.argv[2] != "-":
    newviol.judge_files = computing
sys.exit(main(sys.argv[3:]))
"""


def _stop_parallel_run(tmp_path: Path, stop, jobs: int = 2) -> int:
    """Stop a forced ``apreval run --jobs <jobs>`` while its adapters sleep.

    With ``jobs`` 2 the baseline-side test runner of ``semantic`` and metric
    extractor of ``metrics`` both sleep; with ``jobs`` 1 the test runner
    sleeps while ``newviol`` computes beside it. The sleeping adapters must
    be gone shortly after, no worker thread or adapter left when the
    workspace lock is released, and no stage's old directory left aside;
    returns the run's exit status.
    """
    config_path = minicorpus.materialize(tmp_path, seed=17)
    run_pipeline(load_config(config_path))  # so that the forced run sets each old stage aside
    sleeper, driver = tmp_path / "sleeper.py", tmp_path / "stoppable.py"
    sleeper.write_text(_SLEEPER, encoding="utf-8")
    driver.write_text(_STOPPABLE, encoding="utf-8")

    def edit(doc):
        doc["jobs"] = jobs
        doc["adapters"]["test_runner"].update(command=f"{PY} {sleeper} testrunner {{input}} {{output}}", timeout=60)
        doc["adapters"]["metric_extractor"].update(command=f"{PY} {sleeper} metrics {{input}} {{output}}", timeout=60)

    _edit_config(config_path, edit)
    ws = tmp_path / "workspace"
    at_unlock, computing = tmp_path / "at_unlock.json", tmp_path / "computing"
    pid_files = [ws / "semantic" / "baseline_raw" / "sleeper.pid"]
    if jobs > 1:
        pid_files.append(ws / "metrics" / "pre_raw" / "sleeper.pid")
    run = subprocess.Popen(
        [PY, str(driver), str(at_unlock), str(computing) if jobs == 1 else "-",
         "run", "--config", str(config_path), "--force"],
        cwd=tmp_path, env=_adapter_env(), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    pids = []
    try:
        deadline = time.monotonic() + 60.0
        while not all(f.is_file() and f.read_text() for f in pid_files) or (jobs == 1 and not computing.is_file()):
            assert run.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        pids = [int(f.read_text()) for f in pid_files]
        stop(run)
        returncode = run.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while any(map(_pid_alive, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_pid_alive, pids))
        assert json.loads(at_unlock.read_text(encoding="utf-8")) == [[], 0]
        assert not list(ws.glob(".*.prev"))
    finally:
        for pid in [run.pid, *pids]:
            if _pid_alive(pid):
                os.kill(pid, signal.SIGKILL)
        run.wait()
    return returncode


class TestFailureIsolation:
    def test_failing_adapter_preserves_prior_outputs(self, tmp_path):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        cfg = load_config(config_path)
        run_pipeline(cfg, stages=["prepare", "analyze_pre"])
        pre_bytes = (cfg.workspace_dir / "analyze_pre" / "pre_violations.csv").read_bytes()

        doc = json.loads(config_path.read_text(encoding="utf-8"))
        doc["adapters"]["repairer"]["command"] = f"{PY} -c \"import sys;sys.exit(3)\" {{input}}"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        broken = load_config(config_path)
        with pytest.raises(NonZeroExitError):
            run_pipeline(broken, stages=["repair"])
        assert (cfg.workspace_dir / "analyze_pre" / "pre_violations.csv").read_bytes() == pre_bytes
        state = json.loads((cfg.workspace_dir / "state.json").read_text())
        assert state["stages"]["repair"]["status"] == "failed"
        assert state["stages"]["analyze_pre"]["status"] == "ok"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_call_lets_the_rest_of_its_batch_run(self, tmp_path, jobs):
        # semantic's one batch: the baseline and repaired test runs, then the compile
        config_path = minicorpus.materialize(tmp_path, seed=17)
        run_pipeline(load_config(config_path), stages=["prepare", "analyze_pre", "repair"])
        broken = _edit_config(config_path, lambda doc: doc["adapters"]["test_runner"].update(
            command=f"{PY} -c \"import sys;sys.exit(3)\" {{input}}"))
        with pytest.raises(NonZeroExitError) as err:
            run_pipeline(broken, stages=["semantic"], force=True, jobs=jobs)
        assert err.value.name == "test_runner"
        assert (broken.workspace_dir / "semantic" / "compile_raw" / "compile_results.json").is_file()
        state = json.loads((broken.workspace_dir / "state.json").read_text(encoding="utf-8"))
        assert state["stages"]["semantic"]["status"] == "failed"

    def test_missing_upstream_output_named(self, tmp_path):
        cfg = load_config(minicorpus.materialize(tmp_path, seed=17))
        with pytest.raises(MissingStageOutputError):
            run_pipeline(cfg, stages=["fixrate"])

    def test_failed_state_save_keeps_previous_file(self, tmp_path):
        cfg = load_config(minicorpus.materialize(tmp_path, seed=17))
        run = PipelineRun(cfg)
        run.run(stages=["prepare"])
        state_path = cfg.workspace_dir / "state.json"
        before = state_path.read_bytes()
        # a record that cannot be serialized fails the save
        run.state["stages"]["zz_unserializable"] = object()
        with pytest.raises(TypeError):
            run._save_state()
        assert state_path.read_bytes() == before
        assert sorted(p.name for p in cfg.workspace_dir.iterdir() if p.is_file()) == [".lock", "state.json"]

    def test_interrupted_stage_is_not_cached(self, tmp_path, monkeypatch):
        cfg = load_config(minicorpus.materialize(tmp_path, seed=17))
        run_pipeline(cfg)

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        with monkeypatch.context() as m:
            m.setattr(semantic_mod, "ingest_test_results", interrupt)
            with pytest.raises(KeyboardInterrupt):
                run_pipeline(cfg, force=True)
        summary = run_pipeline(cfg)
        assert summary["semantic"] == "ran"
        report = json.loads((cfg.workspace_dir / "report" / "summary.json").read_text())
        assert report["semantic"] != {"status": "skipped"}
        assert report["semantic"]["executed"] == 35

    def test_interrupt_stops_parallel_adapters(self, tmp_path):
        # what Ctrl-C in a terminal sends
        returncode = _stop_parallel_run(tmp_path, lambda run: os.killpg(run.pid, signal.SIGINT))
        assert returncode == -signal.SIGINT

    def test_sigterm_stops_parallel_adapters(self, tmp_path):
        returncode = _stop_parallel_run(tmp_path, lambda run: os.kill(run.pid, signal.SIGTERM))
        assert returncode == 128 + signal.SIGTERM

    def test_workspace_lock(self, tmp_path, capsys):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        cfg = load_config(config_path)
        lock = cfg.workspace_dir / ".lock"
        cfg.workspace_dir.mkdir(parents=True, exist_ok=True)
        # what older versions left behind when killed: the pid of a run that is gone
        gone = subprocess.run([PY, "-c", "import os; print(os.getpid())"], capture_output=True, text=True, check=True)
        lock.write_text(gone.stdout.strip(), encoding="utf-8")
        assert run_pipeline(cfg, stages=["prepare"]) == {"prepare": "ran"}
        holder_code = (
            "import fcntl, os, sys, time\n"
            "fcntl.flock(os.open(sys.argv[1], os.O_RDWR), fcntl.LOCK_EX)\n"
            "print('held', flush=True)\n"
            "time.sleep(60)\n"
        )
        with subprocess.Popen([PY, "-c", holder_code, str(lock)], stdout=subprocess.PIPE, text=True) as holder:
            try:
                assert holder.stdout.readline() == "held\n"
                with pytest.raises(WorkspaceLockedError):
                    run_pipeline(cfg, stages=["prepare"])
                capsys.readouterr()
                assert main(["run", "--config", str(config_path), "--stages", "prepare"]) == 2
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1 and err[0].startswith("error: workspace is locked by another run")
            finally:
                holder.kill()
        assert holder.returncode == -signal.SIGKILL
        # the kernel dropped the dead holder's lock; the file stays
        assert run_pipeline(cfg, stages=["prepare"]) == {"prepare": "cached"}
        assert lock.is_file()

    def test_killed_run_resumes_without_cleanup(self, tmp_path):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        plain = config_path.read_bytes()
        sleeper = tmp_path / "sleeper.py"
        sleeper.write_text(_SLEEPER, encoding="utf-8")
        cfg = _edit_config(config_path, lambda doc: doc["adapters"]["repairer"].update(
            command=f"{PY} {sleeper} repairer {{input}} {{output}}"))
        pid_file = cfg.workspace_dir / "repair" / "output" / "sleeper.pid"
        pid = None
        with subprocess.Popen([PY, "-m", "apreval.cli", "run", "--config", str(config_path)], cwd=tmp_path,
                              env=_adapter_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) as run:
            try:
                deadline = time.monotonic() + 60.0
                while not (pid_file.is_file() and pid_file.read_text()):
                    assert run.poll() is None and time.monotonic() < deadline
                    time.sleep(0.05)
                pid = int(pid_file.read_text())
            finally:
                run.kill()
                # the repair pass leads its own process group, which outlives the run
                if pid is not None and _pid_alive(pid):
                    os.killpg(pid, signal.SIGKILL)
        assert run.returncode == -signal.SIGKILL
        config_path.write_bytes(plain)
        cfg = load_config(config_path)
        assert run_pipeline(cfg)["repair"] == "ran"
        summary = cfg.workspace_dir / "report" / "summary.json"
        assert hashlib.sha256(summary.read_bytes()).hexdigest() == MINI_SUMMARY_SHA256
        assert set(run_pipeline(cfg).values()) == {"cached"}

    def test_compiler_naming_a_file_outside_the_corpus_fails_prepare(self, tmp_path, capsys):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        (tmp_path / "outside.txt").write_text("not part of the corpus\n", encoding="utf-8")
        compiler = tmp_path / "compiler.py"
        compiler.write_text(_OUTSIDE_COMPILER, encoding="utf-8")
        cfg = _edit_config(config_path, lambda doc: doc["adapters"]["compiler"].update(
            command=f"{{python}} {compiler} {{input}} {{output}}"))
        assert main(["run", "--config", str(config_path), "--stages", "prepare"]) == 2
        assert "'../outside.txt', not a normal relative path" in capsys.readouterr().err
        assert not (cfg.workspace_dir / "prepare" / "sources").exists()
        assert [path.name for path in tmp_path.rglob("outside.txt")] == ["outside.txt"]
        assert not (cfg.workspace_dir / "prepare" / "outside.txt").exists()


#: a compiler that accepts a file beside the corpus, outside it
_OUTSIDE_COMPILER = """\
import json, sys
from pathlib import Path
out = Path(sys.argv[2])
out.mkdir(parents=True, exist_ok=True)
(out / "compile_results.json").write_text(json.dumps([{"file": "../outside.txt", "ok": True}]))
"""

#: where a layout puts the corpus, its workspace, and the config key refused, relative to the config
OVERLAPS = {
    "workspace-is-corpus": ("corpus", "corpus", "workspace_dir"),
    "workspace-in-corpus": ("corpus", "corpus/ws", "workspace_dir"),
    "corpus-is-a-stage-dir": ("prepare", ".", "corpus_dir"),
    "corpus-in-a-stage-dir": ("ws/metrics/corpus", "ws", "corpus_dir"),
    "corpus-in-a-set-aside-stage-dir": ("ws/.newviol.prev/corpus", "ws", "corpus_dir"),
}


class TestWorkspaceCorpusOverlap:
    @pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
    @pytest.mark.parametrize("corpus, workspace, key", OVERLAPS.values(), ids=list(OVERLAPS))
    def test_overlap_is_refused_before_anything_is_written(self, tmp_path, capsys, corpus, workspace, key, flag):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        if corpus != "corpus":
            (tmp_path / corpus).parent.mkdir(parents=True, exist_ok=True)
            os.replace(tmp_path / "corpus", tmp_path / corpus)

        def edit(doc):
            doc["corpus_dir"] = corpus
            if not flag:
                doc["workspace_dir"] = workspace

        _edit_config(config_path, edit)
        before = sorted(tmp_path.rglob("*"))
        argv = ["run", "--config", str(config_path)] + (["--workspace", str(tmp_path / workspace)] if flag else [])
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"config error: {key}: must not ")
        assert sorted(tmp_path.rglob("*")) == before
        assert len(list((tmp_path / corpus).glob("*.java"))) == 12

    def test_corpus_beside_the_stage_directories_is_legal(self, tmp_path):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        cfg = _edit_config(config_path, lambda doc: doc.update(workspace_dir="."))
        assert run_pipeline(cfg, stages=["prepare"]) == {"prepare": "ran"}
        assert len(list((tmp_path / "prepare" / "sources").glob("*.java"))) == 12
        assert run_pipeline(cfg, stages=["prepare"]) == {"prepare": "cached"}


def _edit_config(config_path: Path, edit) -> PipelineConfig:
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    edit(doc)
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    return load_config(config_path)


def _unbind(*roles):
    def edit(doc):
        for role in roles:
            doc["adapters"][role] = "skip"
    return edit


#: writes one SonarQube-style issue without ``textRange.endLine`` per Java file
_JSON_ANALYZER = """\
import json, sys
from pathlib import Path
src, out = Path(sys.argv[1]), Path(sys.argv[2])
issues = [
    {"component": "proj:" + p.relative_to(src).as_posix(), "rule": "java:S1118",
     "textRange": {"startLine": 1}, "severity": "MAJOR", "type": "CODE_SMELL", "message": "m"}
    for p in sorted(src.rglob("*.java"))
]
out.mkdir(parents=True, exist_ok=True)
(out / "report.json").write_text(json.dumps({"total": len(issues), "issues": issues}))
"""


class TestStageFate:
    def test_unbound_roles_drop_their_axes(self, tmp_path):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        run_pipeline(load_config(config_path))
        cfg = _edit_config(config_path, _unbind("test_runner", "metric_extractor"))
        summary = run_pipeline(cfg)
        assert summary["semantic"] == "skipped (test_runner role not bound)"
        assert summary["metrics"] == "skipped (metric_extractor role not bound)"
        assert summary["report"] == "ran"
        report = json.loads((cfg.workspace_dir / "report" / "summary.json").read_text())
        assert report["semantic"] == {"status": "skipped"}
        assert report["metrics"] == {"status": "skipped"}
        assert not (cfg.workspace_dir / "report" / "structural_stats.csv").exists()
        state = json.loads((cfg.workspace_dir / "state.json").read_text())
        for stage in ("semantic", "metrics"):
            assert not (cfg.workspace_dir / stage).exists()
            assert stage not in state["stages"]
        assert run_pipeline(cfg)["report"] == "cached"

    def test_unbound_repairer_drops_repair(self, tmp_path):
        config_path = minicorpus.materialize(tmp_path, seed=17)
        run_pipeline(load_config(config_path), stages=["prepare", "analyze_pre", "repair", "analyze_post"])
        cfg = _edit_config(config_path, _unbind("repairer"))
        run = PipelineRun(cfg)
        with pytest.raises(MissingStageOutputError) as err:
            run.run(stages=["repair", "analyze_post"])
        assert run.summary["repair"] == "skipped (repairer role not bound)"
        assert err.value.stage == "analyze_post"
        assert err.value.path == str(cfg.workspace_dir / "repair" / "output")
        assert not (cfg.workspace_dir / "repair").exists()
        state = json.loads((cfg.workspace_dir / "state.json").read_text())
        assert "repair" not in state["stages"]
        assert state["stages"]["analyze_post"]["status"] == "ok"

    @pytest.mark.parametrize("stage, missing", [
        ("repair", "prepare/sources"),
        ("fixrate", "analyze_pre/pre_violations.csv"),
        ("sample", "newviol/new_violations.csv"),
        ("report", "fixrate/fixrate.json"),
    ])
    def test_missing_input_names_stage_and_path(self, tmp_path, stage, missing):
        cfg = load_config(minicorpus.materialize(tmp_path, seed=17))
        with pytest.raises(MissingStageOutputError) as err:
            run_pipeline(cfg, stages=[stage])
        path = str(cfg.workspace_dir / missing)
        assert (err.value.stage, err.value.path) == (stage, path)
        assert str(err.value) == f"required output of stage {stage!r} not found: {path}"
        assert not (cfg.workspace_dir / stage).exists()

    def test_unbound_role_skips_before_inputs_are_read(self, tmp_path):
        cfg = _edit_config(minicorpus.materialize(tmp_path, seed=17), _unbind("analyzer"))
        assert run_pipeline(cfg, stages=["analyze_pre"]) == {
            "analyze_pre": "skipped (analyzer role not bound)"
        }

    def test_no_compiler_and_no_declared_report(self, tmp_path):
        # prepare takes every corpus file, a symlink to a file too but nothing
        # under a symlinked directory; analyze reads the one file its tool wrote
        def edit(doc):
            doc["adapters"]["compiler"] = "skip"
            del doc["adapters"]["analyzer"]["expected_artifacts"]

        cfg = _edit_config(minicorpus.materialize(tmp_path, seed=17), edit)
        corpus = cfg.corpus_dir
        files = sorted(p.name for p in corpus.iterdir())
        (corpus / "sub").mkdir()
        os.symlink(corpus / files[0], corpus / "sub" / "Link.java")
        os.symlink(corpus / "sub", corpus / "linked")
        assert run_pipeline(cfg, stages=["prepare", "analyze_pre"]) == {"prepare": "ran", "analyze_pre": "ran"}
        ws = cfg.workspace_dir
        assert (ws / "prepare" / "compilable.txt").read_text(encoding="utf-8").splitlines() == files + ["sub/Link.java"]
        assert sorted(p.name for p in (ws / "analyze_pre" / "raw").iterdir()) == [
            "adapter_stderr.log", "adapter_stdout.log", "violations.csv"]
        assert "sub/Link.java" in (ws / "analyze_pre" / "pre_violations.csv").read_text(encoding="utf-8")

    def test_report_adapter_options_change_reruns_analysis(self, tmp_path):
        script = tmp_path / "json_analyzer.py"
        script.write_text(_JSON_ANALYZER, encoding="utf-8")

        def json_analyzer(fallback):
            def edit(doc):
                doc["adapters"]["analyzer"] = {"command": f"{{python}} {script} {{input}} {{output}}",
                                               "expected_artifacts": ["report.json"]}
                doc["report_adapter"] = "analyzer-json"
                doc["report_adapter_options"] = {"end_line_fallback": fallback}
            return edit

        config_path = minicorpus.materialize(tmp_path, seed=17)
        cfg = _edit_config(config_path, json_analyzer(True))
        assert run_pipeline(cfg, stages=["prepare", "analyze_pre"])["analyze_pre"] == "ran"
        cfg = _edit_config(config_path, json_analyzer(False))
        with pytest.raises(StageFailureError, match="textRange.endLine"):
            run_pipeline(cfg, stages=["prepare", "analyze_pre"])


class TestEmitReports:
    def test_missing_metrics_marked_skipped(self, tmp_path):
        cfg = load_config(minicorpus.materialize(tmp_path, seed=17))
        run_pipeline(cfg)
        shutil.rmtree(cfg.workspace_dir / "metrics")
        summary = emit_reports(cfg.workspace_dir)
        assert summary["metrics"] == {"status": "skipped"}
        assert "overall" in summary["fixrate"]

    def test_missing_fixrate_is_an_error(self, tmp_path):
        with pytest.raises(MissingStageOutputError):
            emit_reports(tmp_path)


#: a stub tool ``argv[2]`` that first sleeps ``argv[1]`` seconds
_SLOW = """\
import os, sys, time
time.sleep(float(sys.argv[1]))
os.execv(sys.executable, [sys.executable, "-m", "apreval.stubs", *sys.argv[2:]])
"""


def _slow_tools(tmp_path: Path, jobs: int, **delays: float) -> PipelineConfig:
    """The mini-corpus config with ``jobs`` and each role in ``delays`` slowed down."""
    script = tmp_path / "slow.py"
    script.write_text(_SLOW, encoding="utf-8")
    stubs = {"analyzer": "analyzer", "test_runner": "testrunner", "metric_extractor": "metrics"}

    def edit(doc):
        doc["jobs"] = jobs
        for role, delay in delays.items():
            doc["adapters"][role]["command"] = f"{{python}} {script} {delay} {stubs[role]} {{input}} {{output}}"

    return _edit_config(minicorpus.materialize(tmp_path, seed=17), edit)


#: the stub tool ``argv[3:]``, first sleeping ``argv[2]`` seconds, that
#: appends its start and end time to the log ``argv[1]``
_LOGGED = """\
import subprocess, sys, time
start = time.time()
time.sleep(float(sys.argv[2]))
code = subprocess.call([sys.executable, "-m", "apreval.stubs", *sys.argv[3:]])
with open(sys.argv[1], "a", encoding="utf-8") as log:
    log.write(f"{start!r} {time.time()!r}\\n")
sys.exit(code)
"""


def _logged_tools(tmp_path: Path, jobs: int, **delays: float) -> tuple[PipelineConfig, Path]:
    """The mini-corpus config with ``jobs``, every tool logging its interval
    and each role in ``delays`` slowed down; returns it and the log."""
    script, log = tmp_path / "logged.py", tmp_path / "calls.log"
    script.write_text(_LOGGED, encoding="utf-8")
    stubs = {"analyzer": "analyzer", "repairer": "repairer", "test_runner": "testrunner",
             "metric_extractor": "metrics", "compiler": "compiler"}

    def edit(doc):
        doc["jobs"] = jobs
        for role, stub in stubs.items():
            delay = delays.get(role, 0)
            doc["adapters"][role]["command"] = f"{{python}} {script} {log} {delay} {stub} {{input}} {{output}}"

    return _edit_config(minicorpus.materialize(tmp_path, seed=17), edit), log


def _windows(cfg) -> dict[str, tuple[float, float]]:
    state = json.loads((cfg.workspace_dir / "state.json").read_text(encoding="utf-8"))
    return {name: (record["started"], record["finished"]) for name, record in state["stages"].items()}


class TestStageOverlap:
    def test_upstream_stages_are_derived_from_the_inputs(self, tmp_path):
        # on a workspace with no stage output yet, as on a cold run
        run = PipelineRun(load_config(minicorpus.materialize(tmp_path, seed=17)))
        assert {stage.name: run._upstream(stage) for stage in STAGES} == {
            "prepare": set(),
            "analyze_pre": {"prepare"},
            "repair": {"prepare", "analyze_pre"},
            "analyze_post": {"repair"},
            "fixrate": {"analyze_pre", "analyze_post", "repair"},
            "newviol": {"analyze_pre", "analyze_post", "repair"},
            "sample": {"newviol", "repair"},
            "semantic": {"repair"},
            "metrics": {"repair"},
            "report": {"fixrate", "newviol", "sample", "semantic", "metrics"},
        }

    def test_declared_inputs_are_earlier_outputs_and_cover_each_handoff_read(self):
        # each input of a stage is written before it runs, so no stage waits on itself
        earlier = set()
        for stage in STAGES:
            for path in stage.needs + stage.optional:
                assert path == CORPUS or path.split("/")[0] in earlier, (stage.name, path)
            # a stage copies from one of its inputs into its own directory
            if stage.copies:
                src, *made = stage.copies
                assert src in stage.needs and {path.split("/")[0] for path in made} == {stage.name}, stage.name
            earlier.add(stage.name)
        # a hand-off lives while a stage left to run declares it as an input
        declared = {stage.name: stage.needs + stage.optional for stage in STAGES}
        for label, (handoff, _, readers) in HANDOFF_READERS.items():
            for name in readers:
                assert any((handoff + "/").startswith(top + "/") for top in declared[name]), (label, name)

    def test_report_waits_for_a_slow_test_runner(self, tmp_path):
        cfg = _slow_tools(tmp_path, 2, test_runner=1.0)
        run_pipeline(cfg)
        report = json.loads((cfg.workspace_dir / "report" / "summary.json").read_text(encoding="utf-8"))
        assert report["semantic"]["executed"] == 35

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_independent_stages_overlap_only_above_one_job(self, tmp_path, jobs):
        cfg = _slow_tools(tmp_path, jobs, test_runner=0.3, metric_extractor=0.3)
        run_pipeline(cfg)
        windows = _windows(cfg)
        (sem_start, sem_end), (met_start, met_end) = windows["semantic"], windows["metrics"]
        post_start, post_end = windows["analyze_post"]
        if jobs == 1:
            assert post_end <= sem_start and sem_end <= met_start
        else:
            assert max(sem_start, met_start) < post_end < min(sem_end, met_end)
        assert windows["report"][0] >= max(end for name, (_, end) in windows.items() if name != "report")

    def test_one_job_runs_in_process_stages_beside_one_tool(self, tmp_path):
        cfg, log = _logged_tools(tmp_path, 1, test_runner=0.3)
        run_pipeline(cfg)
        calls = sorted(tuple(map(float, line.split())) for line in log.read_text(encoding="utf-8").splitlines())
        assert len(calls) == 9
        # one adapter at a time
        assert all(end <= start for (_, end), (start, _) in zip(calls, calls[1:]))
        windows = _windows(cfg)
        tools = [name for name in STAGE_ORDER if name not in IN_PROCESS_STAGES]
        for earlier, later in zip(tools, tools[1:]):
            assert windows[earlier][1] <= windows[later][0], (earlier, later)
        # newviol computes while semantic's tools run
        (sem_start, sem_end), (new_start, new_end) = windows["semantic"], windows["newviol"]
        assert sem_start < new_end and new_start < sem_end
        assert windows["report"][0] >= max(end for name, (_, end) in windows.items() if name != "report")

    def test_calls_s_sums_the_adapter_calls_of_each_stage(self, tmp_path):
        cfg, log = _logged_tools(tmp_path, 1, test_runner=0.3)
        run_pipeline(cfg)
        state = json.loads((cfg.workspace_dir / "state.json").read_text(encoding="utf-8"))["stages"]
        calls_s = {name: record["calls_s"] for name, record in state.items()}
        assert {name for name, seconds in calls_s.items() if seconds == 0} == set(IN_PROCESS_STAGES)
        for name, record in state.items():
            assert calls_s[name] <= record["finished"] - record["started"], name
        # timed around each whole call: the tool's own run plus its spawn
        logged = sum(end - start for start, end in
                     (map(float, line.split()) for line in log.read_text(encoding="utf-8").splitlines()))
        assert logged <= sum(calls_s.values())
        assert calls_s["semantic"] >= 0.6  # its two test runner calls sleep 0.3 s each

    @pytest.mark.parametrize("stop, code", [
        # Ctrl-C: the run dies of SIGINT, which a shell shows as status 130
        (lambda run: os.killpg(run.pid, signal.SIGINT), -signal.SIGINT),
        (lambda run: os.kill(run.pid, signal.SIGTERM), 128 + signal.SIGTERM),
    ], ids=["ctrl-c", "sigterm"])
    def test_one_job_stops_while_newviol_computes_beside_a_tool(self, tmp_path, stop, code):
        assert _stop_parallel_run(tmp_path, stop, jobs=1) == code
        cfg = load_config(minicorpus.materialize(tmp_path, seed=17))  # the stub tools again
        run_pipeline(cfg)
        summary = cfg.workspace_dir / "report" / "summary.json"
        assert hashlib.sha256(summary.read_bytes()).hexdigest() == MINI_SUMMARY_SHA256

    def test_failed_stage_starts_no_other(self, tmp_path, monkeypatch):
        # the analyzer fails on repair/output while semantic and metrics run
        script = tmp_path / "analyzer.py"
        script.write_text(
            "import os, sys\n"
            "from pathlib import Path\n"
            "if Path(sys.argv[1]).name == 'output':\n"
            "    sys.exit(7)\n"
            "os.execv(sys.executable, [sys.executable, '-m', 'apreval.stubs', 'analyzer', *sys.argv[1:]])\n",
            encoding="utf-8",
        )
        cfg = _slow_tools(tmp_path, 2, test_runner=0.5)
        config_path = tmp_path / "config.json"
        _edit_config(config_path, lambda doc: doc["adapters"]["analyzer"].update(
            command=f"{{python}} {script} {{input}} {{output}}"))
        at_unlock = []
        unlock = pipeline._WorkspaceLock.__exit__
        threads = set(threading.enumerate())

        def recording_unlock(self, *exc):
            at_unlock.append(([t.name for t in threading.enumerate() if t not in threads],
                              len(pipeline._running_adapters)))
            return unlock(self, *exc)

        monkeypatch.setattr(pipeline._WorkspaceLock, "__exit__", recording_unlock)
        assert main(["run", "--config", str(config_path)]) == 3
        # every worker and adapter was done before the workspace lock went
        assert at_unlock == [([], 0)]
        state = json.loads((cfg.workspace_dir / "state.json").read_text(encoding="utf-8"))["stages"]
        assert state["analyze_post"]["status"] == "failed"
        assert {name: record["status"] for name, record in state.items() if name != "analyze_post"} == dict.fromkeys(
            ["prepare", "analyze_pre", "repair", "semantic", "metrics"], "ok")
        for stage in ("fixrate", "newviol", "sample", "report"):
            assert not (cfg.workspace_dir / stage).exists()

    def test_jobs_give_the_same_workspace_cold_and_after_an_edit(self, reuse_root, tmp_path):
        serial = _copy_run(reuse_root, tmp_path / "serial")
        parallel = load_config(minicorpus.materialize(tmp_path / "parallel", seed=17))
        run_pipeline(parallel, jobs=2)
        assert _workspace_bytes(parallel) == _workspace_bytes(serial)
        for cfg, jobs in ((serial, 1), (parallel, 2)):
            _neutral_edit(cfg)
            run_pipeline(cfg, jobs=jobs)
        assert _workspace_bytes(parallel) == _workspace_bytes(serial)

    def test_more_workers_than_cores_lose_no_update(self, reuse_root, tmp_path, monkeypatch):
        # the six calls after repair all run at once, switching threads often
        cfg = load_config(minicorpus.materialize(tmp_path / "parallel", seed=17))
        outputs = _spy_adapter_outputs(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_pipeline(cfg, jobs=8)
        finally:
            sys.setswitchinterval(interval)
        assert len(outputs) == 9
        assert not pipeline._running_adapters
        assert _workspace_bytes(cfg) == _workspace_bytes(_copy_run(reuse_root, tmp_path / "serial"))
