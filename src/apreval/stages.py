"""The ten stage bodies, which build what ``pipeline.STAGES`` declares.

``BODIES`` maps each stage name to its body, ``body(run, stage_dir)``,
which builds ``workspace/<stage>/``. The body of a stage declared with
``tools`` is a generator function: it yields each batch of adapter calls
and is sent their results. Each axis stage makes the one call of its axis
module that its ``apreval <axis>`` command makes too, such as
``fixrate.score_fix_rate``. This module imports the axis modules at its
top, and ``PipelineRun._run_stage`` imports it at a run's first rebuild,
so a run whose stages are all cached loads none of them.

Bodies call ``pipeline.run_tool_adapter`` and the axis functions through
their modules, so that what a module holds when a stage runs is what runs.
Parsed values pass between stages as hand-offs, each a workspace path and
how its value is loaded from there: a value handed on is used only while
its file is unchanged, and the run drops it once no stage left to run
declares that path, or a directory above it, as an input. A body reads a
hand-off only under its stage's declared inputs, whose digest has just
put the file's sha256 in the memo.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import shutil
from functools import partial
from pathlib import Path
from typing import Any, Callable, Collection, Iterable, Iterator

from . import newviol, pipeline, semantic, violations
from .errors import MissingArtifactError, StageFailureError
from .fixrate import restrict_to_files, score_fix_rate
from .metrics import score_metrics
from .pipeline import (_ADAPTER_LOGS, _COMPILABLE, _NEW_CSV, _POST_CSV, _PRE_CSV, _REPAIR_OUT, _SOURCES, _TREES,
                       _VIOLATING, ROLES, PipelineRun, ToolAdapter, _analyzer_fingerprint, _digest_paths, _listing,
                       _memo_sha256, _newviol_fingerprint, _placeholders, _read_lines, _walk_files, emit_reports)
from .sampling import sample_new
from .terms import RuleProfile, StateLabel
from .violations import ViolationReport, finding_digests, json_text, parse_file, write_report

#: hex digits of a file's key in the ``newviol`` record
_KEY_LEN = 16

#: the values stages hand on: each a workspace path and how its value is loaded from there
_PRE_REPORT = (_PRE_CSV, partial(violations.read_report, state=StateLabel.PRE_REPAIR))
_POST_REPORT = (_POST_CSV, partial(violations.read_report, state=StateLabel.POST_REPAIR))
_NEW = (_NEW_CSV, lambda path: newviol.load_new(path))  # its number of rows and NEW violations


def _hand_off(run: PipelineRun, path: str, value: object) -> None:
    """Hand on ``value``, which is what the hand-off at ``path`` loads from the file just written."""
    run._handoffs[path] = (_digest_paths(run._at(path), "", run._memo), value)


def _parsed(run: PipelineRun, handoff: tuple[str, Callable], files: Collection[str] | None = None) -> Any:
    """``handoff``'s value as handed on, if its file still has the digest
    it had then, or else loaded from it, once per run.

    With ``files``, a report hand-off's findings in those files alone: a
    stale value is then not loaded whole, but from its CSV's rows of those
    files, and not kept. The digest comes from the memo, which the reading
    stage's input digest has just filled.
    """
    path, load = handoff
    digest = _digest_paths(run._at(path), "", run._memo)
    entry = run._handoffs.get(path)
    if entry is None or entry[0] != digest:
        if files is not None:
            return load(run.workspace / path, files=files)
        entry = run._handoffs[path] = (digest, load(run.workspace / path))
    return entry[1] if files is None else restrict_to_files(entry[1], files)


def _written(top: Path) -> list[str]:
    """The relative path of each file a tool wrote under ``top``: all but the
    adapter's own logs at its top."""
    return [rel for rel, _ in _walk_files(str(top)) if rel not in _ADAPTER_LOGS]


def _artifact(adapter: ToolAdapter, out_dir: Path) -> Path:
    """The file a call of ``adapter`` left in ``out_dir`` for its stage to read:
    its role's file in ``ROLES``, else its first declared artifact, else the
    first file it wrote by relative path; one missing raises :class:`MissingArtifactError`."""
    name = (ROLES.get(adapter.name) or next(iter(adapter.expected_artifacts), None)
            or min(_written(out_dir), default=None))
    if name is None or not (out_dir / name).is_file():
        raise MissingArtifactError(adapter.name, name or "<analysis report>")
    return out_dir / name


def prepare_corpus_violating(
    compilable: Iterable[str], report: ViolationReport, profile: RuleProfile
) -> list[str]:
    """Files carrying at least one in-profile violation; the repair input."""
    rules = set(profile.rules)
    violating = {v.file_id for v in report.entries if v.rule in rules}
    return sorted(set(compilable) & violating)


def load_sources(original_dir: Path, repaired_dir: Path, originals: bool = True) -> newviol.SourceTrees:
    """SourcePairs for every file present in the original tree, each read at
    lookup; with ``originals=False``, pairs of the repaired lines alone. A
    tree that is not a directory raises ``FileNotFoundError``: a repaired one
    would read as every file deleted."""
    for tree in (original_dir, repaired_dir):
        if not tree.is_dir():
            raise FileNotFoundError(f"{tree} is not a directory")
    return newviol.SourceTrees(original_dir, repaired_dir, [rel for rel, _ in _walk_files(str(original_dir))],
                               originals)


def _copy_files(src: Path, rels: Iterable[str], dest: Path, link: bool = False) -> None:
    """Copy each relative path ``rels`` names from under ``src`` into the new
    directory ``dest``; with ``link``, hard-link it where the filesystem allows."""
    os.mkdir(dest)
    made = {""}  # the parents made so far, relative to dest
    for rel in rels:
        parent = os.path.dirname(rel)
        if parent not in made:
            os.makedirs(os.path.join(dest, parent), exist_ok=True)
            made.add(parent)
        source, target = os.path.join(src, rel), os.path.join(dest, rel)
        if link:
            try:
                os.link(source, target)
                continue
            except OSError:  # EPERM, EXDEV, EMLINK: copied instead
                pass
        shutil.copyfile(source, target)


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def _prepare(run: PipelineRun, stage_dir: Path) -> Iterator[list]:
    compiler = run.config.adapters.get("compiler")
    corpus = run.config.corpus_dir
    if compiler is not None:
        yield [partial(pipeline.run_tool_adapter, compiler, corpus, stage_dir / "raw")]
        compilable, rejected = semantic.read_compile_results(_artifact(compiler, stage_dir / "raw"))
    else:
        # the listing the input digest has just put in the memo
        compilable = sorted(rel for rel, _ in _listing(os.path.abspath(corpus), run._memo))
        rejected = {}
    for rel in compilable:
        if "\n" in rel or "\r" in rel:  # a list file could not give it back
            raise StageFailureError("prepare", f"corpus file name holds a line break: {rel!r}")
    _copy_files(corpus, compilable, run.workspace / _SOURCES)
    (stage_dir / "rejected.json").write_text(json_text(rejected), encoding="utf-8")
    _write_lines(run.workspace / _COMPILABLE, compilable)


def _analyze(tree: str, state: StateLabel, handoff: tuple[str, Callable], run: PipelineRun,
             stage_dir: Path) -> Iterator[list]:
    analyzer = run.config.adapters["analyzer"]
    raw = stage_dir / "raw"
    yield [partial(pipeline.run_tool_adapter, analyzer, run.workspace / tree, raw)]
    report_file = _artifact(analyzer, raw)
    csv_path = run.workspace / handoff[0]
    # the same raw report, read the same way, gives the same CSV: move the old one in
    if run._reused(stage_dir, csv_path.name, _digest_paths([report_file], _analyzer_fingerprint(run), run._memo)):
        return
    options = run.config.report_adapter_options
    report = parse_file(report_file, lambda data: violations.parse_report(data, run.config.report_adapter, state,
                                                                          options))
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        write_report(fh, report.entries)
    # a CSV re-read gives this same report back, so later stages need not parse
    _hand_off(run, handoff[0], report)


def _repair(run: PipelineRun, stage_dir: Path) -> Iterator[list]:
    repairer = run.config.adapters["repairer"]
    sources, compilable_txt = run._at(_SOURCES, _COMPILABLE)
    violating = prepare_corpus_violating(_read_lines(compilable_txt), _parsed(run, _PRE_REPORT), run.profile)
    _write_lines(run.workspace / _VIOLATING, violating)
    input_dir, output_dir = run._at(*_TREES)
    # hard links: a tool's write in place shows in prepare/sources too, and both cache checks see it
    _copy_files(sources, violating, input_dir, link=True)
    if "rule" in _placeholders(repairer.command_template):
        # one sequential pass per profile rule, in application order
        current = input_dir
        for i, rule in enumerate(run.profile.rules):
            pass_dir = stage_dir / f"pass_{i:02d}_{rule}"
            yield [partial(pipeline.run_tool_adapter, repairer, current, pass_dir, rule=rule)]
            current = pass_dir
        # a copy, so that an edit of repair/output leaves the last pass as it was
        _copy_files(current, _written(current), output_dir)
    else:
        yield [partial(pipeline.run_tool_adapter, repairer, input_dir, output_dir)]


def _fixrate(run: PipelineRun, stage_dir: Path) -> None:
    pre = restrict_to_files(_parsed(run, _PRE_REPORT), _read_lines(run.workspace / _VIOLATING))
    score_fix_rate(pre, _parsed(run, _POST_REPORT), run.profile, stage_dir)


def _newviol(run: PipelineRun, stage_dir: Path) -> None:
    """Judge the post findings of each file whose inputs changed since the
    last build, and take the other files' rows from that build. A file's
    verdicts depend only on its original and repaired bytes and its own pre
    (if sent to repair) and post findings; the record keeps a short key of
    these per file."""
    trees = load_sources(*run._at(*_TREES))
    post_rows = finding_digests(run.workspace / _POST_CSV)
    violating = set(_read_lines(run.workspace / _VIOLATING))
    pre_rows = finding_digests(run.workspace / _PRE_CSV, violating & post_rows.keys())
    fingerprint = hashlib.sha256(_newviol_fingerprint(run).encode())
    absent = bytes(32)  # in place of a 32-byte digest

    def key(file_id: str, post: bytes) -> str:
        original, repaired = trees.original(file_id), trees.repaired(file_id)
        h = fingerprint.copy()
        # each part a digest, so only the file id is of varying length
        h.update(b"".join((
            absent if original is None else _memo_sha256(original, run._memo),
            _memo_sha256(repaired, run._memo) if original and os.path.isfile(repaired) else absent,
            pre_rows.get(file_id, absent),
            post,
        )))
        h.update(file_id.encode())
        return h.hexdigest()[:_KEY_LEN]

    keys = {file_id: key(file_id, post) for file_id, post in post_rows.items()}
    prev_dir, old, record = run._rebuilds["newviol"]
    old_keys = old.get("files", "")
    old_keys = {old_keys[i : i + _KEY_LEN] for i in range(0, len(old_keys), _KEY_LEN)}
    kept = {file_id for file_id, k in keys.items() if k in old_keys}
    changed = keys.keys() - kept
    rows: Iterable = ()
    if changed:  # judged and written one file at a time
        pre, post = _parsed(run, _PRE_REPORT, changed & violating), _parsed(run, _POST_REPORT, changed)
        rows = newviol.verdict_rows(newviol.judge_files(pre, post, trees, run.config.normalization))
    if kept:
        # both in canonical order, which groups the rows by file
        old_rows = newviol.read_verdict_rows(prev_dir / "new_violations.csv", kept)
        rows = heapq.merge(old_rows, rows, key=lambda item: item[0][0])
    record["files"] = "".join(sorted(keys.values()))
    # a re-read gives these same rows back, so sample and report need not parse
    _hand_off(run, _NEW_CSV, newviol.write_newviol(stage_dir, rows, trees.deleted()))


def _sample(run: PipelineRun, stage_dir: Path) -> None:
    new = _parsed(run, _NEW)[1]
    # the sheet shows repaired code alone, so no original file is read
    sources = load_sources(*run._at(*_TREES), originals=False)
    sample_new(new, run.config.sampling, run.config.seed, sources,
               stage_dir / "sheet.csv", stage_dir / "allocation.json")


def _semantic(run: PipelineRun, stage_dir: Path) -> Iterator[list]:
    runner = run.config.adapters["test_runner"]
    compiler = run.config.adapters.get("compiler")
    repair_in, repair_out = run._at(*_TREES)
    calls = [
        *run._step(stage_dir, "baseline_raw", runner, repair_in),
        partial(pipeline.run_tool_adapter, runner, repair_out, stage_dir / "repaired_raw"),
    ]
    if compiler is not None:
        calls.append(partial(pipeline.run_tool_adapter, compiler, repair_out, stage_dir / "compile_raw"))
    yield calls
    diagnostics = (semantic.read_compile_results(_artifact(compiler, stage_dir / "compile_raw"))[1]
                   if compiler is not None else {})
    semantic.score_semantic(_artifact(runner, stage_dir / "baseline_raw"),
                            _artifact(runner, stage_dir / "repaired_raw"), diagnostics, stage_dir)


def _metrics(run: PipelineRun, stage_dir: Path) -> Iterator[list]:
    extractor = run.config.adapters["metric_extractor"]
    repair_in, repair_out = run._at(*_TREES)
    yield [
        *run._step(stage_dir, "pre_raw", extractor, repair_in),
        partial(pipeline.run_tool_adapter, extractor, repair_out, stage_dir / "post_raw"),
    ]
    score_metrics(_artifact(extractor, stage_dir / "pre_raw"), _artifact(extractor, stage_dir / "post_raw"), stage_dir)


def _report(run: PipelineRun, stage_dir: Path) -> None:
    emit_reports(run.workspace, lambda path: _parsed(run, _NEW))


#: each stage's body, in ``STAGES`` order
BODIES = {
    "prepare": _prepare,
    "analyze_pre": partial(_analyze, _SOURCES, StateLabel.PRE_REPAIR, _PRE_REPORT),
    "repair": _repair,
    "analyze_post": partial(_analyze, _REPAIR_OUT, StateLabel.POST_REPAIR, _POST_REPORT),
    "fixrate": _fixrate,
    "newviol": _newviol,
    "sample": _sample,
    "semantic": _semantic,
    "metrics": _metrics,
    "report": _report,
}
