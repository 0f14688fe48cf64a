"""Seeded workload generators and their expected answers.

Each workload writes a corpus, the tool data it needs and a pipeline
``config.json`` into a fresh directory. The program under test only ever
sees those generated files. The expected ``summary.json`` of every workload
is derived here, from the generator's own construction, never from
``apreval`` itself:

* ``mini_per_rule``: the bundled 12-file mini-corpus with a per-rule
  repairer (30 sequential repair passes). Its summary is pinned by digest.
* ``replicated_corpus``: the mini-corpus copied ``K`` times under renamed
  classes. Every count in the summary is exactly ``K`` times the
  mini-corpus count.
* ``large_files_replay``: about 200 generated files of about 1,500 lines,
  driven by replay tools (``replay.py``) that copy pre-generated reports,
  repaired trees, test results, compile results and metrics. The generator
  knows the verdict of every finding by construction.

None of this module imports ``apreval``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import re
import shlex
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
MINICORPUS_DIR = SRC_DIR / "apreval" / "minicorpus"
REPLAY_SCRIPT = BENCH_DIR / "replay.py"

STUB_TIMEOUT = 120.0
ROLES_STUB = {
    "analyzer": ("analyzer", ["violations.csv"]),
    "repairer": ("repairer", []),
    "test_runner": ("testrunner", ["results.csv"]),
    "metric_extractor": ("metrics", ["class_metrics.csv"]),
    "compiler": ("compiler", ["compile_results.json"]),
}

#: sha256 of ``report/summary.json`` for the mini-corpus at config seed 17.
#: The single-pass and the per-rule repairer give the same bytes.
MINI_SUMMARY_SHA256 = "cd2c4f24d5c2ff3c612b3e9a5125eded5d715061edc71a86daf3283a2f4389af"
MINI_CONFIG_SEED = 17

#: The mini-corpus counts that ``replicated_corpus`` scales by ``K``.
MINI_COUNTS = {
    "pre_total": 22,
    "fixed_total": 18,
    "post_violations": 16,
    "total_new": 5,
    "new_matrix": {"Bug/Low": 1, "CodeSmell/High": 1, "CodeSmell/Low": 3},
    "new_rules": {"S1106": 2, "S115": 1, "S2164": 1, "S4926": 1},
    "executed": 35,
    "failed": 9,
    "failure_histogram": {"Assertion": 1, "IllegalAccess": 2, "NoClassDef": 6},
    "compile_error_histogram": {"CannotFindSymbol": 1},
    "uncompilable_files": 1,
    "n_pairs": 11,
    "excluded": 1,
}

SORALD_30 = (
    "S1118", "S1068", "S1854", "S1481", "S1132", "S1444", "S2184", "S2142",
    "S1948", "S2095", "S4973", "S2057", "S2111", "S1656", "S2755", "S1155",
    "S2116", "S1217", "S2272", "S1860", "S2097", "S3067", "S3984", "S3032",
    "S4065", "S2167", "S1596", "S2204", "S2225", "S2164",
)
METRIC_NAMES = ("noc", "npa", "dit", "lcom1", "wmc", "cbo", "rfc", "loc")
Z_95 = 1.96


def cochran(population: int, z: float = Z_95, margin: float = 0.05, p: float = 0.5) -> int:
    """Cochran's sample size with finite-population correction, rounded up."""
    n0 = z * z * p * (1.0 - p) / (margin * margin)
    return min(math.ceil(n0 / (1.0 + (n0 - 1.0) / population)), population)


def _config(seed: int, command) -> dict:
    """A pipeline config whose role commands come from ``command(role, stub)``."""
    adapters = {}
    for role, (stub, artifacts) in ROLES_STUB.items():
        adapters[role] = {"command": command(role, stub), "timeout": STUB_TIMEOUT}
        if artifacts:
            adapters[role]["expected_artifacts"] = artifacts
    return {
        "corpus_dir": "corpus",
        "workspace_dir": "workspace",
        "profile": "sorald-30",
        "seed": seed,
        "normalization": "exact",
        "adapters": adapters,
    }


def _stub_config(seed: int, repairer_suffix: str = "") -> dict:
    return _config(seed, lambda role, stub: f"{{python}} -m apreval.stubs {stub} {{input}} {{output}}"
                   + (repairer_suffix if role == "repairer" else ""))


def _write_config(dest: Path, config: dict) -> Path:
    path = dest / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path


def mini_corpus_texts() -> dict[str, str]:
    """The bundled mini-corpus, read from the checkout's source tree."""
    return {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted(MINICORPUS_DIR.glob("*.java"))
    }


# --- checks -------------------------------------------------------------------


def _diff(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


def _top_rules(freq: Counter) -> list[list]:
    return [[r, n] for r, n in sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))]


def _check_sample(sample: dict, population: int, rules: Counter) -> list[str]:
    errors = _diff("sample.population", sample.get("population"), population)
    target = cochran(population)
    errors += _diff("sample.target_n", sample.get("target_n"), target)
    allocation = sample.get("allocation", {})
    errors += _diff("sample.allocation total", sum(allocation.values()), target)
    errors += _diff("sample.allocation rules", sorted(allocation), sorted(rules))
    return errors


def _check_semantic(sem: dict, executed: int, failed: int, hist: dict, excluded: int,
                    compile_hist: dict, uncompilable: int) -> list[str]:
    errors = _diff("semantic.executed", sem.get("executed"), executed)
    errors += _diff("semantic.failed", sem.get("failed"), failed)
    errors += _diff("semantic.failure_histogram", sem.get("failure_histogram"), hist)
    errors += _diff("semantic.excluded_simulation_artifacts",
                    sem.get("excluded_simulation_artifacts"), excluded)
    errors += _diff("semantic.compile_error_histogram", sem.get("compile_error_histogram"), compile_hist)
    errors += _diff("semantic.uncompilable_files", sem.get("uncompilable_files"), uncompilable)
    return errors


# --- workloads ----------------------------------------------------------------


@dataclass
class Workload:
    """One generated input set plus the checks for what the program prints."""

    name: str
    why: str
    jobs: int | None = None
    #: immediate reruns per cold run (every stage cached)
    warm_runs: int = 3
    #: one-file edits, each followed by a rerun, per cold run
    incremental_runs: int = 1
    #: whether the config drives the bundled stub tools
    uses_stubs: bool = True
    sizes: dict = field(default_factory=dict)

    def setup(self, dest: Path, seed: int) -> Path:
        """Write corpus, tool data and config into ``dest``; return the config."""
        raise NotImplementedError

    def check_summary(self, dest: Path, summary_bytes: bytes) -> list[str]:
        """Mismatches between a ``summary.json`` and the expected answer."""
        raise NotImplementedError

    def check_workspace(self, dest: Path) -> list[str]:
        """Extra checks on intermediate outputs the summary does not show."""
        return []


class MiniPerRule(Workload):
    def __init__(self) -> None:
        super().__init__(
            name="mini_per_rule",
            why="12 tiny files, 30 sequential per-rule repair passes: bound by adapter spawn and import cost",
            warm_runs=5,
            incremental_runs=2,
        )
        self.sizes = {"files": 12, "repair_passes": 30}

    def setup(self, dest: Path, seed: int) -> Path:
        corpus = dest / "corpus"
        corpus.mkdir(parents=True)
        for name, text in mini_corpus_texts().items():
            (corpus / name).write_text(text, encoding="utf-8")
        # the summary is pinned at one config seed; the benchmark seed only
        # chooses which repaired file the incremental runs edit
        return _write_config(dest, _stub_config(MINI_CONFIG_SEED, " --rule {rule}"))

    def check_summary(self, dest: Path, summary_bytes: bytes) -> list[str]:
        digest = hashlib.sha256(summary_bytes).hexdigest()
        return _diff("summary.json sha256", digest, MINI_SUMMARY_SHA256)


_DECL_RE = re.compile(r"\bclass\s+([A-Z]\w*)")


def replicate_texts(texts: dict[str, str], suffix: str) -> dict[str, str]:
    """Rename every declared class (and so each file stem) by ``suffix``.

    Stub test ids come from the file stem and must be unique across the
    corpus, so ``Shapes.java`` becomes ``Shapes<suffix>.java`` with every
    use of ``Shapes`` (``extends`` clauses included) rewritten alike.
    """
    declared = sorted({m for t in texts.values() for m in _DECL_RE.findall(t)}, key=len, reverse=True)
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, declared)) + r")\b")
    out = {}
    for name, text in texts.items():
        stem = name[: -len(".java")]
        out[f"{stem}{suffix}.java"] = pattern.sub(lambda m: m.group(1) + suffix, text)
    return out


class ReplicatedCorpus(Workload):
    def __init__(self, replicas: int = 100) -> None:
        super().__init__(
            name="replicated_corpus",
            why="mini-corpus copied 100 times (1,200 small files), one repair pass, --jobs 2: bound by file count",
            jobs=2,
            warm_runs=3,
            incremental_runs=1,
        )
        self.replicas = replicas
        self.sizes = {"files": 12 * replicas, "replicas": replicas, "jobs": 2}

    def setup(self, dest: Path, seed: int) -> Path:
        corpus = dest / "corpus"
        corpus.mkdir(parents=True)
        base = mini_corpus_texts()
        offset = random.Random(seed).randrange(100_000)
        for i in range(self.replicas):
            suffix = f"R{(offset + i) % 100_000:05d}"
            for name, text in replicate_texts(base, suffix).items():
                (corpus / name).write_text(text, encoding="utf-8")
        return _write_config(dest, _stub_config(seed))

    def check_summary(self, dest: Path, summary_bytes: bytes) -> list[str]:
        k = self.replicas
        c = MINI_COUNTS
        s = json.loads(summary_bytes)
        scaled = lambda d: {key: n * k for key, n in d.items()}  # noqa: E731
        fr = s["fixrate"]["overall"]
        errors = _diff("fixrate.pre_total", fr["pre_total"], c["pre_total"] * k)
        errors += _diff("fixrate.fixed_total", fr["fixed_total"], c["fixed_total"] * k)
        nv = s["newviol"]
        errors += _diff("newviol.post_violations", nv.get("post_violations"), c["post_violations"] * k)
        errors += _diff("newviol.total_new", nv.get("total_new"), c["total_new"] * k)
        errors += _diff("newviol.matrix", nv.get("matrix"), scaled(c["new_matrix"]))
        errors += _diff("newviol.top_rules", nv.get("top_rules"), _top_rules(Counter(scaled(c["new_rules"]))))
        errors += _check_sample(s["sample"], c["total_new"] * k, Counter(c["new_rules"]))
        errors += _check_semantic(
            s["semantic"], c["executed"] * k, c["failed"] * k, scaled(c["failure_histogram"]), 0,
            scaled(c["compile_error_histogram"]), c["uncompilable_files"] * k,
        )
        errors += _diff("metrics.n_pairs", s["metrics"].get("n_pairs"), c["n_pairs"] * k)
        errors += _diff("metrics.excluded", s["metrics"].get("excluded"), c["excluded"] * k)
        return errors


# --- large_files_replay -------------------------------------------------------

#: rules the generated pre reports draw from: the profile plus 56 others
PRE_RULES = SORALD_30 + tuple(f"S{6000 + k}" for k in range(56))
#: rules of repair-introduced findings; disjoint from PRE_RULES, so an
#: introduced finding can never match a pre key
NEW_RULES = ("S1106", "S4926", "S115", "S1192", "S3776", "S1172", "S1135", "S125")
VTYPES = ("Bug", "CodeSmell", "Vulnerability")
SEVERITIES = ("High", "Medium", "Low")
#: (failure kind text, FailureClass the semantic axis must assign)
FAILURE_KINDS = (
    ("java.lang.IllegalAccessError: tried to access private method", "IllegalAccess"),
    ("java.lang.AssertionError: expected:<1> but was:<2>", "Assertion"),
    ("junit.framework.ComparisonFailure: expected:<a> but was:<b>", "Assertion"),
    ("Timeout in Simulation harness", "SimulationArtifact"),
    ("java.lang.NullPointerException", "Other"),
    ("java.lang.IllegalAccessError: class is not accessible", "IllegalAccess"),
)
#: (diagnostic, CompileErrorClass)
DIAGNOSTICS = (
    ("error: cannot find symbol", "CannotFindSymbol"),
    ("error: variable total might not have been initialized", "NotInitialized"),
    ("error: not a statement", "NotAStatement"),
    ("error: incompatible types: int cannot be converted to String", "Other"),
)
STATE_LINE = "// replay-state: {}"


@dataclass
class _Finding:
    rule: str
    vtype: str
    severity: str
    start: int  # 1-based line in the file that carries it
    span: int  # 1 or 2 lines
    message: str


class LargeFilesReplay(Workload):
    def __init__(self, files: int = 200, lines: int = 1500, findings: int = 50,
                 tests: int = 40) -> None:
        super().__init__(
            name="large_files_replay",
            why="200 files of 1,500 lines, 10k findings per report, replayed tools: bound by in-process analysis",
            warm_runs=4,
            incremental_runs=1,
            uses_stubs=False,
        )
        self.files = files
        self.lines = lines
        self.findings = findings
        self.tests = tests
        self.sizes = {"files": files, "lines_per_file": lines, "findings_per_file": findings,
                      "tests_per_file": tests}

    def setup(self, dest: Path, seed: int) -> Path:
        rng = random.Random(seed)
        corpus = dest / "corpus"
        replay = dest / "replay"
        tree = replay / "repaired" / "tree"
        pre_rows: list[tuple] = []
        post_rows: list[tuple] = []
        tests = {"original": [], "repaired": []}
        metrics = {"original": [], "repaired": []}
        compiles = {"original": [], "repaired": []}
        truth = Counter()
        fix_pre: Counter = Counter()
        fix_fixed: Counter = Counter()
        new_matrix: Counter = Counter()
        new_rules: Counter = Counter()
        failed_by_class: Counter = Counter()
        compile_hist: Counter = Counter()
        nonzero: Counter = Counter()
        executed = 0
        for i in range(self.files):
            rel = f"pkg{i % 8}/Gen{i:03d}.java"
            original, repaired, pre, post, verdicts = self._file(rng, i, seed)
            for state, lines, root in (("original", original, corpus), ("repaired", repaired, tree)):
                path = root / rel
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text("\n".join([STATE_LINE.format(state)] + lines) + "\n", encoding="utf-8")
            profile = set(SORALD_30)
            post_keys = {(f.rule, f.start, f.span) for f in post}
            for f in pre:
                pre_rows.append((rel, f.rule, f.vtype, f.severity, f.start, f.start + f.span - 1, f.message))
                if f.rule in profile:
                    fix_pre[f.rule] += 1
                    if (f.rule, f.start, f.span) not in post_keys:
                        fix_fixed[f.rule] += 1
            for f, verdict in zip(post, verdicts):
                post_rows.append((rel, f.rule, f.vtype, f.severity, f.start, f.start + f.span - 1, f.message))
                truth[verdict] += 1
                if verdict == "new":
                    new_matrix[f"{f.vtype}/{f.severity}"] += 1
                    new_rules[f.rule] += 1
            # tests: the first two fail on the original and leave the baseline
            broken = i % 50 == 7
            stem = f"Gen{i:03d}"
            ids = [f"{stem}Test.t{k:02d}" for k in range(self.tests)]
            missing = ids[5] if i % 4 == 0 and not broken else None
            regressing = set(rng.sample(ids[2:], 10))
            executed += len(ids) - 2
            for k, tid in enumerate(ids):
                tests["original"].append(
                    (tid, rel, "fail", "java.lang.ArithmeticException: / by zero") if k < 2
                    else (tid, rel, "pass", ""))
                if tid == missing:
                    failed_by_class["NoClassDef"] += 1
                    continue
                if broken:
                    row = (tid, rel, "fail", f"java.lang.NoClassDefFoundError: {stem}")
                    if k >= 2:
                        failed_by_class["NoClassDef"] += 1
                elif tid in regressing:
                    kind, cls = FAILURE_KINDS[rng.randrange(len(FAILURE_KINDS))]
                    row = (tid, rel, "fail", kind)
                    failed_by_class[cls] += 1
                else:
                    row = tests["original"][-1]
                tests["repaired"].append(row)
            compiles["original"].append({"file": rel, "ok": True, "diagnostic": ""})
            if broken:
                diag, cls = DIAGNOSTICS[(i // 50) % len(DIAGNOSTICS)]
                compiles["repaired"].append({"file": rel, "ok": False, "diagnostic": diag})
                compile_hist[cls] += 1
            else:
                compiles["repaired"].append({"file": rel, "ok": True, "diagnostic": ""})
            # class metrics: three classes per file; only the first changes
            loc_delta = len(repaired) - len(original)
            for c, cls_name in enumerate((stem, f"{stem}Inner", f"{stem}Helper")):
                values = {m: rng.randrange(3, 40) for m in METRIC_NAMES}
                values["dit"] = 1 + (c == 2)
                values["noc"] = int(c == 0)
                after = dict(values)
                if c == 0:
                    after["loc"] += loc_delta
                    for m in ("npa", "wmc", "cbo", "rfc", "lcom1"):
                        after[m] += rng.choice((-2, -1, 0, 1, 2, 3))
                    for m in METRIC_NAMES:
                        nonzero[m] += after[m] != values[m]
                metrics["original"].append((rel, cls_name, *(values[m] for m in METRIC_NAMES)))
                metrics["repaired"].append((rel, cls_name, *(after[m] for m in METRIC_NAMES)))

        header = ("file", "rule", "type", "severity", "start_line", "end_line", "message")
        for state, rows in (("original", pre_rows), ("repaired", post_rows)):
            d = replay / state
            d.mkdir(parents=True, exist_ok=True)
            rows = sorted(rows)
            rng.shuffle(rows)  # analyzers emit in no particular order
            _write_csv(d / "violations.csv", header, rows)
            _write_csv(d / "results.csv", ("test_id", "target_file", "status", "failure_kind"),
                       sorted(tests[state]))
            _write_csv(d / "class_metrics.csv", ("file", "class") + METRIC_NAMES, metrics[state])
            (d / "compile_results.json").write_text(json.dumps(compiles[state], indent=2, sort_keys=True) + "\n",
                                                    encoding="utf-8")

        regressions = sum(failed_by_class.values())
        expected = {
            "verdicts": dict(truth),
            "pre_total": sum(fix_pre.values()),
            "fixed_total": sum(fix_fixed.values()),
            "fix_rows": sorted(
                ([r, fix_pre[r], fix_fixed[r]] for r in fix_pre), key=lambda row: (-row[1], row[0])),
            "post_violations": len(post_rows),
            "new_matrix": dict(sorted(new_matrix.items())),
            "new_rules": new_rules,
            "executed": executed,
            "failed": regressions,
            "failure_histogram": dict(sorted(
                (k, n) for k, n in failed_by_class.items() if k != "SimulationArtifact")),
            "excluded": failed_by_class["SimulationArtifact"],
            "compile_error_histogram": dict(sorted(compile_hist.items())),
            "uncompilable": sum(compile_hist.values()),
            "n_effective": dict(nonzero),
        }
        (dest / "expected.json").write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n",
                                            encoding="utf-8")
        config = _replay_config(seed, replay)
        return _write_config(dest, config)

    def _file(self, rng: random.Random, i: int, seed: int):
        """One original/repaired pair with its pre and post findings.

        Line 1 of each file is the replay state marker, so body line ``j``
        (0-based) sits on file line ``j + 2``. In-place edits go before
        every insertion and deletion, so their findings keep their keys;
        introduced lines carry unique text and rules never used before.
        """
        n_body = self.lines - 1
        body = [f"    int v{i:03d}_{j:04d} = {rng.randrange(1_000_000)};" for j in range(n_body)]
        body[0] = f"public class Gen{i:03d} {{"
        body[-1] = "}"
        # finding positions: distinct, never adjacent, away from the class lines
        slots = sorted(rng.sample(range(2, n_body - 3, 3), self.findings))
        rules = rng.sample(PRE_RULES, self.findings)
        pre = []
        for pos, rule in zip(slots, rules):
            span = 2 if rng.random() < 0.2 else 1
            pre.append(_Finding(rule, rng.choice(VTYPES), rng.choice(SEVERITIES), pos, span,
                                rng.choice(("", "redundant, remove it", 'say "no"', "unused local"))))
        n_edit, n_del = 5, 10
        n_new = 10 + (i % 5 < 3)
        edited = pre[:n_edit]
        rest = pre[n_edit:]
        deleted = {id(f) for f in rng.sample([f for f in rest if f.span == 1], n_del)}
        # insertion points: body lines after the edit region and outside spans
        first_free = edited[-1].start + 3
        busy = {f.start + k for f in pre for k in range(f.span)}
        choices = [j for j in range(first_free, n_body - 1) if j not in busy and j - 1 not in busy]
        insert_at = sorted(rng.sample(choices, n_new))
        by_start = {f.start: f for f in pre}
        edited_ids = {id(f) for f in edited}
        inserts = dict.fromkeys(insert_at)
        repaired: list[str] = []
        post: list[_Finding] = []
        verdicts: list[str] = []
        k_new = 0
        for j, line in enumerate(body):
            if j in inserts:
                f = _Finding(rng.choice(NEW_RULES), rng.choice(VTYPES), rng.choice(SEVERITIES),
                             len(repaired) + 2, 1, "introduced by repair")
                repaired.append(f"    private static final int N{i:03d}_{k_new}_S{seed} = {k_new}; // injected")
                post.append(f)
                verdicts.append("new")
                k_new += 1
            f = by_start.get(j)
            if f is not None and id(f) in deleted:
                continue
            if f is not None:
                moved = _Finding(f.rule, f.vtype, f.severity, len(repaired) + 2, f.span, f.message)
                post.append(moved)
                if id(f) in edited_ids:
                    line = f"    long v{i:03d}_{j:04d} = {j}L; // rewritten in place"
                    verdicts.append("key")
                else:
                    verdicts.append("fragment")
            repaired.append(line)
        for f in pre:
            f.start += 2
        return body, repaired, pre, post, verdicts

    def check_summary(self, dest: Path, summary_bytes: bytes) -> list[str]:
        e = json.loads((dest / "expected.json").read_text(encoding="utf-8"))
        s = json.loads(summary_bytes)
        fr = s["fixrate"]
        errors = _diff("fixrate.pre_total", fr["overall"]["pre_total"], e["pre_total"])
        errors += _diff("fixrate.fixed_total", fr["overall"]["fixed_total"], e["fixed_total"])
        errors += _diff("fixrate.rows", [[r["rule"], r["pre_count"], r["fixed_count"]] for r in fr["rows"]],
                        e["fix_rows"])
        nv = s["newviol"]
        new = e["verdicts"].get("new", 0)
        errors += _diff("newviol.post_violations", nv.get("post_violations"), e["post_violations"])
        errors += _diff("newviol.total_new", nv.get("total_new"), new)
        errors += _diff("newviol.matrix", nv.get("matrix"), e["new_matrix"])
        errors += _diff("newviol.top_rules", nv.get("top_rules"), _top_rules(Counter(e["new_rules"])))
        errors += _check_sample(s["sample"], new, Counter(e["new_rules"]))
        errors += _check_semantic(
            s["semantic"], e["executed"], e["failed"], e["failure_histogram"], e["excluded"],
            e["compile_error_histogram"], e["uncompilable"],
        )
        m = s["metrics"]
        errors += _diff("metrics.n_pairs", m.get("n_pairs"), self.files)
        errors += _diff("metrics.excluded", m.get("excluded"), 0)
        errors += _diff("metrics.n_effective",
                        {p["metric"]: p["n_effective"] for p in m.get("per_metric", [])},
                        {name: e["n_effective"].get(name, 0) for name in METRIC_NAMES})
        return errors

    def check_workspace(self, dest: Path) -> list[str]:
        e = json.loads((dest / "expected.json").read_text(encoding="utf-8"))
        counts = verdict_counts(dest / "workspace" / "newviol" / "new_violations.csv")
        return _diff("new_violations.csv verdicts", counts, _verdict_names(e["verdicts"]))


def _verdict_names(short: dict) -> dict:
    names = {"fragment": "not_new_fragment_found", "key": "not_new_key_match", "new": "new"}
    return {names[k]: n for k, n in short.items()}


def verdict_counts(new_violations_csv: Path) -> dict:
    with new_violations_csv.open(encoding="utf-8", newline="") as fh:
        return dict(Counter(row["verdict"] for row in csv.DictReader(fh)))


def _write_csv(path: Path, header: tuple, rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _replay_config(seed: int, replay: Path) -> dict:
    script, data = shlex.quote(str(REPLAY_SCRIPT)), shlex.quote(str(replay.resolve()))
    return _config(seed, lambda role, _: f"{{python}} {script} {role} {{input}} {{output}} --data {data}")


WORKLOADS = {w.name: w for w in (MiniPerRule(), ReplicatedCorpus(), LargeFilesReplay())}


def edit_target(workspace: Path, seed: int) -> Path:
    """A repaired file whose edit cannot change any verdict.

    Empty files stand for deleted ones, and the stub compiler only sees a
    ``// @broken:`` marker when it ends the file, so both are avoided.
    """
    output = workspace / "repair" / "output"
    candidates = []
    for path in sorted(output.rglob("*.java")):
        text = path.read_text(encoding="utf-8")
        if text.strip() and "@broken" not in text:
            candidates.append(path)
    return random.Random(seed).choice(candidates)


def verdict_neutral_edit(workspace: Path, seed: int, n: int) -> Path:
    """Append the ``n``-th whitespace-only line to one repaired file.

    A blank line at the end shifts no finding, adds no class-metric line
    and carries no tool marker, yet changes the stage digests downstream.
    """
    target = edit_target(workspace, seed)
    with target.open("a", encoding="utf-8") as fh:
        fh.write(" " * (1 + n % 4) + "\n")
    return target

