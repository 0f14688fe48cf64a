"""Scripted stand-ins for the external tools the pipeline orchestrates.

Each stub is a real subprocess entry point (``python -m apreval.stubs
<role> <input> <output>``) so the adapter machinery -- command templates,
timeouts, artifact checks, log capture -- is exercised for real, while the
tool behavior itself is driven by comment markers embedded in the corpus
files:

    // @viol:S1118:CodeSmell:Medium <message>   analyzer reports this line
    // @stubborn                                repairer cannot fix this one
    // @repair:delete-all                       repairer empties the file
    // @broken:<diagnostic>                     compiler rejects the file
    // @assertbroken                            a test asserts wrongly here
    // @failing-on-original                     test fails even before repair

The repairer applies scripted edits that reproduce the failure modes of
interest: marker removal (fix), private-constructor injection (new
violation + line shift + access regression), constant renaming, file
deletion, and one file broken outright.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from collections import Counter
from pathlib import Path

VIOL_RE = re.compile(r"//\s*@viol:(S\d{1,5}):(\w+):(\w+)\s*(.*)$")
BROKEN_RE = re.compile(r"//\s*@broken:\s*(.+)$")
CLASS_RE = re.compile(r"^\s*(?:public\s+|private\s+|protected\s+)?(?:abstract\s+|final\s+)?class\s+(\w+)")
METHOD_RE = re.compile(r"\b(?:void|int|long|double|float|boolean|String)\s+\w+\s*\(")
CALL_RE = re.compile(r"\w\.\w+\s*\(")
NEW_RE = re.compile(r"\bnew\s+[A-Z]\w*")
PUBLIC_ATTR_RE = re.compile(r"^\s*public\s+(?:static\s+)?(?!class\b)\w+(?:<[^>]*>)?\s+\w+\s*[=;]")
# one scan per file: the class name a per-class pattern would hold is captured in a lookahead
EXTENDS_RE = re.compile(r"\bextends\s+(?=(\w+))")
SUBCLASS_RE = re.compile(r"class\s+(?=(\w+)\s+extends\b)")

#: rules the scripted repairer knows how to fix, a subset of the profile
FIXABLE_RULES = {
    "S1118", "S1068", "S1854", "S1481", "S1132", "S1444", "S2184", "S2142",
    "S1948", "S2095", "S4973", "S2057", "S2111", "S1656", "S2755", "S1155",
    "S2116", "S1217", "S2272", "S1860", "S2164",
}


def _java_files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*.java") if p.is_file())


def _rel(path: Path, root: Path) -> str:
    return path.relative_to(root).as_posix()


def _write_csv(path: Path, rows: list) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def run_analyzer(input_dir: Path, output_dir: Path) -> None:
    """Emit one violation row per @viol marker, in native CSV format."""
    output_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for path in _java_files(input_dir):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            m = VIOL_RE.search(line)
            if m:
                rule, vtype, severity, message = m.groups()
                rows.append((_rel(path, input_dir), rule, vtype, severity, lineno, lineno, message.strip()))
    rows.sort()
    _write_csv(output_dir / "violations.csv",
               [("file", "rule", "type", "severity", "start_line", "end_line", "message"), *rows])


def _repair_lines(lines: list[str], class_name: str | None, rules: set[str]) -> list[str]:
    """Apply the scripted per-file edits for the given fixable rules."""
    out: list[str] = []
    fixed_utility_ctor = False
    fixed_serial_uid = False
    severed_reference = False
    for line in lines:
        m = VIOL_RE.search(line)
        if not m or m.group(1) not in rules or "@stubborn" in line:
            out.append(line)
            continue
        rule = m.group(1)
        code = line[: m.start()].rstrip()
        if rule in ("S1068", "S1854", "S1481"):
            # unused code: the whole line is removed; a fragile line was
            # still referenced elsewhere, so removing it breaks the build
            if "@fragile" in line:
                severed_reference = True
            continue
        if rule == "S1444":
            out.append(
                "    public static final int MAX_LIMIT = 1;"
                " // @viol:S115:CodeSmell:High constant renamed by tool"
            )
            continue
        if rule == "S2184":
            # cast appended; the expression now runs in float precision,
            # a finding the repairer itself cannot clear on a later pass
            out.append(
                code.replace("= ", "= (float) ", 1)
                + " // @viol:S2164:Bug:Low float arithmetic introduced by cast fix @stubborn"
            )
            continue
        if rule == "S1132":
            out.append(code + " // @assertbroken literal swap changed comparison result")
            continue
        if rule == "S1118":
            fixed_utility_ctor = True
        if rule == "S2057":
            fixed_serial_uid = True
        if code:
            out.append(code)  # marker stripped: the finding is gone
    insertions = []
    if fixed_utility_ctor and class_name:
        insertions.append(
            f"    private {class_name}() {{}}"
            " // @viol:S1106:CodeSmell:Low brace placement of injected constructor"
        )
    if fixed_serial_uid:
        insertions.append(
            "    private static final long serialVersionUID = 1L;"
            " // @viol:S4926:CodeSmell:Low serialVersionUID declared blindly"
        )
    if insertions:
        for i, line in enumerate(out):
            if CLASS_RE.match(line):
                out[i + 1 : i + 1] = insertions
                break
    if severed_reference:
        out.append("// @broken: cannot find symbol")
    return out


def run_repairer(input_dir: Path, output_dir: Path, rule: str | None = None) -> None:
    """Copy the tree, applying scripted fixes (for one rule, or all)."""
    output_dir.mkdir(parents=True, exist_ok=True)
    rules = {rule} if rule else set(FIXABLE_RULES)
    for path in _java_files(input_dir):
        text = path.read_text(encoding="utf-8")
        dest = output_dir / path.relative_to(input_dir)
        dest.parent.mkdir(parents=True, exist_ok=True)
        if "@repair:delete-all" in text:
            dest.write_text("", encoding="utf-8")
            continue
        lines = text.splitlines()
        class_name = None
        for line in lines:
            m = CLASS_RE.match(line)
            if m:
                class_name = m.group(1)
                break
        repaired = _repair_lines(lines, class_name, rules)
        dest.write_text("\n".join(repaired) + ("\n" if repaired else ""), encoding="utf-8")


def run_testrunner(input_dir: Path, output_dir: Path) -> None:
    """Emit three deterministic per-file test outcomes from content markers."""
    output_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for path in _java_files(input_dir):
        rel = _rel(path, input_dir)
        text = path.read_text(encoding="utf-8")
        stem = path.stem
        tests = [f"{stem}Test.testConstruct", f"{stem}Test.testBehavior", f"{stem}Test.testEdge"]
        if not text.strip() or BROKEN_RE.search(text):
            for t in tests:
                rows.append((t, rel, "fail", f"java.lang.NoClassDefFoundError: {stem}"))
            continue
        statuses: dict[str, tuple[str, str]] = {t: ("pass", "") for t in tests}
        if f"private {stem}()" in text:
            statuses[tests[0]] = (
                "fail",
                f"java.lang.IllegalAccessError: class {stem}Test tried to access private method of {stem}",
            )
        if "@assertbroken" in text:
            statuses[tests[1]] = ("fail", "java.lang.AssertionError: expected:<1> but was:<2>")
        if "@failing-on-original" in text:
            statuses[tests[2]] = ("fail", "java.lang.ArithmeticException: / by zero")
        for t in tests:
            status, kind = statuses[t]
            rows.append((t, rel, status, kind))
    rows.sort()
    _write_csv(output_dir / "results.csv", [("test_id", "target_file", "status", "failure_kind"), *rows])


def run_compiler(input_dir: Path, output_dir: Path) -> None:
    """Reject files carrying a @broken marker or unbalanced braces."""
    output_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for path in _java_files(input_dir):
        text = path.read_text(encoding="utf-8")
        m = BROKEN_RE.search(text)
        if m:
            results.append({"file": _rel(path, input_dir), "ok": False, "diagnostic": f"error: {m.group(1).strip()}"})
        elif text.count("{") != text.count("}"):
            results.append({"file": _rel(path, input_dir), "ok": False, "diagnostic": "error: reached end of file while parsing"})
        else:
            results.append({"file": _rel(path, input_dir), "ok": True, "diagnostic": ""})
    with (output_dir / "compile_results.json").open("w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _class_blocks(lines: list[str]) -> list[tuple[str, list[str]]]:
    """Split a file into (class name, attributed lines) blocks."""
    blocks: list[tuple[str, list[str]]] = []
    current: list[str] | None = None
    for line in lines:
        m = CLASS_RE.match(line)
        if m:
            current = [line]
            blocks.append((m.group(1), current))
        elif current is not None:
            current.append(line)
    return blocks


def run_metrics(input_dir: Path, output_dir: Path) -> None:
    """Compute toy but deterministic class metrics from the source text."""
    output_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for path in _java_files(input_dir):
        rel = _rel(path, input_dir)
        lines = path.read_text(encoding="utf-8").splitlines()
        text = "\n".join(lines)
        children = Counter(EXTENDS_RE.findall(text))
        subclasses = set(SUBCLASS_RE.findall(text))
        for class_name, block in _class_blocks(lines):
            body = [l for l in block if l.strip()]
            loc = len(body)
            wmc = sum(1 for l in body if METHOD_RE.search(l))
            rfc = wmc + sum(1 for l in body if CALL_RE.search(l))
            cbo = len(set(NEW_RE.findall("\n".join(body))))
            npa = sum(1 for l in body if PUBLIC_ATTR_RE.match(l))
            noc = children[class_name]
            dit = 2 if class_name in subclasses else 1
            cohesion_links = sum(1 for l in body if "this." in l)
            lcom1 = max(0, wmc * (wmc - 1) // 2 - cohesion_links)
            rows.append((rel, class_name, noc, npa, dit, lcom1, wmc, cbo, rfc, loc))
    rows.sort()
    _write_csv(output_dir / "class_metrics.csv",
               [("file", "class", "noc", "npa", "dit", "lcom1", "wmc", "cbo", "rfc", "loc"), *rows])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="apreval.stubs", description=__doc__)
    sub = parser.add_subparsers(dest="role", required=True)
    for role in ("analyzer", "repairer", "testrunner", "compiler", "metrics"):
        p = sub.add_parser(role)
        p.add_argument("input", type=Path)
        p.add_argument("output", type=Path)
        if role == "repairer":
            p.add_argument("--rule", default=None)
    args = parser.parse_args(argv)
    if not args.input.is_dir():
        print(f"input directory not found: {args.input}", file=sys.stderr)
        return 2
    if args.role == "analyzer":
        run_analyzer(args.input, args.output)
    elif args.role == "repairer":
        run_repairer(args.input, args.output, args.rule)
    elif args.role == "testrunner":
        run_testrunner(args.input, args.output)
    elif args.role == "compiler":
        run_compiler(args.input, args.output)
    elif args.role == "metrics":
        run_metrics(args.input, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
