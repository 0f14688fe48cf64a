"""The scripted tools that stand in for the external ones."""

import csv
import re
import tempfile
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apreval import stubs

NAMES = ["A", "Base", "Child", "extendsX"]
WHITESPACE = st.sampled_from([" ", "  ", "\t", "\n"])
#: ``class`` or ``extends``, perhaps glued to a word before it (``subclass``,
#: ``Aextends``), then a name or nothing, so that ``extends extends A`` occurs
PHRASE = st.tuples(
    st.sampled_from(["", "sub", "A"]), st.sampled_from(["class", "extends"]), WHITESPACE,
    st.sampled_from([*NAMES, "", ""]),
).map("".join)
BODY = st.lists(st.one_of(PHRASE, PHRASE, st.sampled_from([" ", "\n", " {", "}"])), max_size=16).map("".join)


def _per_class(text: str, class_name: str) -> tuple[int, int]:
    """NOC and DIT as the extractor once computed them, with two patterns per class."""
    noc = len(re.findall(rf"\bextends\s+{class_name}\b", text))
    dit = 2 if re.search(rf"class\s+{class_name}\s+extends\b", text) else 1
    return noc, dit


@settings(max_examples=200, deadline=None)
@given(BODY)
def test_metrics_count_subclasses_as_per_class_patterns(body):
    # every name is declared, so a miscount of any of them shows
    text = "".join(f"class {name} {{\n" for name in NAMES) + body
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp, "in"), Path(tmp, "out")
        src.mkdir()
        (src / "F.java").write_text(text, encoding="utf-8")
        stubs.run_metrics(src, out)
        with (out / "class_metrics.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    # a class cannot be named after a keyword; for ``extends`` the two
    # counts differ, since the per-class pattern cannot overlap itself
    assume(all(row["class"] != "extends" for row in rows))
    text = "\n".join(text.splitlines())
    for row in rows:
        assert (int(row["noc"]), int(row["dit"])) == _per_class(text, row["class"]), row["class"]
