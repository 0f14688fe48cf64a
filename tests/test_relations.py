"""Whole-pipeline metamorphic relations on variants of the bundled mini-corpus.

Each relation changes the corpus in a way that, by the definitions of the
four axes, cannot change a score, runs the whole pipeline on it with the
bundled stub tools (one repair pass), and checks that ``report/summary.json``
keeps the bytes of the unchanged corpus's run.
"""

import re
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apreval import minicorpus
from apreval.pipeline import load_config, run_pipeline

SEED = 17

#: each corpus file's text, by file name
CORPUS = {
    name: resources.files("apreval.minicorpus").joinpath(name).read_text(encoding="utf-8")
    for name in minicorpus.corpus_file_names()
}

#: a class name that occurs nowhere in the corpus, so no file or class name contains it
fresh_names = st.from_regex(r"[A-Z][a-z]{2,6}[A-Z]?[a-z]{0,3}", fullmatch=True).filter(
    lambda name: not any(name in text for text in CORPUS.values())
)

#: class members that carry no finding, with the other markers the stub tools act on
clean_members = st.sampled_from([
    "    private int count;",
    "    public static final String NAME = \"clean\";",
    "    public int size() { return this.count; }",
    "    void run() { helper.call(); }",
    "    Object make() { return new Object(); }",
    "    // @stubborn @assertbroken @failing-on-original",
    "",
])


def _summary(root, edit) -> bytes:
    """The ``summary.json`` of a run on the mini-corpus after ``edit(corpus_dir)``."""
    cfg = load_config(minicorpus.materialize(root, seed=SEED))
    edit(cfg.corpus_dir)
    run_pipeline(cfg, jobs=2)
    return (cfg.workspace_dir / "report" / "summary.json").read_bytes()


@pytest.fixture(scope="module")
def base_summary(tmp_path_factory) -> bytes:
    return _summary(tmp_path_factory.mktemp("base"), lambda corpus: None)


@settings(max_examples=5, deadline=None)
@given(name=fresh_names, members=st.lists(clean_members, max_size=6), nested=st.booleans())
def test_a_clean_class_changes_no_score(base_summary, tmp_path_factory, name, members, nested):
    # it is never sent to repair, so no axis sees it
    def add(corpus):
        path = corpus / ("extra" if nested else "") / f"{name}.java"
        path.parent.mkdir(exist_ok=True)
        path.write_text(f"public class {name} {{\n" + "".join(m + "\n" for m in members) + "}\n", encoding="utf-8")

    assert _summary(tmp_path_factory.mktemp("clean"), add) == base_summary


@settings(max_examples=5, deadline=None)
@given(old=st.sampled_from(sorted(CORPUS)), new=fresh_names)
def test_renaming_a_file_and_its_class_changes_no_score(base_summary, tmp_path_factory, old, new):
    # scores are counts by rule, type, severity and metric, never by name
    def rename(corpus):
        path = corpus / old
        path.with_name(f"{new}.java").write_text(
            re.sub(rf"\b{path.stem}\b", new, path.read_text(encoding="utf-8")), encoding="utf-8")
        path.unlink()

    assert _summary(tmp_path_factory.mktemp("renamed"), rename) == base_summary
