"""Tool-agnostic evaluation harness for automated program repair.

Four analysis axes over a repaired corpus: fix rate of targeted
static-analysis violations, repair-introduced new violations, functional
behavior preservation via test-outcome diffing, and structural-quality
impact via paired code-metric statistics.

The public names below are imported on first access (PEP 562), so a
process that needs one submodule -- such as a ``python -m apreval.stubs``
tool spawned once per rule -- does not pay for importing all of them.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("HarnessError",),
    "fixrate": ("compute_fix_rates", "match_violations", "summarize_fix_rate"),
    "metrics": ("aggregate_file_metrics", "pair_pre_post", "structural_report"),
    "newviol": (
        "SourcePair",
        "VerdictKind",
        "detect_new_violations",
        "extract_fragment",
    ),
    "sampling": (
        "cochran_sample_size",
        "exact_binomial_test",
        "export_labeling_sheet",
        "ingest_labels",
        "stratified_sample",
    ),
    "semantic": (
        "classify_compile_error",
        "classify_failure",
        "diff_test_outcomes",
        "filter_baseline",
        "ingest_test_results",
        "summarize_semantic",
    ),
    "stats": (
        "Direction",
        "PairedSeries",
        "StatResult",
        "dagostino_pearson",
        "signed_rank_direction",
        "wilcoxon_signed_rank",
    ),
    "terms": ("SORALD_30", "NormalizationPolicy", "RuleProfile", "StateLabel"),
    "violations": (
        "Severity",
        "Violation",
        "ViolationKey",
        "ViolationReport",
        "ViolationType",
        "normalize_report",
        "parse_report",
        "serialize_report",
    ),
}

_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE_OF)


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
