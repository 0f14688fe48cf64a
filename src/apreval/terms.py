"""The terms a pipeline config is stated in, and all that a cache hit reads.

Rule ids and rule profiles, the corpus-state and normalization labels, the
z values of the supported confidence levels, and the report adapters with
the options each reads. ``load_config`` checks a config against these, and
a run whose stages are all cached needs nothing more: this module imports
neither ``dataclasses`` nor ``csv``, so such a run loads none of the report
parsing in ``violations``, which keeps these names importable as well.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from typing import Mapping, NamedTuple

from .errors import ConfigError

RULE_ID_RE = re.compile(r"S\d{1,5}")


class StateLabel(Enum):
    PRE_REPAIR = "pre"
    POST_REPAIR = "post"


class NormalizationPolicy(Enum):
    """How source lines are compared when a finding's code is searched for."""

    #: lines must be byte-identical
    EXACT = "exact"
    #: trailing whitespace trimmed, leading whitespace collapsed away
    LOOSE = "loose"


#: z critical values for the supported confidence levels of a validation
#: sample; here, so that a config is checked without loading ``sampling``
Z_TABLE = {0.90: 1.645, 0.95: 1.96, 0.99: 2.576}


def check_rule_id(code: str) -> str:
    """Validate an analyzer rule code (``S`` + 1-5 digits) and return it."""
    if not RULE_ID_RE.fullmatch(code):
        raise ValueError(f"invalid rule id {code!r}; expected 'S' followed by 1-5 digits")
    return code


class _RuleProfileFields(NamedTuple):
    name: str
    rules: tuple[str, ...]


class RuleProfile(_RuleProfileFields):
    """An ordered set of rule ids; order is the tool's application order."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RuleProfile:
        self = super().__new__(cls, *args, **kwargs)
        for r in self.rules:
            check_rule_id(r)
        if len(set(self.rules)) != len(self.rules):
            raise ValueError(f"profile {self.name!r} contains duplicate rule ids")
        return self


#: The 30 repairable rules, in the repair tool's application order.
SORALD_30 = RuleProfile(
    name="sorald-30",
    rules=(
        "S1118", "S1068", "S1854", "S1481", "S1132", "S1444", "S2184", "S2142",
        "S1948", "S2095", "S4973", "S2057", "S2111", "S1656", "S2755", "S1155",
        "S2116", "S1217", "S2272", "S1860", "S2097", "S3067", "S3984", "S3032",
        "S4065", "S2167", "S1596", "S2204", "S2225", "S2164",
    ),
)

PROFILES: dict[str, RuleProfile] = {SORALD_30.name: SORALD_30}


def get_profile(name: str) -> RuleProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise ConfigError("profile", f"unknown profile {name!r}; known: {', '.join(sorted(PROFILES))}") from None


#: each report adapter ``violations.parse_report`` takes, and the
#: ``report_adapter_options`` keys it reads
REPORT_ADAPTERS = {"csv": (), "analyzer-json": ("mapping", "end_line_fallback")}


def check_report_adapter(adapter: str, options: Mapping) -> None:
    """Refuse a report adapter with no entry in ``REPORT_ADAPTERS``, an option
    it does not read, or an option value it would refuse."""
    if adapter not in REPORT_ADAPTERS:
        raise ConfigError("report_adapter", f"must be one of {sorted(REPORT_ADAPTERS)}")
    takes = REPORT_ADAPTERS[adapter]
    for key in options:
        if key not in takes:
            raise ConfigError(f"report_adapter_options.{key}",
                              f"the {adapter!r} report adapter takes "
                              + (f"only {', '.join(sorted(takes))}" if takes else "no option"))
    if adapter == "analyzer-json":
        analyzer_json_mapping(options)


def load_data_json(name: str) -> dict:
    """A JSON table packaged in ``apreval.data``."""
    # imported on first use: with zipfile, it costs every start that reads no data file
    from importlib import resources

    with resources.files("apreval.data").joinpath(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def analyzer_json_mapping(options: Mapping) -> dict:
    """The packaged field mapping that ``options`` name, ``sonarqube-9`` by
    default; an ``end_line_fallback`` that is not a boolean is refused too."""
    mappings = load_data_json("analyzer_json_mappings.json")
    name = options.get("mapping", "sonarqube-9")
    if not isinstance(name, str) or name not in mappings:
        raise ConfigError("report_adapter_options.mapping",
                          f"unknown mapping {name!r}; known: {', '.join(sorted(mappings))}")
    if not isinstance(options.get("end_line_fallback", False), bool):
        raise ConfigError("report_adapter_options.end_line_fallback", "must be a boolean")
    return mappings[name]
