"""docs/OBSERVABILITY.md's metric catalog must match what the code
records.

The catalog tables are the operator-facing contract for dashboards and
alerts, so drift is a bug in either direction:

* a metric the code records that no catalog row covers — undocumented
  telemetry;
* a catalog row no recording site backs — documentation for a metric
  that does not exist.

Names are gathered two ways.  *Dynamically*: real pipeline runs (serial
with the decision journal, parallel, resilient-parallel under chaos)
populate a registry whose keys are ground truth.  *Statically*: metric
name literals and f-string templates are extracted from the modules
whose paths a unit test cannot cheaply drive end-to-end (the router's
asyncio server, the css96 comparator).
"""

from __future__ import annotations

import os
import re

import pytest

from repro.frontend.lower import compile_source
from repro.observability import Observability
from repro.observability.decisions import DecisionJournal
from repro.promotion.pipeline import PromotionPipeline
from repro.robustness import ChaosConfig, ResilienceOptions

SOURCE = """
int a = 0;
int b = 0;
int left(int k) {
    for (int i = 0; i < 4; i++) a += k;
    return a;
}
int right(int k) {
    for (int i = 0; i < 3; i++) b += k;
    return b;
}
int main() {
    print(left(2) + right(3));
    return 0;
}
"""

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DOC = os.path.join(REPO, "docs", "OBSERVABILITY.md")
SRC = os.path.join(REPO, "src", "repro")

#: Catalog rows look like ``| `name` | kind | ... |`` with the suffix
#: shorthand ``a.b/.c`` and ``<kind>``-style dynamic segments.
_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|")


def documented_patterns():
    """The catalog as (pattern, regex) pairs, shorthand expanded."""
    patterns = []
    with open(DOC) as handle:
        for line in handle:
            match = _ROW.match(line.strip())
            if not match:
                continue
            name = match.group(1).replace(" ", "").replace("\n", "")
            parts = name.split("/")
            expanded = [parts[0]]
            for part in parts[1:]:
                assert part.startswith("."), (
                    f"catalog shorthand {name!r}: every alternative after "
                    f"the first must start with '.' (suffix replacement)"
                )
                depth = part.count(".")
                base = expanded[0].rsplit(".", depth)[0]
                expanded.append(base + part)
            patterns.extend(expanded)
    assert patterns, "no catalog rows found — did the table format change?"
    return [(p, _pattern_regex(p)) for p in patterns]


def _pattern_regex(pattern: str) -> "re.Pattern[str]":
    literal_parts = re.split(r"<[^>]*>", pattern)
    regex = "[^.]+".join(re.escape(part) for part in literal_parts)
    return re.compile("^" + regex + "$")


def recorded_names():
    """Ground truth, union of dynamic registry keys and static literals."""
    names = set()

    module = compile_source(SOURCE)
    obs = Observability.recording()
    PromotionPipeline(observability=obs, decisions=DecisionJournal()).run(module)
    names.update(obs.metrics.as_dict())

    module = compile_source(SOURCE)
    obs = Observability.recording()
    PromotionPipeline(observability=obs, jobs=2).run(module)
    names.update(obs.metrics.as_dict())

    module = compile_source(SOURCE)
    obs = Observability.recording()
    PromotionPipeline(
        observability=obs,
        jobs=2,
        resilience=ResilienceOptions(
            retries=2,
            seed=7,
            chaos=ChaosConfig(transient=0.8, seed=7),
        ),
    ).run(module)
    names.update(obs.metrics.as_dict())

    names.update(_static_names("service/router.py"))
    names.update(_static_names("ssa/css96.py"))
    names.update(_static_names("promotion/pipeline.py"))
    # The translated tier's counters need a run past the tier-up budget.
    names.update(_static_names("profile/interp.py"))
    # resilience.<outcome> is recorded via string concatenation; the
    # chaos run above covers "transient", these cover the rest.
    names.update({"resilience.timeout", "resilience.worker_crash"})
    return names


_LITERAL = re.compile(
    r"""\.(?:inc|set|observe)\(\s*f?"([a-z_.{}\[\]a-zA-Z0-9]+)"\s*[,)]"""
)


def _static_names(relpath: str):
    """Metric names literally present in one source file; f-string
    ``{...}`` holes become one sample segment so templates like
    ``router.backend.{state.id}.jobs`` match ``<id>`` catalog rows."""
    with open(os.path.join(SRC, relpath)) as handle:
        source = handle.read()
    for match in _LITERAL.finditer(source):
        name = re.sub(r"\{[^}]*\}", "sample", match.group(1))
        if "." in name:  # span attrs and units use dotless names
            yield name


def _is_documented(name, patterns):
    if any(regex.match(name) for _, regex in patterns):
        return True
    # A template hole substituted with "sample" (e.g. router.skips.{reason}
    # → router.skips.sample) may be documented as enumerated rows rather
    # than a <placeholder>; accept it when the template, re-wildcarded,
    # matches some concrete documented name.
    if "sample" in name.split("."):
        template = re.compile(
            "^"
            + ".".join(
                "[^.]+" if seg == "sample" else re.escape(seg)
                for seg in name.split(".")
            )
            + "$"
        )
        return any(
            template.match(pattern)
            for pattern, _ in patterns
            if "<" not in pattern
        )
    return False


def test_every_recorded_metric_is_documented():
    patterns = documented_patterns()
    undocumented = sorted(
        name
        for name in recorded_names()
        if not _is_documented(name, patterns)
    )
    assert not undocumented, (
        "metrics recorded by the code but missing from "
        f"docs/OBSERVABILITY.md: {undocumented}"
    )


def test_every_documented_metric_is_recorded():
    names = recorded_names()
    # A recorded template (sample-substituted f-string) backs every
    # concrete documented name it can instantiate.
    template_regexes = [
        re.compile(
            "^"
            + ".".join(
                "[^.]+" if seg == "sample" else re.escape(seg)
                for seg in name.split(".")
            )
            + "$"
        )
        for name in names
        if "sample" in name.split(".")
    ]
    stale = sorted(
        pattern
        for pattern, regex in documented_patterns()
        if not any(regex.match(name) for name in names)
        and not any(t.match(pattern) for t in template_regexes if "<" not in pattern)
    )
    assert not stale, (
        "docs/OBSERVABILITY.md catalogs metrics nothing records "
        f"anymore: {stale}"
    )


@pytest.mark.parametrize(
    "shorthand, expected",
    [
        (
            "promotion.webs_seen/.webs_promoted",
            ["promotion.webs_seen", "promotion.webs_promoted"],
        ),
        (
            "cache.<kind>.hits/.misses",
            ["cache.<kind>.hits", "cache.<kind>.misses"],
        ),
    ],
)
def test_shorthand_expansion(shorthand, expected):
    parts = shorthand.split("/")
    expanded = [parts[0]]
    for part in parts[1:]:
        depth = part.count(".")
        expanded.append(parts[0].rsplit(".", depth)[0] + part)
    assert expanded == expected
