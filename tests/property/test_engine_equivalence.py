"""Differential property: the three interpreter engines agree on random
programs, before and after promotion.

Each engine runs on its own (``_run_engine``), so the translated tier is
exercised even on programs too short to leave tier 0 in a tiered run.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend.lower import compile_source
from repro.promotion.pipeline import PromotionPipeline

from tests.profile.test_compiled_engine import assert_engines_agree
from tests.property.genprog import random_program

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(st.integers(0, 10**9))
def test_engines_agree_on_random_programs(seed):
    source = random_program(seed)
    module = compile_source(source)
    before = assert_engines_agree(module, max_steps=2_000_000)
    assert PromotionPipeline(max_steps=2_000_000).run(module).output_matches
    after = assert_engines_agree(module, max_steps=2_000_000)
    assert (after["output"], after["return_value"], after["globals"]) == (
        before["output"],
        before["return_value"],
        before["globals"],
    )
