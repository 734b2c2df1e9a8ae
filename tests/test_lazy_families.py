"""The symmetric probe families of a RunContext are built the first time
a row reads them, and then equal the eager expressions they replaced.

``syms_letters``, ``syms_factors`` and ``syms_small`` are cached
properties: a mutation round that stops at a row over word pairs, or a
run of the generic-letter suite alone, never builds them.  The reports
cannot see that, so it is checked here on the contexts themselves.
"""

import pytest

from abhomotopy import suites
from abhomotopy.instances import BUILTINS
from abhomotopy.suites import (
    RunContext,
    SuiteConfig,
    build_instance,
    probe_generators,
    probe_syms,
    probe_words,
    run_mutation,
    run_verify_envelope,
)

from test_slot_memo import FORCED

FAMILIES = ("syms_letters", "syms_factors", "syms_small")
SIZES = {
    "fast": dict(max_word_len=2, max_sym_factors=2, max_total_letters=3, probe_gens=2),
    "default": {},
    "envelope-deep": dict(probe_gens=4),
}


def eager_families(ctx: RunContext, forced: tuple[str, ...]) -> dict:
    """The three families as the context used to build them up front, from
    probe generators chosen here again, the forced ones first."""
    A, config = ctx.algebra, ctx.config
    gens = probe_generators(A, config.probe_gens)
    for gid in reversed(forced):
        g = A.gen(gid)
        if g in gens:
            gens.remove(g)
        gens.insert(0, g)
    pair_words = [w for w in probe_words(gens, config.max_word_len) if len(w) <= 2]
    letters, factors = config.max_total_letters, config.max_sym_factors
    return {
        "syms_letters": probe_syms(A, probe_words(gens, letters), letters, letters),
        "syms_factors": probe_syms(A, pair_words, factors, 2 * factors),
        "syms_small": probe_syms(A, pair_words, 2, 4),
    }


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("size", sorted(SIZES))
@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_each_family_equals_its_eager_expression(builtin, size, forced):
    config = SuiteConfig(algebra=builtin, **SIZES[size])
    gids = FORCED[builtin] if forced else ()
    ctx = RunContext(build_instance(config), config, forced_gens=gids)
    assert not set(FAMILIES) & set(vars(ctx))
    expected = eager_families(ctx, gids)
    for name in FAMILIES:
        family = getattr(ctx, name)
        assert family == expected[name], (name, builtin, size)
        assert getattr(ctx, name) is family  # built once


@pytest.fixture
def contexts(monkeypatch):
    """Every RunContext the run under test makes, and the number of
    probe_syms calls it makes."""
    made, calls = [], []

    class Recorded(RunContext):
        def __post_init__(self):
            super().__post_init__()
            made.append(self)

    def counted(*args):
        calls.append(args)
        return probe_syms(*args)

    monkeypatch.setattr(suites, "RunContext", Recorded)
    monkeypatch.setattr(suites, "probe_syms", counted)
    return made, calls


def test_a_round_stopped_by_antisymmetry_builds_no_family(contexts):
    made, calls = contexts
    # the benchmark's gerstenhaber-toy command: round 0 climbs the whole
    # ladder undetected, round 1 fails lie-bracket-antisymmetry first
    config = SuiteConfig(algebra="gerstenhaber-toy", max_word_len=2, max_sym_factors=2,
                         max_total_letters=3, seed=1, suites=("core", "envelope"))
    report = run_mutation(config, rounds=2)
    assert [r.witness.split(":")[0] for r in report.records] == [
        "no identity failed on the mutant", "detected by lie-bracket-antisymmetry"]
    missed, stopped = made
    assert not set(FAMILIES) & set(vars(stopped))
    # the ladder reads syms_letters (Q^2) and syms_factors (ell-twist), never syms_small
    assert {"syms_letters", "syms_factors"} <= set(vars(missed))
    assert "syms_small" not in vars(missed)
    assert len(calls) == 2


def test_the_coalgebra_suite_builds_no_family(contexts):
    made, calls = contexts
    report = run_verify_envelope(SuiteConfig(suites=("coalgebra",)))
    assert report.status == "pass"
    [ctx] = made
    assert not set(FAMILIES) & set(vars(ctx))
    assert calls == []
