"""The table of structure maps the rows name (``RunContext.maps``) is
checked, not trusted.

Every law reads its signs off the degrees the table declares.  On every
builtin, at small probe sizes with a probe set that makes the bracket
nonzero, every image term of every named map must have the grading of
the map's argument plus the declared degree, the grading summed over the
factors of a tensor: the two slots of a co-operation's image, the two
words a bracket form takes.  Arguments that leave the truncation are
skipped.  The word zero test, which the generic-letter rows and the
instance rows share, must normalize every slot it is told of.
"""

import pytest

from abhomotopy.ab_core import TruncationOverflow
from abhomotopy.freemodule import Element
from abhomotopy.suites import WORD_MAPS, RunContext, SuiteConfig, build_instance, generic_letters
from abhomotopy.tensor_coalgebra import QUOTIENT, shuffle
from test_slot_memo import FORCED

FAST = dict(max_word_len=2, max_sym_factors=2, max_total_letters=3, probe_gens=2)

BRACKET_FORMS = ("ell2'", "ell2''")


def arguments(ctx, name):
    """The probe arguments of the map named ``name``."""
    if name in ("delta", "D"):
        return ctx.words
    if name in BRACKET_FORMS:
        return [(x, y) for x in ctx.pair_words for y in ctx.pair_words]
    return list(dict.fromkeys(ctx.syms_letters + ctx.syms_factors))


@pytest.mark.parametrize("builtin", sorted(FORCED))
def test_every_named_map_has_its_declared_degree(builtin):
    config = SuiteConfig(algebra=builtin, **FAST)
    ctx = RunContext(build_instance(config), config, forced_gens=FORCED[builtin])
    assert sorted(ctx.maps) == sorted(
        ["delta", "D", "ell2'", "ell2''", "Delta", "delta''", "Q", "m", "ell''"]
    )
    for name, entry in ctx.maps.items():
        evaluated = terms = 0
        for arg in arguments(ctx, name):
            try:
                image = entry.fn(arg)
            except TruncationOverflow:
                continue
            evaluated += 1
            parts = arg if name in BRACKET_FORMS else (arg,)
            expected = sum(map(entry.grading, parts)) + entry.degree
            for key in image.terms:
                factors = (key,) if entry.arity == 1 else key
                assert len(factors) == entry.arity
                assert sum(map(entry.grading, factors)) == expected, (name, arg, key)
                terms += 1
        assert evaluated > 0, name
        assert terms > 0, name


def test_one_delta_serves_the_generic_and_the_instance_rows():
    config = SuiteConfig(algebra="poisson-super", **FAST)
    assert RunContext(build_instance(config), config).maps["delta"] is WORD_MAPS["delta"]


def test_the_word_zero_test_normalizes_every_slot():
    """A 3-tensor whose last slot holds a shuffle image is zero in the
    quotient; normalizing only the first two slots would miss it."""
    a, b = ((g,) for g in generic_letters((0, 1)))
    zero = WORD_MAPS["delta"].zero
    v = Element({(a, b, w): c for w, c in shuffle(a, b).items()})
    assert not v.is_zero() and not QUOTIENT.tensor_is_zero(v, 2)
    assert zero(v, 3)
    assert not zero(Element.of((a, b, a + b)), 3)
    assert zero(Element.zero(), 3)
