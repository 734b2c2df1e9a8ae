"""The Jacobi rows keep a row memo; no record may show it.

``_jacobi`` keeps on the context each completed cyclic term of the
current orbit and each inner bracket f(x, y) of two pair words, for one
row.  The reference below is the law without any memo, the loop every
input ran before: each input computes its three terms from scratch.  On
every builtin, with a probe set that makes the bracket nonzero, and on
two hand-made algebras (one where truncation skips inputs, one with
inhomogeneous table entries), both Jacobi rows must give the reference's
record field for field, and touch structure constants in the same first
order (``degree_violations``).  The memo must also stay within one orbit
plus the inner brackets, and be empty once a row has ended.
"""

import dataclasses
import itertools

import pytest

from abhomotopy.ab_core import TruncationOverflow, algebra_from_dict, ell2
from abhomotopy.freemodule import Element, bilinear
from abhomotopy.instances import Instance
from abhomotopy.signs import sign
from abhomotopy.suites import (
    _LIE,
    _SYM,
    CHECKS,
    CheckRecord,
    RunContext,
    SuiteConfig,
    build_instance,
    check_identity,
    perturb_algebra,
)

FORMS = {"lie-bracket-jacobi": _LIE, "sym-bracket-jacobi": _SYM}
SMALL = dict(max_word_len=2, max_sym_factors=2, max_total_letters=3, probe_gens=1)

# a pair of generators with a nonzero bracket on each builtin, forced into
# the probe set so the rows bracket something
FORCED = {
    "gerstenhaber-toy": ("x1", "dx1"),
    "poisson-polynomial": ("x1", "x2"),
    "poisson-super": ("x1", "x2"),
    "polyvector-even": ("dx1", "x1"),
    "schouten-super": ("x1*xi1^dx1", "x1^dxi1"),
}

_BRACKETS = [
    ["u", "v", [["v", 1]]],
    ["v", "u", [["v", -1]]],
    ["u", "w", [["w", 1]]],
    ["w", "u", [["w", -1]]],
]
_GENERATORS = [{"id": "u", "degree": 0}, {"id": "v", "degree": 1}, {"id": "w", "degree": 2}]
# products leave the truncation at degree 2, so some inputs are skipped
TRUNCATED = {"name": "truncated", "a": 0, "b": 0, "max_degree": 2,
             "generators": _GENERATORS, "bracket": _BRACKETS}
# three entries off their degree, met in a fixed order by the rows
INHOMOGENEOUS = {
    **TRUNCATED,
    "name": "inhomogeneous",
    "bracket": _BRACKETS + [["v", "w", [["u", 1]]], ["w", "v", [["u", 1]]], ["w", "w", [["v", 1]]]],
}


def cyclic_total(ctx, form, triple):
    """Sum of (-1)^(deg x deg z) f(f(x,y),z) over the rotations, no memo."""
    bracket, degree = form
    A = ctx.algebra
    fn = lambda u, v: bracket(A, u, v)
    total = Element.zero()
    for x, y, z in (triple, triple[1:] + triple[:1], triple[2:] + triple[:2]):
        term = bilinear(fn, bracket(A, x, y), Element.of(z))
        total = total + term.scale(sign(degree(A, x) * degree(A, z)))
    return total


def reference_record(name, ctx):
    """What ``check_identity`` returned before the memo, written out."""
    row = CHECKS[name]
    evaluated = skipped = 0
    for triple in row.inputs(ctx):
        try:
            total = cyclic_total(ctx, FORMS[name], triple)
        except TruncationOverflow:
            skipped += 1
            continue
        evaluated += 1
        if not ctx.word_zero(total):
            witness = f"at {row.render(triple)}: graded Jacobi fails in the quotient"
            return CheckRecord(name, row.statement, ctx.label, "fail", evaluated, skipped, witness)
    if evaluated == 0:
        return CheckRecord(name, row.statement, ctx.label, "skip", 0, skipped,
                           "every input escaped the truncation")
    return CheckRecord(name, row.statement, ctx.label, "pass", evaluated, skipped)


def builtin_context(builtin):
    config = SuiteConfig(algebra=builtin, **SMALL)
    return RunContext(build_instance(config), config, forced_gens=FORCED[builtin])


def document_context(doc):
    config = SuiteConfig(algebra=doc["name"], probe_gens=3, max_word_len=2)
    return RunContext(Instance(algebra_from_dict(doc), {}), config)


def nonzero_brackets(ctx):
    count = 0
    for x in ctx.pair_words:
        for y in ctx.pair_words:
            try:
                count += not ell2(ctx.algebra, x, y).is_zero()
            except TruncationOverflow:
                pass
    return count


def assert_row_memo_empty(ctx):
    assert ctx.inner_brackets == {} and ctx.orbit_terms == {}


@pytest.mark.parametrize("name", sorted(FORMS))
@pytest.mark.parametrize("builtin", sorted(FORCED))
def test_memo_records_equal_the_reference(builtin, name):
    reference_ctx, ctx = builtin_context(builtin), builtin_context(builtin)
    assert nonzero_brackets(reference_ctx)
    expected = reference_record(name, reference_ctx)
    assert expected.evaluated > 0
    assert check_identity(name, ctx).as_dict() == expected.as_dict()
    assert_row_memo_empty(ctx)


def test_memo_holds_one_orbit_and_the_inner_brackets(monkeypatch):
    ctx = builtin_context("schouten-super")
    sizes = []
    for name in sorted(FORMS):
        row = CHECKS[name]

        def law(c, triple, inner=row.law):
            out = inner(c, triple)
            sizes.append((len(c.inner_brackets), len(c.orbit_terms)))
            return out

        monkeypatch.setitem(CHECKS, name, dataclasses.replace(row, law=law))
        assert check_identity(name, ctx).status == "pass"
    assert max(orbit for _, orbit in sizes) == 3
    assert max(inner for inner, _ in sizes) <= len(ctx.pair_words) ** 2


@pytest.mark.parametrize("name", sorted(FORMS))
@pytest.mark.parametrize("doc", [TRUNCATED, INHOMOGENEOUS], ids=lambda d: d["name"])
def test_memo_keeps_skips_and_first_touch_order(doc, name):
    """Fresh algebras on both sides, so each fills its own structure-map cache."""
    reference_ctx, ctx = document_context(doc), document_context(doc)
    expected = reference_record(name, reference_ctx)
    record = check_identity(name, ctx)
    assert record.as_dict() == expected.as_dict()
    assert ctx.algebra.degree_violations == reference_ctx.algebra.degree_violations
    assert_row_memo_empty(ctx)
    if doc is TRUNCATED:
        assert record.status == "pass" and record.skipped > 0 and record.evaluated > 0
    else:
        assert record.status == "fail" and len(ctx.algebra.degree_violations) >= 2


# a bracket mutant of poisson-super that breaks graded Jacobi
MUTANT = ("bracket", "x1", "x1^2", "x1")


def mutant_context():
    parent = builtin_context("poisson-super")
    mutant = perturb_algebra(parent.algebra, MUTANT)
    return RunContext(Instance(mutant, dict(parent.instance.params)), parent.config,
                      forced_gens=MUTANT[1:3])


@pytest.mark.parametrize("builtin", sorted(FORCED) + ["mutant"])
def test_rotations_of_a_triple_give_equal_totals(builtin):
    """The invariance the orbit memo rests on.  The builtins' raw totals
    vanish at these sizes; the mutant's do not."""
    ctx = mutant_context() if builtin == "mutant" else builtin_context(builtin)
    nonzero = 0
    for form in FORMS.values():
        for combo in itertools.combinations_with_replacement(ctx.pair_words, 3):
            try:
                totals = [cyclic_total(ctx, form, combo[r:] + combo[:r]) for r in range(3)]
            except TruncationOverflow:
                continue
            assert totals[0] == totals[1] == totals[2], combo
            nonzero += not totals[0].is_zero()
    assert nonzero or builtin != "mutant"


def test_mutant_after_its_parent_still_fails_with_the_reference_witness():
    """The parent's row runs first in the same process; the mutant must
    not read any value the parent's row computed."""
    parent, mutant_ctx = builtin_context("poisson-super"), mutant_context()
    for name in sorted(FORMS):
        assert check_identity(name, parent).status == "pass"
        record = check_identity(name, mutant_ctx)
        expected = reference_record(name, mutant_context())
        assert expected.status == "fail" and expected.evaluated > 3
        assert record.as_dict() == expected.as_dict()
        assert_row_memo_empty(parent)
        assert_row_memo_empty(mutant_ctx)
