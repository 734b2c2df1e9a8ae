"""The Jacobi rows keep a row memo; no record may show it.

``_jacobi`` keeps in the row table each inner bracket f(x, y) of two pair
words and the verdict of the current cyclic orbit, for one row.  Against
the memo-free reference of ``test_slot_memo.py``, on every builtin and on
the two hand-made algebras, both Jacobi rows must give the reference's
record field for field and touch structure constants in the same first
order.  The orbit verdict rests on the rotation invariance tested here,
and the table must hold at most one verdict.
"""

import dataclasses
import itertools

import pytest

from abhomotopy.ab_core import TruncationOverflow, ell2
from abhomotopy.suites import CHECKS, check_identity
from test_slot_memo import (
    FORCED,
    FORMS,
    INHOMOGENEOUS,
    TRUNCATED,
    assert_mutant_after_its_parent_fails_as_the_reference,
    assert_records_equal_the_reference,
    bracket_mutant,
    builtin_context,
    cyclic_total,
    document_context,
    kept_images,
    rotations,
)


def nonzero_brackets(ctx):
    count = 0
    for x in ctx.pair_words:
        for y in ctx.pair_words:
            try:
                count += not ell2(ctx.algebra, x, y).is_zero()
            except TruncationOverflow:
                pass
    return count


def off_degree_keys(A) -> list:
    """The keys of the structure-table entries ``A`` read whose value has a
    generator off the degree of its inputs plus the map's."""
    shift = {"product": A.a, "bracket": A.b, "differential": 1}
    return [
        (kind, *gids) for (kind, *gids), value in A._cache.items()
        if not isinstance(value, str)
        and any(A.unshifted[g.gid] != sum(A.unshifted[i] for i in gids) + shift[kind] for g in value.terms)
    ]


@pytest.mark.parametrize("name", sorted(FORMS))
@pytest.mark.parametrize("builtin", sorted(FORCED))
def test_memo_records_equal_the_reference(builtin, name):
    assert nonzero_brackets(builtin_context(builtin))
    record, _ = assert_records_equal_the_reference(lambda: builtin_context(builtin), name)
    assert record.status == "pass" and record.evaluated > 0


def test_memo_holds_one_orbit_and_the_inner_brackets(monkeypatch):
    """After every input the table holds one orbit verdict at most, and
    at most one bracket per pair of pair words."""
    ctx = builtin_context("schouten-super")
    sizes = []
    for name in sorted(FORMS):
        row = CHECKS[name]

        def law(c, triple, inner=row.law):
            out = inner(c, triple)
            images = kept_images(c)
            verdicts = [k for k, v in c.row_memo.items() if k not in images and v is not k]
            sizes.append((len(images), len(verdicts)))
            return out

        monkeypatch.setitem(CHECKS, name, dataclasses.replace(row, law=law))
        assert check_identity(name, ctx).status == "pass"
    assert max(verdicts for _, verdicts in sizes) == 1
    assert max(images for images, _ in sizes) <= len(ctx.pair_words) ** 2


@pytest.mark.parametrize("name", sorted(FORMS))
@pytest.mark.parametrize("doc", [TRUNCATED, INHOMOGENEOUS], ids=lambda d: d["name"])
def test_memo_keeps_skips_and_first_touch_order(doc, name):
    """Fresh algebras on both sides, so each fills its own structure-map cache."""
    record, ctx = assert_records_equal_the_reference(lambda: document_context(doc), name)
    if doc is TRUNCATED:
        assert record.status == "pass" and record.skipped > 0 and record.evaluated > 0
    else:
        assert record.status == "fail" and len(off_degree_keys(ctx.algebra)) >= 2


@pytest.mark.parametrize("builtin", sorted(FORCED) + ["mutant"])
def test_rotations_of_a_triple_give_equal_totals(builtin):
    """The invariance the orbit verdict rests on.  The builtins' raw totals
    vanish at these sizes; the mutant's do not."""
    parent = builtin_context("poisson-super" if builtin == "mutant" else builtin)
    ctx = bracket_mutant(parent) if builtin == "mutant" else parent
    nonzero = 0
    for form in FORMS.values():
        for combo in itertools.combinations_with_replacement(ctx.pair_words, 3):
            try:
                totals = [cyclic_total(ctx, form, r) for r in rotations(combo)]
            except TruncationOverflow:
                continue
            assert totals[0] == totals[1] == totals[2], combo
            nonzero += not totals[0].is_zero()
    assert nonzero or builtin != "mutant"


def test_mutant_after_its_parent_still_fails_with_the_reference_witness():
    failed = assert_mutant_after_its_parent_fails_as_the_reference(bracket_mutant, sorted(FORMS))
    assert failed == sorted(FORMS)
