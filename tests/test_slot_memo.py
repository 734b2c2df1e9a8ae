"""The symmetric laws keep the slot images of sub-syms; no record may show it.

The coJacobi and coLeibniz rows, the twisted coderivation rows of m and
ell'' and the Q coderivation row keep on the context, for one row, the
image of each sym a map meets inside a slot (``RunContext.slot_images``,
keyed by map name and sym).  The reference below is each law without any
memo, as every input ran it before: each slot entry's image is computed
afresh.  On every builtin, with a probe set that makes the bracket
nonzero, and on two hand-made algebras (one where truncation skips
inputs, one with inhomogeneous table entries), the memoized rows must
give the reference's record field for field and touch structure
constants in the same first order (``degree_violations``).  The table
must be empty once a row has ended, must never take in an image of the
input being checked, and must belong to its context alone.
"""

import dataclasses

import pytest

from abhomotopy.ab_core import AbAlgebra, TruncationOverflow
from abhomotopy.freemodule import Element
from abhomotopy.instances import Instance
from abhomotopy.signs import sign
from abhomotopy.suites import CHECKS, CheckRecord, RunContext, check_identity, perturb_algebra
from abhomotopy.sym_coalgebra import (
    cobracket_doubleprime,
    coproduct_delta,
    extend_ell,
    extend_m,
)
from abhomotopy.tensor_coalgebra import apply_in_slot, splice_in_slot, swap_adjacent_slots
from test_jacobi_memo import (
    FORCED,
    INHOMOGENEOUS,
    MUTANT,
    TRUNCATED,
    builtin_context,
    document_context,
)


def _cojacobi(ctx, x):
    A = ctx.algebra
    delta = lambda s: cobracket_doubleprime(A, s)
    dd = splice_in_slot(delta(x), 0, delta, A.a - A.b, ctx.sdeg)
    t1 = swap_adjacent_slots(swap_adjacent_slots(dd, 1, ctx.sdeg), 0, ctx.sdeg)
    t2 = swap_adjacent_slots(swap_adjacent_slots(dd, 0, ctx.sdeg), 1, ctx.sdeg)
    return ctx.sym_zero(dd + t1 + t2, 3), "coJacobi fails"


def _coleibniz(ctx, sym):
    A = ctx.algebra
    amb = A.a - A.b
    delta_fn = lambda s: coproduct_delta(A, s)
    dpp_fn = lambda s: cobracket_doubleprime(A, s)
    lhs = splice_in_slot(cobracket_doubleprime(A, sym), 1, delta_fn, 0, ctx.sdeg)
    d = coproduct_delta(A, sym)
    r1 = splice_in_slot(d, 0, dpp_fn, amb, ctx.sdeg)
    r2 = swap_adjacent_slots(splice_in_slot(d, 1, dpp_fn, amb, ctx.sdeg), 0, ctx.sdeg)
    return ctx.sym_zero(lhs - r1 - r2, 3), "coLeibniz fails"


def _coderivation(coproduct, op, twisted, detail):
    def law(ctx, sym):
        A = ctx.algebra
        c = lambda s: coproduct(A, s)
        f = lambda s: op(ctx, s)
        d = c(sym)
        lhs = apply_in_slot(d, 0, f, 1, ctx.sdeg) + apply_in_slot(d, 1, f, 1, ctx.sdeg)
        rhs = f(sym).map_basis(c).scale(sign((A.a - A.b) * twisted))
        return ctx.sym_zero(lhs - rhs, 2), detail

    return law


# the five memoized rows, each written out without any memo
REFERENCE_LAWS = {
    "codifferential-q-coderivation": _coderivation(
        coproduct_delta, lambda ctx, s: ctx.q_op(s), False, "Q is not a coderivation of Delta"
    ),
    "sym-cobracket-cojacobi": _cojacobi,
    "sym-cobracket-coleibniz": _coleibniz,
    "sym-cobracket-m-twist": _coderivation(
        cobracket_doubleprime, lambda ctx, s: extend_m(ctx.algebra, s, ctx.D), True,
        "twisted coderivation law fails",
    ),
    "sym-cobracket-ell-twist": _coderivation(
        cobracket_doubleprime, lambda ctx, s: extend_ell(ctx.algebra, s), True,
        "twisted coderivation law fails",
    ),
}
ROWS = sorted(REFERENCE_LAWS)


def reference_record(name, ctx):
    """What ``check_identity`` returned for row ``name`` before the memo."""
    row = CHECKS[name]
    evaluated = skipped = 0
    for inp in row.inputs(ctx):
        try:
            ok, detail = REFERENCE_LAWS[name](ctx, inp)
        except TruncationOverflow:
            skipped += 1
            continue
        evaluated += 1
        if not ok:
            witness = f"at {row.render(inp)}: {detail}"
            return CheckRecord(name, row.statement, ctx.label, "fail", evaluated, skipped, witness)
    if evaluated == 0:
        return CheckRecord(name, row.statement, ctx.label, "skip", 0, skipped,
                           "every input escaped the truncation")
    return CheckRecord(name, row.statement, ctx.label, "pass", evaluated, skipped)


def assert_slot_memo_empty(ctx):
    assert ctx.slot_images == {} and ctx.row_interned == {}


@pytest.mark.parametrize("name", ROWS)
@pytest.mark.parametrize("builtin", sorted(FORCED))
def test_memo_records_equal_the_reference(builtin, name):
    reference_ctx, ctx = builtin_context(builtin), builtin_context(builtin)
    expected = reference_record(name, reference_ctx)
    assert expected.status == "pass" and expected.evaluated > 0
    assert check_identity(name, ctx).as_dict() == expected.as_dict()
    assert ctx.algebra.degree_violations == reference_ctx.algebra.degree_violations
    assert_slot_memo_empty(ctx)


@pytest.mark.parametrize("name", ROWS)
@pytest.mark.parametrize("doc", [TRUNCATED, INHOMOGENEOUS], ids=lambda d: d["name"])
def test_memo_keeps_skips_and_first_touch_order(doc, name):
    """Fresh algebras on both sides, so each fills its own structure-map cache."""
    reference_ctx, ctx = document_context(doc), document_context(doc)
    expected = reference_record(name, reference_ctx)
    record = check_identity(name, ctx)
    assert record.as_dict() == expected.as_dict()
    assert ctx.algebra.degree_violations == reference_ctx.algebra.degree_violations
    assert_slot_memo_empty(ctx)


def test_the_documents_exercise_skips_and_a_failure():
    """The two documents above are not vacuous for these rows: truncation
    skips inputs of a row that still evaluates some, and the inhomogeneous
    entries make a row fail."""
    truncated = {name: check_identity(name, document_context(TRUNCATED)) for name in ROWS}
    assert any(r.status == "pass" and r.skipped > 0 for r in truncated.values())
    inhomogeneous = {name: check_identity(name, document_context(INHOMOGENEOUS)) for name in ROWS}
    assert any(r.status == "fail" for r in inhomogeneous.values())


# what each kept image must equal, by the name it is kept under
MAPS = {
    "delta''": lambda ctx, s: cobracket_doubleprime(ctx.algebra, s),
    "Delta": lambda ctx, s: coproduct_delta(ctx.algebra, s),
    "m": lambda ctx, s: extend_m(ctx.algebra, s, ctx.D),
    "ell''": lambda ctx, s: extend_ell(ctx.algebra, s),
    "Q": lambda ctx, s: ctx.q_op(s),
}


def image_afresh(ctx, name, sym):
    try:
        return MAPS[name](ctx, sym)
    except TruncationOverflow:
        return "overflow"


@pytest.mark.parametrize("where", ["gerstenhaber-toy", "schouten-super", "truncated"])
def test_kept_images_equal_the_maps_and_never_the_input_at_hand(where, monkeypatch):
    """After every input, passed or skipped, each newly kept image equals
    its map's image computed afresh (so it is a finished value, under the
    right map's name), and no key names that input.  Within a row, kept
    images are read again."""
    ctx = document_context(TRUNCATED) if where == "truncated" else builtin_context(where)
    skipped = 0
    for name in ROWS:
        row = CHECKS[name]
        seen = {"inputs": 0, "skipped": 0, "lookups": 0, "computed": 0}
        checked = set()

        def law(c, inp, inner=row.law, seen=seen, checked=checked):
            try:
                return inner(c, inp)
            except TruncationOverflow:
                seen["skipped"] += 1
                raise
            finally:
                seen["inputs"] += 1
                for key, image in c.slot_images.items():
                    if key not in checked:
                        map_name, sym = key
                        assert sym != inp, inp
                        assert image == image_afresh(c, map_name, sym), key
                        checked.add(key)

        def in_slot(map_name, f, arity, inner=RunContext.in_slot, seen=seen):
            def computed(s):
                seen["computed"] += 1
                return f(s)

            image = inner(ctx, map_name, computed, arity)

            def looked_up(s):
                seen["lookups"] += 1
                return image(s)

            return looked_up

        monkeypatch.setitem(CHECKS, name, dataclasses.replace(row, law=law))
        monkeypatch.setattr(ctx, "in_slot", in_slot)
        record = check_identity(name, ctx)
        assert record.status == "pass" and seen["inputs"] > 1
        assert 0 < len(checked) <= seen["computed"] < seen["lookups"]
        assert_slot_memo_empty(ctx)
        assert seen["skipped"] == record.skipped
        skipped += record.skipped
        monkeypatch.undo()
    assert skipped > 0  # overflows were met, and kept nothing


def test_an_overflow_keeps_nothing():
    ctx = builtin_context("poisson-super")
    sym = ctx.syms_factors[-1]
    calls = []

    def overflowing(s):
        calls.append(s)
        raise TruncationOverflow("left the truncation")

    image = ctx.in_slot("m", overflowing, 1)
    for _ in range(2):
        with pytest.raises(TruncationOverflow):
            image(sym)
    assert calls == [sym, sym]
    assert_slot_memo_empty(ctx)


def test_images_are_interned_per_row(monkeypatch):
    """Equal syms in the basis keys of kept images are one object, and so
    are equal words in those syms."""
    ctx = builtin_context("schouten-super")
    name = "sym-cobracket-coleibniz"
    row = CHECKS[name]
    objects, uses = [], []

    def law(c, inp, inner=row.law):
        out = inner(c, inp)
        by_value: dict = {}
        count = 0
        for image in c.slot_images.values():
            for key in image.terms:
                for sym in key:
                    for part in (sym, *sym):
                        by_value.setdefault(part, set()).add(id(part))
                        count += 1
        objects.append(max((len(ids) for ids in by_value.values()), default=1))
        uses.append(count - len(by_value))  # repeated occurrences of a sym or word
        return out

    monkeypatch.setitem(CHECKS, name, dataclasses.replace(row, law=law))
    assert check_identity(name, ctx).status == "pass"
    assert max(objects) == 1 and max(uses) > 0


def test_each_context_has_a_table_of_its_own():
    """A law run outside ``check_identity`` leaves its images on its own
    context; the mutant's law, run right after on its own context, must
    give the reference's answer on every input."""
    parent = builtin_context("poisson-super")
    mutant, reference = bracket_mutant(parent), bracket_mutant(parent)
    assert parent.slot_images is not mutant.slot_images
    name = "sym-cobracket-ell-twist"
    inputs = CHECKS[name].inputs(mutant)

    def verdicts(law, ctx):
        out = []
        for inp in inputs:
            try:
                out.append(law(ctx, inp))
            except TruncationOverflow:
                out.append("skip")
        return out

    verdicts(CHECKS[name].law, parent)
    assert parent.slot_images and not mutant.slot_images
    found = verdicts(CHECKS[name].law, mutant)
    assert found == verdicts(REFERENCE_LAWS[name], reference)
    assert any(v != "skip" and not v[0] for v in found)
    parent.clear_row_memo()
    mutant.clear_row_memo()


def bracket_mutant(parent):
    """The Jacobi mutant of poisson-super: it also breaks the ell'' twist."""
    mutant = perturb_algebra(parent.algebra, MUTANT)
    return RunContext(Instance(mutant, dict(parent.instance.params)), parent.config,
                      forced_gens=MUTANT[1:3])


# a differential entry of degree 0, not 1: d(xi1) += xi1 on poisson-super.
# A differential perturbation of the right degree breaks none of these
# rows, since m extends any degree-1 D as a coderivation of both Delta
# and delta''; this one breaks the Q coderivation and the m twist.
DIFFERENTIAL = ("xi1", "xi1")


def differential_mutant(parent):
    A = parent.algebra
    gid, target = DIFFERENTIAL
    bump = Element.of(A.gen(target))

    def diff_fn(g):
        out = A.diff_fn(g)
        return out + bump if g == gid else out

    mutant = AbAlgebra(
        name=A.name + "-mutant", a=A.a, b=A.b, generators=A.generators, unshifted=A.unshifted,
        product_fn=A.product_fn, bracket_fn=A.bracket_fn, diff_fn=diff_fn,
        description=f"{A.description}; differential({gid}) += {target}",
    )
    return RunContext(Instance(mutant, dict(parent.instance.params)), parent.config,
                      forced_gens=(gid,))


@pytest.mark.parametrize("mutate", [bracket_mutant, differential_mutant],
                         ids=["bracket", "differential"])
def test_mutant_after_its_parent_still_fails_with_the_reference_witness(mutate):
    """The parent's rows run first in the same process; the mutant must
    not read any image the parent's rows computed."""
    parent = builtin_context("poisson-super")
    mutant_ctx = mutate(parent)
    failed = []
    for name in ROWS:
        assert check_identity(name, parent).status == "pass"
        assert_slot_memo_empty(parent)
        record = check_identity(name, mutant_ctx)
        assert_slot_memo_empty(mutant_ctx)
        expected = reference_record(name, mutate(builtin_context("poisson-super")))
        assert record.as_dict() == expected.as_dict()
        if record.status == "fail":
            failed.append(record)
    assert failed and max(r.evaluated for r in failed) > 3
