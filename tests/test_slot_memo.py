"""The row memo keeps values for one row; no record may show it.

Ten rows keep values in ``RunContext.row_memo`` through
``RunContext.kept``, under (map name, argument).  The slot rows (the two
coJacobi rows, of delta on generic letters and of delta'', coLeibniz,
coassociativity, the m and ell'' twists, the Q coderivation and the word
coderivation of D) keep the image of each sym or word a map meets inside
a slot; the two Jacobi rows keep each inner bracket of two pair
words and their current orbit verdict (``test_jacobi_memo.py``).

The reference below is each law without any memo, as every input ran it
before, over the tests' own maps, bracket forms and zero tests.  On every
builtin, with a probe set that makes the bracket nonzero, and on two
hand-made algebras (one where truncation skips inputs, one with
inhomogeneous table entries), the rows must give the reference's record
field for field and touch structure constants in the same first order
(the order of the keys of ``AbAlgebra._cache``, which the
``degree-homogeneity`` record sweeps).  The table must be empty once a
row has ended, belong to its context alone, keep nothing for an input
that left the truncation, and never take in an image of the input being
checked.
"""

import dataclasses

import pytest

from abhomotopy.ab_core import AbAlgebra, TruncationOverflow, algebra_from_dict, coderivation_D, ell2
from abhomotopy.freemodule import Element, bilinear
from abhomotopy.instances import Instance
from abhomotopy.signs import sign
from abhomotopy.suites import (
    CHECKS,
    COALGEBRA,
    CheckRecord,
    RunContext,
    SuiteConfig,
    build_instance,
    check_identity,
    perturb_algebra,
)
from abhomotopy.sym_coalgebra import (
    cobracket_doubleprime,
    coproduct_delta,
    extend,
    q_codifferential,
    sym_tensor_normal_form,
)
from abhomotopy.tensor_coalgebra import (
    QUOTIENT,
    apply_in_slot,
    cobracket,
    splice_in_slot,
    swap_adjacent_slots,
    word_degree,
)

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


# -- the ten rows without any memo --------------------------------------------


def ell2_prime(A, x, y):
    """The antisymmetric form, degree 0 in dg' = dg - a + b + 1."""
    return ell2(A, x, y).scale(sign((A.a - A.b - 1) * A.deg_l(x)))


def ell2_doubleprime(A, x, y):
    """The symmetric form, degree 1 in dg'' = dg - a + b."""
    return ell2(A, x, y).scale(sign((A.a - A.b - 1) * A.deg_l(x) + A.deg_s(x)))


# a bracket form is (bracket(A, x, y), degree(A, x)): ell2' in the dg'
# grading, ell2'' in the dg'' grading
FORMS = {
    "lie-bracket-jacobi": (ell2_prime, AbAlgebra.deg_l),
    "sym-bracket-jacobi": (ell2_doubleprime, AbAlgebra.deg_s),
}


def word_zero(v):
    return v.is_zero() or QUOTIENT.is_zero(v)


def tensor_zero(v):
    return v.is_zero() or QUOTIENT.tensor_is_zero(v)


def sym_zero(ctx, v):
    return v.is_zero() or sym_tensor_normal_form(ctx.algebra, v).is_zero()


def D(ctx):
    """The word codifferential, built apart from the context's table."""
    return coderivation_D(ctx.algebra)


def sym_bracket(A):
    """ell2'' of a pair, the bracket Q contracts two factors with."""
    return lambda xy: ell2_doubleprime(A, *xy)


def m_op(ctx, sym):
    return extend(ctx.algebra, sym, 1, D(ctx))


def ell_op(ctx, sym):
    return extend(ctx.algebra, sym, 2, sym_bracket(ctx.algebra))


def q_op(ctx, sym):
    return q_codifferential(ctx.algebra, sym, D(ctx), sym_bracket(ctx.algebra))


def rotations(triple):
    return (triple, triple[1:] + triple[:1], triple[2:] + triple[:2])


def cyclic_total(ctx, form, triple):
    """Sum of (-1)^(deg x deg z) f(f(x,y),z) over the rotations, no memo."""
    bracket, degree = form
    A = ctx.algebra
    fn = lambda u, v: bracket(A, u, v)
    total = Element.zero()
    for x, y, z in rotations(triple):
        term = bilinear(fn, bracket(A, x, y), Element.of(z))
        total = total + term.scale(sign(degree(A, x) * degree(A, z)))
    return total


def _jacobi(form):
    def law(ctx, triple):
        return word_zero(cyclic_total(ctx, form, triple)), "graded Jacobi fails in the quotient"

    return law


def sym_cobracket(A, s):
    """delta'' over the word cobracket itself, not the table's entry."""
    return cobracket_doubleprime(A, s, delta=cobracket)


def _word_cojacobi(_, x):
    dd = splice_in_slot(cobracket(x), 0, cobracket, 0, word_degree)
    t1 = swap_adjacent_slots(swap_adjacent_slots(dd, 1, word_degree), 0, word_degree)
    t2 = swap_adjacent_slots(swap_adjacent_slots(dd, 0, word_degree), 1, word_degree)
    return tensor_zero(dd + t1 + t2), "cyclic sum does not vanish in the quotient"


def _cojacobi(ctx, x):
    A = ctx.algebra
    delta = lambda s: sym_cobracket(A, s)
    dd = splice_in_slot(delta(x), 0, delta, A.a - A.b, ctx.sdeg)
    t1 = swap_adjacent_slots(swap_adjacent_slots(dd, 1, ctx.sdeg), 0, ctx.sdeg)
    t2 = swap_adjacent_slots(swap_adjacent_slots(dd, 0, ctx.sdeg), 1, ctx.sdeg)
    return sym_zero(ctx, dd + t1 + t2), "coJacobi fails"


def _coleibniz(ctx, sym):
    A = ctx.algebra
    amb = A.a - A.b
    delta_fn = lambda s: coproduct_delta(A, s)
    dpp_fn = lambda s: sym_cobracket(A, s)
    lhs = splice_in_slot(sym_cobracket(A, sym), 1, delta_fn, 0, ctx.sdeg)
    d = coproduct_delta(A, sym)
    r1 = splice_in_slot(d, 0, dpp_fn, amb, ctx.sdeg)
    r2 = swap_adjacent_slots(splice_in_slot(d, 1, dpp_fn, amb, ctx.sdeg), 0, ctx.sdeg)
    return sym_zero(ctx, lhs - r1 - r2), "coLeibniz fails"


def _coassociative(ctx, sym):
    Delta = lambda s: coproduct_delta(ctx.algebra, s)
    d = Delta(sym)
    lhs, rhs = splice_in_slot(d, 0, Delta, 0, ctx.sdeg), splice_in_slot(d, 1, Delta, 0, ctx.sdeg)
    return sym_zero(ctx, lhs - rhs), "coassociativity fails"


def _coderivation(coproduct, op, twisted, detail):
    def law(ctx, sym):
        A = ctx.algebra
        c = lambda s: coproduct(A, s)
        f = lambda s: op(ctx, s)
        d = c(sym)
        lhs = apply_in_slot(d, 0, f, 1, ctx.sdeg) + apply_in_slot(d, 1, f, 1, ctx.sdeg)
        rhs = f(sym).map_basis(c).scale(sign((A.a - A.b) * twisted))
        return sym_zero(ctx, lhs - rhs), detail

    return law


def _d_coderivation(ctx, w):
    d, D_ = cobracket(w), D(ctx)
    lhs = apply_in_slot(d, 0, D_, 1, word_degree) + apply_in_slot(d, 1, D_, 1, word_degree)
    rhs = D_(w).map_basis(cobracket)
    return tensor_zero(lhs - rhs), "coderivation law fails in the quotient"


REFERENCE_LAWS = {
    "cobracket-cojacobi": _word_cojacobi,
    "codifferential-coderivation": _d_coderivation,
    "lie-bracket-jacobi": _jacobi(FORMS["lie-bracket-jacobi"]),
    "sym-bracket-jacobi": _jacobi(FORMS["sym-bracket-jacobi"]),
    "coproduct-coassociativity": _coassociative,
    "codifferential-q-coderivation": _coderivation(
        coproduct_delta, q_op, False, "Q is not a coderivation of Delta"
    ),
    "sym-cobracket-cojacobi": _cojacobi,
    "sym-cobracket-coleibniz": _coleibniz,
    "sym-cobracket-m-twist": _coderivation(
        sym_cobracket, m_op, True,
        "twisted coderivation law fails",
    ),
    "sym-cobracket-ell-twist": _coderivation(
        sym_cobracket, ell_op, True,
        "twisted coderivation law fails",
    ),
}
ROWS = sorted(REFERENCE_LAWS)
SLOT_ROWS = sorted(set(ROWS) - set(FORMS))


def reference_record(name, ctx):
    """What ``check_identity`` returned for row ``name`` before the memo."""
    row = CHECKS[name]
    instance = "generic-letters" if name in COALGEBRA else ctx.label
    evaluated = skipped = 0
    for inp in row.family.inputs(ctx):
        try:
            ok, detail = REFERENCE_LAWS[name](ctx, inp)
        except TruncationOverflow:
            skipped += 1
            continue
        evaluated += 1
        if not ok:
            witness = f"at {row.family.render(inp)}: {detail}"
            return CheckRecord(name, row.statement, instance, "fail", evaluated, skipped, witness)
    if evaluated == 0:
        return CheckRecord(name, row.statement, instance, "skip", 0, skipped,
                           "every input escaped the truncation")
    return CheckRecord(name, row.statement, instance, "pass", evaluated, skipped)


# -- contexts -------------------------------------------------------------------


def builtin_context(builtin):
    config = SuiteConfig(algebra=builtin, **SMALL)
    return RunContext(build_instance(config), config, forced_gens=FORCED[builtin])


def document_context(doc):
    config = SuiteConfig(algebra=doc["name"], probe_gens=3, max_word_len=2)
    return RunContext(Instance(algebra_from_dict(doc), {}), config)


# a bracket mutant of poisson-super that breaks graded Jacobi and the ell'' twist
MUTANT = ("bracket", "x1", "x1^2", "x1")


def bracket_mutant(parent):
    mutant = perturb_algebra(parent.algebra, MUTANT)
    return RunContext(Instance(mutant, dict(parent.instance.params)), parent.config,
                      forced_gens=MUTANT[1:3])


# a differential entry of degree 0, not 1: d(xi1) += xi1 on poisson-super.
# A differential perturbation of the right degree breaks none of these
# rows, since m extends any degree-1 D as a coderivation of both Delta
# and delta''; this one breaks the Q coderivation and the m twist.
DIFFERENTIAL = ("differential", "xi1", "xi1")


def differential_mutant(parent):
    mutant = perturb_algebra(parent.algebra, DIFFERENTIAL)
    return RunContext(Instance(mutant, dict(parent.instance.params)), parent.config,
                      forced_gens=DIFFERENTIAL[1:-1])


# -- reading the table ------------------------------------------------------------

# what each kept image must equal, and the arity of its basis keys, by the
# name it is kept under; a bracket form's argument is a pair of words
MAPS = {
    "delta": (lambda ctx, w: cobracket(w), 2),
    "delta''": (lambda ctx, s: sym_cobracket(ctx.algebra, s), 2),
    "Delta": (lambda ctx, s: coproduct_delta(ctx.algebra, s), 2),
    "m": (m_op, 1),
    "ell''": (ell_op, 1),
    "Q": (q_op, 1),
    "D": (lambda ctx, w: D(ctx)(w), 1),
    "ell2'": (lambda ctx, xy: ell2_prime(ctx.algebra, *xy), 1),
    "ell2''": (lambda ctx, xy: ell2_doubleprime(ctx.algebra, *xy), 1),
}


def kept_images(ctx):
    """The row table's images, {(map name, argument): Element}; its other
    entries are interned objects, each its own value, and orbit verdicts."""
    return {k: v for k, v in ctx.row_memo.items() if isinstance(v, Element)}


# -- records -----------------------------------------------------------------------


def assert_records_equal_the_reference(make_context, name):
    """Row ``name`` on a fresh context from ``make_context`` against the
    reference on another: the same record and first-touch order, and an
    empty table after the row.  Returns the record and its context."""
    reference_ctx, ctx = make_context(), make_context()
    expected = reference_record(name, reference_ctx)
    record = check_identity(name, ctx)
    assert record.as_dict() == expected.as_dict()
    assert list(ctx.algebra._cache) == list(reference_ctx.algebra._cache)
    assert ctx.row_memo == {}
    return record, ctx


@pytest.mark.parametrize("name", SLOT_ROWS)
@pytest.mark.parametrize("builtin", sorted(FORCED))
def test_memo_records_equal_the_reference(builtin, name):
    record, _ = assert_records_equal_the_reference(lambda: builtin_context(builtin), name)
    assert record.status == "pass" and record.evaluated > 0


@pytest.mark.parametrize("name", SLOT_ROWS)
@pytest.mark.parametrize("doc", [TRUNCATED, INHOMOGENEOUS], ids=lambda d: d["name"])
def test_memo_keeps_skips_and_first_touch_order(doc, name):
    """Fresh algebras on both sides, so each fills its own structure-map cache."""
    assert_records_equal_the_reference(lambda: document_context(doc), name)


def test_the_documents_exercise_skips_and_a_failure():
    """The two documents are not vacuous for the slot rows: truncation
    skips inputs of a row that still evaluates some, and the inhomogeneous
    entries make a row fail."""
    truncated = [check_identity(name, document_context(TRUNCATED)) for name in SLOT_ROWS]
    assert any(r.status == "pass" and r.skipped > 0 for r in truncated)
    inhomogeneous = [check_identity(name, document_context(INHOMOGENEOUS)) for name in SLOT_ROWS]
    assert any(r.status == "fail" for r in inhomogeneous)


# inputs a failing row must have evaluated, so that it failed after its
# table held values: the differential mutant breaks the word coderivation
# law at its second word, (xi1|1), whose cobracket holds (xi1, 1) and
# (1, xi1), so slot 1 reads the images of D that slot 0 kept
EVALUATED_BEFORE_FAILING = {"codifferential-coderivation": 1}


def assert_mutant_after_its_parent_fails_as_the_reference(mutate, rows):
    """The parent's rows run first in the same process; the mutant must
    not read any value the parent's rows computed.  Returns the rows the
    mutant fails."""
    parent = builtin_context("poisson-super")
    mutant_ctx = mutate(parent)
    failed = []
    for name in rows:
        assert check_identity(name, parent).status == "pass"
        assert parent.row_memo == {}
        record = check_identity(name, mutant_ctx)
        assert mutant_ctx.row_memo == {}
        expected = reference_record(name, mutate(builtin_context("poisson-super")))
        assert record.as_dict() == expected.as_dict()
        if record.status == "fail":
            assert record.evaluated > EVALUATED_BEFORE_FAILING.get(name, 3)
            failed.append(name)
    return failed


@pytest.mark.parametrize("mutate", [bracket_mutant, differential_mutant],
                         ids=["bracket", "differential"])
def test_mutant_after_its_parent_still_fails_with_the_reference_witness(mutate):
    assert assert_mutant_after_its_parent_fails_as_the_reference(mutate, SLOT_ROWS)


# -- the table ---------------------------------------------------------------------


@pytest.mark.parametrize("where", ["gerstenhaber-toy", "schouten-super", "truncated"])
def test_kept_images_equal_the_maps_and_never_the_input_at_hand(where, monkeypatch):
    """On every row that keeps images, after every input, passed or
    skipped: each newly kept image equals its map's image computed afresh
    (so it is a finished value, under the right map's name), and no key
    names that input.  Within a row, kept images are read again."""
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
                for key, image in kept_images(c).items():
                    if key not in checked:
                        map_name, arg = key
                        assert arg != inp, inp
                        try:
                            afresh = MAPS[map_name][0](c, arg)
                        except TruncationOverflow:
                            afresh = "overflow"
                        assert image == afresh, key
                        checked.add(key)

        def kept(map_name, inner=RunContext.kept, seen=seen):
            # the accessor reads the map once, when the law asks for it
            entry = ctx.maps[map_name]

            def computed(arg):
                seen["computed"] += 1
                return entry.fn(arg)

            ctx.maps[map_name] = entry._replace(fn=computed)
            try:
                image = inner(ctx, map_name)
            finally:
                ctx.maps[map_name] = entry

            def looked_up(arg):
                seen["lookups"] += 1
                return image(arg)

            return looked_up

        monkeypatch.setitem(CHECKS, name, dataclasses.replace(row, law=law))
        monkeypatch.setattr(ctx, "kept", kept)
        record = check_identity(name, ctx)
        assert record.status == "pass" and seen["inputs"] > 1
        assert 0 < len(checked) <= seen["computed"] < seen["lookups"]
        assert ctx.row_memo == {}
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

    ctx.maps["m"] = ctx.maps["m"]._replace(fn=overflowing)
    image = ctx.kept("m")
    for _ in range(2):
        with pytest.raises(TruncationOverflow):
            image(sym)
    assert calls == [sym, sym]
    assert ctx.row_memo == {}


def test_images_are_interned_per_row(monkeypatch):
    """Equal syms in the basis keys of kept images are one object, and so
    are equal words in those syms; for the Jacobi brackets, whose basis
    keys are words, equal words and the letters in them."""
    ctx = builtin_context("schouten-super")
    for name in ("sym-cobracket-coleibniz", "sym-cobracket-ell-twist", "sym-bracket-jacobi"):
        row = CHECKS[name]
        objects, uses = [], []

        def law(c, inp, inner=row.law, objects=objects, uses=uses):
            out = inner(c, inp)
            by_value: dict = {}
            count = 0
            for (map_name, _), image in kept_images(c).items():
                for key in image.terms:
                    for unit in ([key] if MAPS[map_name][1] == 1 else key):
                        for part in (unit, *unit):
                            by_value.setdefault(part, set()).add(id(part))
                            count += 1
            objects.append(max((len(ids) for ids in by_value.values()), default=1))
            uses.append(count - len(by_value))  # repeated occurrences of one value
            return out

        monkeypatch.setitem(CHECKS, name, dataclasses.replace(row, law=law))
        assert check_identity(name, ctx).status == "pass"
        assert max(objects) == 1 and max(uses) > 0, name


def test_each_context_has_a_table_of_its_own():
    """A law run outside ``check_identity`` leaves its values on its own
    context; the mutant's law, run right after on its own context, must
    give the reference's answer on every input."""
    parent = builtin_context("poisson-super")
    mutant, reference = bracket_mutant(parent), bracket_mutant(parent)
    assert parent.row_memo is not mutant.row_memo
    for name in ("sym-cobracket-ell-twist", "sym-bracket-jacobi"):
        inputs = CHECKS[name].family.inputs(mutant)

        def verdicts(law, ctx):
            out = []
            for inp in inputs:
                try:
                    out.append(law(ctx, inp))
                except TruncationOverflow:
                    out.append("skip")
            return out

        verdicts(CHECKS[name].law, parent)
        assert parent.row_memo and not mutant.row_memo
        found = verdicts(CHECKS[name].law, mutant)
        assert found == verdicts(REFERENCE_LAWS[name], reference)
        assert any(v != "skip" and not v[0] for v in found)
        for ctx in (parent, mutant):
            ctx.clear_row_memo()
