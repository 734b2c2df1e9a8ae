import collections
import dataclasses
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from abhomotopy import ab_core, instances, suites
from abhomotopy.ab_core import (
    CheckRecord,
    Coderivation,
    TruncationOverflow,
    algebra_from_dict,
    bilinear,
    check_ab_axioms,
    coderivation_D,
    ell2,
    ell2_oracle,
    load_algebra,
    sweep,
)
from abhomotopy.freemodule import Element, add_term
from abhomotopy.instances import BUILTINS, Instance, builtin_instance
from abhomotopy.signs import enumerate_shuffles, inverse, koszul_sign_by_swaps, sign
from abhomotopy.suites import (
    RunContext,
    SuiteConfig,
    build_instance,
    check_identity,
    perturb_algebra,
    probe_generators,
    probe_words,
    run_verify_envelope,
)
from abhomotopy.tensor_coalgebra import QUOTIENT, crossing_sign, shuffle, two_blocks
from test_regrading import FAST, rescaled
from test_tensor_coalgebra import signed_interleavings


def test_loader_rejects_bad_documents():
    with pytest.raises(ValueError):
        algebra_from_dict(
            {"a": 0, "b": 0, "generators": [{"id": "u", "degree": 0}, {"id": "u", "degree": 1}]}
        )
    with pytest.raises(ValueError):
        algebra_from_dict(
            {
                "a": 0,
                "b": 0,
                "generators": [{"id": "u", "degree": 0}],
                "product": [["u", "mystery", [["u", 1]]]],
            }
        )


def test_loader_records_degree_violations():
    A = algebra_from_dict(
        {
            "a": 0,
            "b": 0,
            "generators": [{"id": "u", "degree": 0}, {"id": "w", "degree": 5}],
            "product": [["u", "u", [["w", 1]]]],
        }
    )
    A.product(A.gen("u"), A.gen("u"))
    assert A.degree_violations


def test_load_from_file(tmp_path, nilpotent_algebra):
    doc = {
        "name": "nilpotent-toy",
        "a": 0,
        "b": -1,
        "generators": [{"id": "u", "degree": 0}, {"id": "v", "degree": 1}],
        "differential": [["u", [["v", "1"]]]],
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    A = load_algebra(str(path))
    assert A.differential(A.gen("u")) == Element.of(A.gen("v"))
    assert all(c.status == "pass" for c in check_ab_axioms(A))


def test_max_degree_marks_missing_entries_as_overflow():
    """With ``max_degree`` set, a missing entry past the bound overflows with
    a message that names the map and its inputs, as the builtins' do; one
    within the bound is zero."""
    A = algebra_from_dict(
        {
            "a": 0,
            "b": 0,
            "generators": [{"id": "u", "degree": 2}, {"id": "v", "degree": 3}, {"id": "w", "degree": 4}],
            "product": [["u", "u", [["w", 1]]]],
            "max_degree": 4,
        }
    )
    u, v, w = A.gen("u"), A.gen("v"), A.gen("w")
    assert A.product(u, u) == Element.of(w)
    assert str(_raised(A.product, u, v)) == "product(u,v) lands in degree 5 > 4"
    assert str(_raised(A.bracket, v, u)) == "bracket(v,u) lands in degree 5 > 4"
    assert str(_raised(A.differential, w)) == "differential(w) lands in degree 5 > 4"
    assert A.differential(v) == Element.zero()


def test_mu_sign_examples(toy_instance):
    A = toy_instance.algebra
    one, x1, dx1 = A.gen("1"), A.gen("x1"), A.gen("dx1")
    # dg('1') is odd (shift of degree 0), dg(dx1) is even
    assert A.mu(one, x1) == Element.of(x1, -1)
    assert A.mu(dx1, one) == Element.of(dx1)


def test_mu_antisymmetry_law(toy_instance):
    A = toy_instance.algebra
    for g1 in A.generators:
        for g2 in A.generators:
            try:
                diff = A.mu(g1, g2) + A.mu(g2, g1).scale(
                    -1 if (g1.deg * g2.deg) % 2 else 1
                )
            except TruncationOverflow:
                continue
            assert diff.is_zero(), (g1, g2)


def test_ell_symmetry_law(toy_instance):
    A = toy_instance.algebra
    twist = A.b - A.a + 1
    for g1 in A.generators:
        for g2 in A.generators:
            try:
                sign = -1 if (twist + g1.deg * g2.deg) % 2 else 1
                diff = A.ell(g1, g2) + A.ell(g2, g1).scale(sign)
            except TruncationOverflow:
                continue
            assert diff.is_zero(), (g1, g2)


def test_ell_poisson_shape(poisson_poly_instance):
    # at a = b the shifted bracket is (-1)^dg times the plain one
    A = poisson_poly_instance.algebra
    assert A.a == A.b == 0
    for g1 in list(A.generators)[:6]:
        for g2 in list(A.generators)[:6]:
            want = A.bracket(g1, g2).scale(-1 if g1.deg % 2 else 1)
            assert A.ell(g1, g2) == want


def coderivation_d(algebra):
    """The extension of the differential alone (Taylor coefficient at arity 1)."""
    return Coderivation(1, {1: lambda w: algebra.differential(w[0])})


def coderivation_mu(algebra):
    """The extension of the shifted product alone (Taylor coefficient at arity 2)."""
    return Coderivation(1, {2: lambda w: algebra.mu(w[0], w[1])})


def test_coderivation_single_letter(nilpotent_algebra):
    A = nilpotent_algebra
    u, v = A.gen("u"), A.gen("v")
    d1 = coderivation_d(A)
    assert d1((u,)) == Element.of((v,))
    assert d1((v,)).is_zero()


def test_coderivation_two_letters(nilpotent_algebra):
    A = nilpotent_algebra
    u, v = A.gen("u"), A.gen("v")
    D = coderivation_D(A)
    # d(u) (x) u + (-1)^dg(u) u (x) d(u) + mu(u, u), and the product is zero
    assert D((u, u)) == Element.of((v, u)) - Element.of((u, v))
    assert D.on_element(D((u, u))).is_zero()


def test_coderivation_splits_as_d_plus_mu(toy_instance):
    A = toy_instance.algebra
    D, d1, mu1 = coderivation_D(A), coderivation_d(A), coderivation_mu(A)
    gens = list(A.generators)[:4]
    for g1 in gens:
        for g2 in gens:
            try:
                total = D((g1, g2))
                split = d1((g1, g2)) + mu1((g1, g2))
            except TruncationOverflow:
                continue
            assert total == split


def test_d_squared_raw_on_words(toy_instance):
    A = toy_instance.algebra
    D = coderivation_D(A)
    gens = list(A.generators)[:4]
    checked = 0
    for g1 in gens:
        for g2 in gens:
            for g3 in gens:
                try:
                    dd = D.on_element(D((g1, g2, g3)))
                except TruncationOverflow:
                    continue
                checked += 1
                assert dd.is_zero(), (g1, g2, g3)
    assert checked


def test_ell2_single_letters_reduce_to_ell(bracket_algebra):
    A = bracket_algebra
    P, R1 = A.gen("P"), A.gen("R1")
    assert ell2(A, (P,), (R1,)) == Element.of((A.gen("S"),))
    assert ell2(A, (P,), (P,)).is_zero()


def test_ell2_two_one_even_case(bracket_algebra):
    # everything in even shifted degree and an even shifted bracket degree:
    # the extension is the sign-free sum of the two straddling contractions
    A = bracket_algebra
    P, Q, R1, S, T = (A.gen(g) for g in ("P", "Q", "R1", "S", "T"))
    got = ell2(A, (P, Q), (R1,))
    assert got == Element.of((P, T)) + Element.of((S, Q))


def test_ell2_matches_oracle(bracket_algebra, toy_instance):
    for A in (bracket_algebra, toy_instance.algebra):
        gens = list(A.generators)[:3]
        words = [(g,) for g in gens] + [(g1, g2) for g1 in gens for g2 in gens[:2]]
        for x in words:
            for y in words:
                try:
                    assert ell2(A, x, y) == ell2_oracle(A, x, y)
                except TruncationOverflow:
                    continue


def _probe_algebra(name):
    if name in BUILTINS:
        return builtin_instance(name).algebra
    # every bracket on polyvector-even's probe generators vanishes; this
    # mutant makes one nonzero on a pair of odd and even shifted degree
    return perturb_algebra(
        builtin_instance("polyvector-even").algebra, ("bracket", "dx1", "dx1^dx2", "1")
    )


@pytest.mark.parametrize("name", sorted(BUILTINS) + ["polyvector-even-bracket-mutant"])
def test_ell2_matches_oracle_on_probe_words(name):
    """``ell2`` signs each term in closed form, the oracle by swaps over
    the whole permutation; they agree on every pair of probe words with
    at most six letters in all, at four probe generators, and escape the
    truncation together."""
    A = _probe_algebra(name)
    words = probe_words(probe_generators(A, 4), 5)
    nonzero = 0
    for x in words:
        for y in words:
            if len(x) + len(y) > 6:
                continue
            try:
                got = ell2(A, x, y)
            except TruncationOverflow:
                with pytest.raises(TruncationOverflow):
                    ell2_oracle(A, x, y)
                continue
            assert got == ell2_oracle(A, x, y), (x, y)
            nonzero += not got.is_zero()
    if name not in ("polyvector-even", "schouten-super"):
        assert nonzero


def _ell2_by_walk(A, x, y) -> dict:
    """The bracket extension summed shuffle by shuffle, over the shuffles
    ``enumerate_shuffles`` lists, and within a shuffle by contracted position."""
    p = len(x)
    letters = x + y
    degs = [g.deg for g in letters]
    acc: dict = {}
    for sigma in enumerate_shuffles(p, len(y)):
        order = inverse(sigma)  # order[k]: the input letter at output position k
        out = tuple(letters[i] for i in order)
        eps = koszul_sign_by_swaps(degs, sigma)
        for k in range(len(out) - 1):
            if order[k] < p <= order[k + 1]:
                sgn = eps * sign((A.b - A.a + 1) * sum(degs[i] for i in order[:k]))
                for g, c in A.ell(out[k], out[k + 1]).items():
                    add_term(acc, out[:k] + (g,) + out[k + 2 :], c * sgn)
    return acc


@pytest.mark.parametrize("name", ["poisson-polynomial", "polyvector-even-bracket-mutant"])
def test_ell2_matches_a_walk_over_all_shuffles(name):
    """Pair-first ``ell2`` equals the bracket extension summed shuffle by
    shuffle, also when several letter pairs contribute."""
    A = _probe_algebra(name)
    words = probe_words(probe_generators(A, 4), 3)
    several = 0
    for x in words:
        for y in words:
            if len(x) + len(y) > 5:
                continue
            got = ell2(A, x, y)
            assert got == Element(_ell2_by_walk(A, x, y)), (x, y)
            pairs = sum(not A.ell(g, h).is_zero() for g in x for h in y)
            several += pairs > 1 and len(got.terms) > 1
    assert several


def _ell2_pair_first(A, x, y) -> Element:
    """The pair-first bracket extension as a term-by-term walk: pair,
    then the interleavings before and after it, then the bracket's
    letters, each term through ``add_term``.  The ``ell`` lookups run in
    (r, s) order, interleaved with the terms of the earlier pairs."""
    bma1_odd = (A.b - A.a + 1) % 2
    p, q = len(x), len(y)
    x_pre, y_pre = [0], [0]
    for g in x:
        x_pre.append((x_pre[-1] + g.deg) % 2)
    for g in y:
        y_pre.append((y_pre[-1] + g.deg) % 2)
    acc: dict = {}
    for r in range(p):
        for s in range(q):
            val = A.ell(x[r], y[s])
            if not val.terms:
                continue
            x_after_r = x_pre[p] ^ x_pre[r + 1]
            odd = (x[r].deg % 2 & y_pre[s]) ^ (x_after_r & y_pre[s + 1]) ^ (bma1_odd & (x_pre[r] ^ y_pre[s]))
            posts = signed_interleavings(x[r + 1 :], y[s + 1 :])
            for pre, e_pre in signed_interleavings(x[:r], y[:s]):
                if odd:
                    e_pre = -e_pre
                for post, e_post in posts:
                    sgn = e_pre * e_post
                    for g, c in val.terms.items():
                        add_term(acc, pre + (g,) + post, c * sgn)
    return Element(acc)


def _frozen_signed_rows(xi: tuple, yi: tuple, odd: tuple) -> list:
    """The contraction's interleavings as ``ell2`` once built them per
    index run: rows of indices into ``x + y`` in ``two_blocks`` order,
    each with its ``crossing_sign``; an empty run leaves one row, sign 1."""
    if not xi or not yi:
        return [(xi + yi, 1)]
    rows = []
    for xs, ys in two_blocks(len(xi) + len(yi), len(xi)):
        row = [0] * (len(xi) + len(yi))
        for i, k in zip(xi + yi, xs + ys):
            row[k] = i
        rows.append((tuple(row), crossing_sign(xs, ys, [odd[i] for i in xi], [odd[j] for j in yi])))
    return rows


def test_contractions_map_the_shuffle_layers_interleavings():
    """Each contraction's getter and signs, built from the shuffle layer's
    interleaving rows and signs mapped through the index runs around the
    contracted pair, equal those of the frozen per-run enumeration: on
    all 900 shapes and parity patterns up to 4 x 4 letters, at every pair
    and at both parities of b - a + 1."""
    cases = 0
    for p in range(1, 5):
        for q in range(1, 5):
            for odd in itertools.product((0, 1), repeat=p + q):
                cases += 1
                xy_g = tuple(range(p + q + 1))  # x + y + (g,) as their own indices
                for r in range(p):
                    for s in range(q):
                        pres = _frozen_signed_rows(tuple(range(r)), tuple(range(p, p + s)), odd)
                        posts = _frozen_signed_rows(tuple(range(r + 1, p)), tuple(range(p + s + 1, p + q)), odd)
                        want_flat = tuple(i for pre, _ in pres for post, _ in posts for i in (*pre, p + q, *post))
                        for bma1_odd in (0, 1):
                            block = (odd[r] & _odd_sum(odd, p, p + s)) ^ (
                                _odd_sum(odd, r + 1, p) & _odd_sum(odd, p, p + s + 1)
                            )
                            block ^= bma1_odd & (_odd_sum(odd, 0, r) ^ _odd_sum(odd, p, p + s))
                            want_signs = tuple(-e1 * e2 if block else e1 * e2 for _, e1 in pres for _, e2 in posts)
                            get, signs = ab_core._contraction(p, q, r, s, bma1_odd, odd)
                            assert (get(xy_g), signs) == (want_flat, want_signs), (p, q, odd, r, s)
    assert cases == 900


def _odd_sum(odd: tuple, start: int, stop: int) -> int:
    return sum(odd[start:stop]) & 1


def _lookups(A, bracket_extension, x, y):
    """The result (or overflow message) of ``bracket_extension(A, x, y)``,
    and the ``ell`` lookups it made, in order."""
    seen = []
    ell = A.ell

    def recording(g, h):
        seen.append((g, h))
        return ell(g, h)

    A.ell = recording
    try:
        return bracket_extension(A, x, y), seen
    except TruncationOverflow as exc:
        return str(exc), seen
    finally:
        del A.ell


def _same_as_the_walk(A, words, max_letters):
    """``ell2`` against the walk on every pair of ``words`` with at most
    ``max_letters`` letters: the same terms in the same order with the
    same coefficient types, or the same overflow after the same lookups.
    Returns counts of what the pairs exercised."""
    seen = dict(pairs=0, overflows=0, collisions=0, fractions=0, several_letters=0)
    for x in words:
        for y in words:
            if len(x) + len(y) > max_letters:
                continue
            got, got_lookups = _lookups(A, ell2, x, y)
            want, want_lookups = _lookups(A, _ell2_pair_first, x, y)
            assert got_lookups == want_lookups, (x, y)
            if isinstance(want, str):
                assert got == want, (x, y)
                seen["overflows"] += 1
                continue
            items = [(w, c, type(c)) for w, c in got.terms.items()]
            assert items == [(w, c, type(c)) for w, c in want.terms.items()], (x, y)
            seen["pairs"] += 1
            vals = [(r, s, A.ell(g, h)) for r, g in enumerate(x) for s, h in enumerate(y)]
            # the walk's term count; a result with fewer terms had two walk terms on one word
            walked = sum(
                len(v.terms) * math.comb(r + s, r) * math.comb(len(x) + len(y) - r - s - 2, len(x) - r - 1)
                for r, s, v in vals
            )
            seen["collisions"] += len(got.terms) < walked
            seen["fractions"] += any(type(c) is Fraction for c in got.terms.values())
            seen["several_letters"] += any(len(v.terms) > 1 for _, _, v in vals)
    return seen


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_ell2_plans_match_the_walk_on_probe_words(name):
    """The plans give the walk's result term for term, in its order and
    with its coefficient types, on every pair of probe words with at most
    five letters, and overflow at the same pair with the same message."""
    A = builtin_instance(name).algebra
    seen = _same_as_the_walk(A, probe_words(probe_generators(A, 4), 3), 5)
    assert seen["pairs"]
    if name == "schouten-super":
        assert seen["overflows"]


@pytest.mark.parametrize("name", ["gerstenhaber-toy", "poisson-polynomial", "schouten-super"])
def test_ell2_plans_match_the_walk_on_a_rescaled_algebra(name):
    """The same on a rescaled builtin, whose constants are fractions, over
    words with repeated letters, where two interleavings give one word.
    b - a + 1 is even on gerstenhaber-toy and schouten-super, which have
    brackets of two letters, and odd on poisson-polynomial."""
    A = rescaled(builtin_instance(name), (2, -1, 3, -2)).algebra
    assert (A.b - A.a + 1) % 2 == (name == "poisson-polynomial")
    gens = _closed_letters(A, 5)
    pairs = [(g, h) for g in gens for h in gens]
    words = [(g,) for g in gens] + pairs + [(g, g, h) for g, h in pairs]
    seen = _same_as_the_walk(A, words, 5)
    assert seen["pairs"] and seen["collisions"] and seen["fractions"]
    assert seen["several_letters"] or name == "poisson-polynomial"


def _closed_letters(A, count: int) -> list:
    """Up to ``count`` generators whose brackets with each other stay inside
    the truncation, taken greedily: those with the widest brackets first,
    then those with fractional ones."""
    def brackets(g, among):
        try:
            return [A.ell(g, h) for h in among] + [A.ell(h, g) for h in among]
        except TruncationOverflow:
            return None

    def rank(g):
        values = [v for h in A.generators for v in brackets(g, [h]) or ()]
        widest = max((len(v.terms) for v in values), default=0)
        fractional = any(type(c) is Fraction for v in values for c in v.terms.values())
        return -widest, -fractional

    chosen: list = []
    for g in sorted(A.generators, key=rank):
        if len(chosen) < count and brackets(g, chosen + [g]) is not None:
            chosen.append(g)
    return chosen


def test_ell2_kills_shuffle_images(bracket_algebra):
    A = bracket_algebra
    P, Q, R1 = A.gen("P"), A.gen("Q"), A.gen("R1")
    image = shuffle((P,), (Q,))
    val = bilinear(lambda s, t: ell2(A, s, t), image, Element.of((R1,)))
    assert QUOTIENT.is_zero(val)
    assert not val.is_zero()  # nonzero as a raw element, zero only in the quotient


def test_shifted_variants_are_scalings(bracket_algebra):
    """The table's two bracket forms are ell2 times their signs."""
    A = bracket_algebra
    maps = RunContext(Instance(A, {}), SuiteConfig(algebra=A.name)).maps
    P, Q, R1 = A.gen("P"), A.gen("Q"), A.gen("R1")
    x, y = (P, Q), (R1,)
    base = ell2(A, x, y)
    assert not base.is_zero()
    sp = -1 if ((A.a - A.b - 1) * A.deg_l(x)) % 2 else 1
    assert maps["ell2'"].fn((x, y)) == base.scale(sp)
    spp = -1 if A.deg_s(x) % 2 else 1
    assert maps["ell2''"].fn((x, y)) == base.scale(sp * spp)


def test_axiom_checker_passes_valid_instances(bracket_algebra):
    assert all(c.status == "pass" for c in check_ab_axioms(bracket_algebra))


def test_axiom_checker_reports_commutative_polynomials():
    inst = builtin_instance("poisson-polynomial", {"omega": {}})
    # zero bracket, zero differential: a plain commutative algebra passes
    assert all(c.status != "fail" for c in check_ab_axioms(inst.algebra))


def test_axiom_checker_catches_perturbation_with_witness():
    inst = builtin_instance("poisson-super")
    mutant = perturb_algebra(inst.algebra, ("bracket", "x1^2", "x2^2", "x1*x2"))
    failing = {c.check: c for c in check_ab_axioms(mutant) if c.status == "fail"}
    assert "bracket-jacobi" in failing
    assert "lhs" in failing["bracket-jacobi"].witness


def test_truncation_reports_skip_not_pass():
    A = algebra_from_dict(
        {
            "a": 0,
            "b": 0,
            "generators": [{"id": "u", "degree": 2}],
            "max_degree": 2,
        }
    )
    checks = {c.check: c.status for c in check_ab_axioms(A)}
    assert checks["product-commutativity"] == "skip"
    assert checks["bracket-jacobi"] == "skip"


def test_sweep_skips_overflows_and_stops_at_the_first_failure():
    drawn, evaluated = [], []

    def inputs(n):
        for i in range(n):
            drawn.append(i)
            yield i

    def law(i):
        if i == 1:
            raise TruncationOverflow("left the truncation")
        evaluated.append(i)
        return i != 3, f"detail {i}"

    def run(inputs):
        return sweep("a-check", "a statement", "an instance", inputs, law, lambda i: f"input {i}")

    assert run(inputs(6)) == CheckRecord(
        "a-check", "a statement", "an instance", "fail", 3, 1, "at input 3: detail 3"
    )
    assert drawn == [0, 1, 2, 3]  # no input is drawn past the first failure
    assert evaluated == [0, 2, 3]  # the overflowing input counts as skipped only
    assert run(inputs(3)) == CheckRecord("a-check", "a statement", "an instance", "pass", 2, 1)
    # nothing evaluated is a skip, never a pass, and says why
    assert run([1, 1]) == CheckRecord(
        "a-check", "a statement", "an instance", "skip", 0, 2, "every input escaped the truncation"
    )
    assert run([]) == CheckRecord(
        "a-check", "a statement", "an instance", "skip", 0, 0, "empty input family: no input to evaluate"
    )


def test_identity_rows_and_structure_axioms_run_through_sweep(monkeypatch):
    """Every runner holds the skip rule through the one loop: with it
    replaced by a raising stub, none can evaluate a law on its own."""

    def stub(*args):
        raise RuntimeError("stub sweep")

    monkeypatch.setattr(ab_core, "sweep", stub)
    monkeypatch.setattr(suites, "sweep", stub)
    monkeypatch.setattr(instances, "sweep", stub)
    config = SuiteConfig(algebra="gerstenhaber-toy", max_word_len=2, max_sym_factors=2, max_total_letters=3,
                         probe_gens=2)
    ctx = RunContext(build_instance(config), config)
    with pytest.raises(RuntimeError, match="stub sweep"):
        check_identity("codifferential-squared", ctx)
    with pytest.raises(RuntimeError, match="stub sweep"):
        check_ab_axioms(builtin_instance("gerstenhaber-toy").algebra)
    with pytest.raises(RuntimeError, match="stub sweep"):
        builtin_instance("poisson-super").check_structure()


#: the eight structure axioms and the arity of the generator tuples each runs over
AXIOM_ARITIES = {
    "product-commutativity": 2,
    "product-associativity": 3,
    "bracket-antisymmetry": 2,
    "bracket-jacobi": 3,
    "leibniz": 3,
    "differential-squared": 1,
    "differential-product": 2,
    "differential-bracket": 2,
}


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_axiom_records_count_every_generator_tuple(name):
    """An axiom sweeps every generator tuple, so a passing record's
    evaluated and skipped inputs add up to their number; before the
    axioms reported through the sweep's record every count read 0."""
    config = SuiteConfig(algebra=name, suites=("axioms",), **FAST)
    instance = build_instance(config)
    records = {r.check: r for r in run_verify_envelope(config, instance).records}
    n = len(instance.algebra.generators)
    for axiom, arity in AXIOM_ARITIES.items():
        r = records[axiom]
        assert r.status == "pass", (axiom, r.witness)
        assert r.witness == "", axiom  # the skip count is in ``skipped``, not in a witness
        assert r.evaluated > 0 and r.evaluated + r.skipped == n**arity, axiom
    if name == "schouten-super":  # 25 generators, 297 pairs leave the truncation
        assert (records["product-commutativity"].evaluated, records["product-commutativity"].skipped) == (328, 297)


def test_a_failing_axiom_record_counts_the_tuples_it_evaluated(monkeypatch):
    monkeypatch.chdir(Path(__file__).parent / "golden")
    config = SuiteConfig(algebra="half-constant-algebra.json", suites=("axioms",), **FAST)
    records = {r.check: r for r in run_verify_envelope(config).records}
    r = records["bracket-antisymmetry"]
    assert r.status == "fail" and r.evaluated >= 1
    assert r.witness == "at (u,v): lhs = 1/2*w; rhs = -1/2*w"


def test_mutant_ell2_differs_from_parent():
    """Guard for the per-algebra caches: a mutant must not reuse its parent's values.

    The parent's shifted-constant caches (``mu``, ``ell``) are filled
    first; a product mutant must then return its own ``mu`` and a
    bracket mutant its own ``ell`` on the perturbed pair.
    """
    from abhomotopy.signs import sign
    from abhomotopy.suites import perturbation_candidates

    parent = builtin_instance("poisson-super").algebra
    filled = set()
    for h1 in parent.generators:
        for h2 in parent.generators:
            try:
                parent.mu(h1, h2), parent.ell(h1, h2)
            except TruncationOverflow:
                continue
            filled.add((h1.gid, h2.gid))
    candidates = perturbation_candidates(parent)
    choice = next(c for c in candidates if c[0] == "bracket" and c[1:3] in filled)
    _, i1, i2, tgt = choice
    g1, g2 = parent.gen(i1), parent.gen(i2)
    pairs = [((g1,), (g2,)), ((g1,), (g2, g1)), ((g2, g1), (g2,))]
    before = [ell2(parent, x, y) for x, y in pairs]
    mutant = perturb_algebra(parent, choice)
    assert ell2(mutant, *pairs[0]) != before[0]
    assert any(ell2(mutant, x, y) != b for (x, y), b in zip(pairs, before))
    bump = Element.of(parent.gen(tgt))
    ell_sign = sign((parent.b - parent.a + 1) * g1.deg)
    assert mutant.ell(g1, g2) == (parent.bracket(g1, g2) + bump).scale(ell_sign)
    assert mutant.ell(g1, g2) != parent.ell(g1, g2)
    # the parent is unchanged by building and evaluating the mutant
    assert [ell2(parent, x, y) for x, y in pairs] == before

    choice = next(c for c in candidates if c[0] == "product" and c[1:3] in filled)
    _, i1, i2, tgt = choice
    g1, g2 = parent.gen(i1), parent.gen(i2)
    before_mu = parent.mu(g1, g2)
    mutant = perturb_algebra(parent, choice)
    bump = Element.of(parent.gen(tgt))
    assert mutant.mu(g1, g2) == (parent.product(g1, g2) + bump).scale(sign(g1.deg))
    assert mutant.mu(g1, g2) != before_mu
    assert mutant.ell(g1, g2) == parent.ell(g1, g2)
    assert parent.mu(g1, g2) == before_mu


def _value(method, gens):
    """A structure map's value on generators, or the overflow it raises."""
    try:
        return method(*gens)
    except TruncationOverflow:
        return TruncationOverflow


def test_perturb_algebra_changes_one_entry_of_one_map():
    """A mutant of each kind of structure map adds its target to exactly
    the chosen entry: every other tuple of generators, and every other map,
    is the parent's.  gerstenhaber-toy has a nonzero differential, so the
    differential mutant perturbs a map that is not zero to begin with."""
    parent = builtin_instance("gerstenhaber-toy").algebra
    u = parent.unshifted
    candidates = suites.perturbation_candidates(parent)
    choices = [
        next(c for c in candidates if c[0] == "product"),
        next(c for c in candidates if c[0] == "bracket"),
        next(("differential", g, t) for g in u for t in u if u[t] == u[g] + 1),
    ]
    methods = {"product": 2, "bracket": 2, "differential": 1}
    for choice in choices:
        kind, *inputs, tgt = choice
        mutant = perturb_algebra(parent, choice)
        assert mutant.name == parent.name + "-mutant"
        for other, arity in methods.items():
            for gens in itertools.product(parent.generators, repeat=arity):
                want = _value(getattr(parent, other), gens)
                if other == kind and [g.gid for g in gens] == inputs:
                    assert want is not TruncationOverflow
                    want = want + Element.of(parent.gen(tgt))
                assert _value(getattr(mutant, other), gens) == want, (kind, other, gens)
        assert mutant.degree_violations == [] and parent.degree_violations == []


def test_a_replace_copy_owns_its_degree_violations():
    """``degree_violations`` is made by ``__init__``, never passed in, so a
    ``dataclasses.replace`` copy (every mutant is one) starts an empty list
    of its own: an off-degree value the copy meets is not its parent's."""
    parent = builtin_instance("poisson-super").algebra
    x1 = parent.gen("x1")
    copy = dataclasses.replace(parent, product_fn=lambda g1, g2: Element.of(x1))
    assert copy.degree_violations == [] and copy.degree_violations is not parent.degree_violations
    copy.product(x1, x1)  # x1 has degree 2, so x1.x1 has degree 4, not 2
    assert copy.degree_violations == ["product('x1', 'x1') -> x1 has degree 2, expected 4"]
    assert parent.degree_violations == []


def _counted(algebra) -> tuple[collections.Counter, dict]:
    """Wrap the three structure maps of ``algebra``, in place, with one call
    counter per (map name, *generator ids) key; return the counter and a
    dict of the message of each overflow the maps raised, by key."""
    calls, overflows = collections.Counter(), {}
    for kind, attr in suites._MAP_FIELDS.items():

        def counted(*gids, kind=kind, fn=getattr(algebra, attr)):
            calls[(kind, *gids)] += 1
            try:
                return fn(*gids)
            except TruncationOverflow as exc:
                overflows[(kind, *gids)] = str(exc)
                raise

        setattr(algebra, attr, counted)
    return calls, overflows


def _raised(method, *gens) -> TruncationOverflow:
    with pytest.raises(TruncationOverflow) as info:
        method(*gens)
    return info.value


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_every_structure_constant_reaches_the_instance_map_once(name):
    """A whole run of every suite calls the instance's map once per
    (map, ids) key, also on a key that leaves the basis: the algebra keeps
    the overflow's message, and a later lookup raises a new exception
    with it, through ``mu`` and ``ell`` too."""
    instance = builtin_instance(name)
    A = instance.algebra
    assert A._cache == {} and A._overflows == {}
    calls, overflows = _counted(A)
    config = SuiteConfig(algebra=name, suites=suites.SUITES, seed=1, **FAST)
    suites.run_verify_envelope(config, instance)
    assert calls and set(calls.values()) == {1}
    assert A._overflows == overflows
    if name != "schouten-super":
        return
    assert overflows
    shifted = {"product": A.mu, "bracket": A.ell}
    for (kind, *gids), msg in overflows.items():
        gens = [A.gen(gid) for gid in gids]
        first, again = _raised(getattr(A, kind), *gens), _raised(getattr(A, kind), *gens)
        assert first is not again and str(first) == str(again) == msg
        if kind in shifted:
            assert str(_raised(shifted[kind], *gens)) == msg
        assert calls[(kind, *gids)] == 1


def test_a_mutant_starts_with_none_of_its_parents_overflows():
    """A mutant is a ``dataclasses.replace`` copy, so its overflow table
    starts empty: after the parent has kept an overflow, the mutant calls
    its own map for that key once, and keeps the overflow for itself."""
    parent = builtin_instance("schouten-super").algebra
    calls, overflows = _counted(parent)
    gens = next(
        (g, h) for g, h in itertools.product(parent.generators, repeat=2)
        if _value(parent.product, (g, h)) is TruncationOverflow
    )
    key = ("product", *(g.gid for g in gens))
    msg = overflows[key]
    assert parent._overflows == {key: msg} and calls[key] == 1
    choice = next(c for c in suites.perturbation_candidates(parent) if c[0] == "product")
    mutant = perturb_algebra(parent, choice)
    assert mutant._overflows == {} and mutant._cache == {}
    for _ in range(2):
        # the mutant's map wraps the parent's, so the parent's counter sees it
        assert str(_raised(mutant.product, *gens)) == msg
        assert calls[key] == 2
    assert mutant._overflows == {key: msg}
    assert str(_raised(parent.product, *gens)) == msg and calls[key] == 2


def _table_doc(product):
    return {
        "a": 0,
        "b": 0,
        "generators": [{"id": "u", "degree": 0}, {"id": "w", "degree": 0}],
        "product": product,
    }


def test_unknown_generator_in_table_value_is_named():
    with pytest.raises(ValueError, match="unknown generator 'zz'"):
        algebra_from_dict(_table_doc([["u", "u", [["zz", 1]]]]))


def test_duplicate_table_entry_is_rejected():
    # a second u*u entry used to overwrite the first without a word
    doc = _table_doc([["u", "u", [["w", 1]]], ["u", "u", [["w", 2]]]])
    with pytest.raises(ValueError, match=r"duplicate product entry for \('u', 'u'\)"):
        algebra_from_dict(doc)


@pytest.mark.parametrize("coeff", [
    "0.5", ".5", "1e5", " 3 ", "3\n", "1_000", "\u0663", "1/-2", "1/2/3", "0x10", "", "+", "1/0",
    0.5, True, None,
])
def test_a_coefficient_other_than_an_integer_or_num_den_is_refused(coeff):
    """Only an ``int`` or a string of an optional sign, ASCII digits and
    optionally a slash and digits loads; ``Fraction`` would read the
    decimal, the exponent, the spaces, the separator and the Arabic-Indic
    three."""
    with pytest.raises(ValueError, match="is not an integer or a 'num/den' string"):
        algebra_from_dict(_table_doc([["u", "u", [["w", coeff]]]]))


@pytest.mark.parametrize("coeff, value", [("1/2", Fraction(1, 2)), ("-1/2", Fraction(-1, 2)), ("3", 3), (3, 3)])
def test_an_integer_or_num_den_coefficient_loads(coeff, value):
    A = algebra_from_dict(_table_doc([["u", "u", [["w", coeff]]]]))
    assert A.product(A.gen("u"), A.gen("u")) == Element.of(A.gen("w"), value)


def test_axiom_sweep_without_generators_says_nothing_was_evaluated():
    # with no generator there is no tuple to evaluate: nothing escaped the truncation
    checks = check_ab_axioms(algebra_from_dict({"a": 0, "b": 0, "generators": []}))
    assert len(checks) == 8
    for c in checks:
        assert (c.status, c.evaluated, c.skipped) == ("skip", 0, 0), c.check
        assert c.witness == "empty input family: no input to evaluate", c.check


def test_axiom_checker_takes_no_sample_override():
    # the checker always runs every generator tuple
    A = builtin_instance("poisson-super").algebra
    with pytest.raises(TypeError):
        check_ab_axioms(A, pairs=[])
