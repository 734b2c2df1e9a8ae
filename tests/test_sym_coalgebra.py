import importlib
import itertools
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abhomotopy
from abhomotopy import ab_core, sym_coalgebra, tensor_coalgebra
from abhomotopy.ab_core import AbAlgebra, TruncationOverflow, coderivation_D, ell2, ell2_oracle
from abhomotopy.freemodule import Element, add_term
from abhomotopy.instances import BUILTINS, builtin_instance
from abhomotopy.signs import koszul_sign, koszul_sign_by_swaps, sign
from abhomotopy.suites import RunContext, SuiteConfig, generic_letters, probe_syms, probe_words
from abhomotopy.sym_coalgebra import (
    _direct_cobracket,
    _insertions,
    _normalize_with,
    _oracle_splits,
    _parities,
    _rank,
    block_splits,
    cobracket_doubleprime,
    coproduct_delta,
    extend,
    kappa,
    normalize,
    poisson_cobracket,
    q_by_taylor,
    q_codifferential,
    sym_degree,
    sym_normal_form,
    sym_of,
    sym_tensor_normal_form,
)
from abhomotopy.tensor_coalgebra import (
    Generator,
    cobracket,
    crossing_sign,
    shuffle,
    swap_adjacent_slots,
    word_degree,
)
from test_regrading import rescaled
from test_slot_memo import FORCED, sym_bracket

# every module of the package, found by walking it
PACKAGE_MODULES = [
    importlib.import_module(f"abhomotopy.{info.name}") for info in pkgutil.iter_modules(abhomotopy.__path__)
]


def test_normalize_signs(nilpotent_algebra):
    A = nilpotent_algebra
    u, v = A.gen("u"), A.gen("v")
    # deg_s((u,)) is even, deg_s((v,)) is odd
    assert A.deg_s((u,)) % 2 == 0 and A.deg_s((v,)) % 2 == 1
    assert normalize(A, [(u,), (v,)]) == (1, ((u,), (v,)))
    assert normalize(A, [(v,), (u,)]) == (1, ((u,), (v,)))  # even-odd swap is free
    assert normalize(A, [(v,), (v,)]) == (0, None)  # odd square dies
    assert sym_of(A, [(v,), (v,)]).is_zero()


def test_normalize_odd_odd_swap(poisson_poly_instance):
    A = poisson_poly_instance.algebra
    x1, x2 = A.gen("x1"), A.gen("x2")  # both of odd shifted degree
    sign, sym = normalize(A, [(x2,), (x1,)])
    assert sign == -1 and sym == ((x1,), (x2,))


def test_coproduct_small(poisson_poly_instance):
    A = poisson_poly_instance.algebra
    x1, x2 = A.gen("x1"), A.gen("x2")
    assert coproduct_delta(A, ((x1,),)).is_zero()
    X, Y = (x1, x1), (x1, x2)  # both factors of even symmetric degree
    got = coproduct_delta(A, (X, Y))
    assert got == Element.of(((X,), (Y,))) + Element.of(((Y,), (X,)))


def test_coproduct_three_factors_against_block_sign_oracle(poisson_poly_instance):
    A = poisson_poly_instance.algebra
    x1, x2 = A.gen("x1"), A.gen("x2")
    factors = ((x1,), (x2,), (x1, x2))
    got = coproduct_delta(A, factors)
    assert len(got) == 6
    degs = [A.deg_s(w) for w in factors]
    want = Element.zero()
    for r in (1, 2):
        for left in itertools.combinations(range(3), r):
            right = tuple(i for i in range(3) if i not in left)
            sigma = [0] * 3
            for rank, i in enumerate(left):
                sigma[i] = rank
            for rank, j in enumerate(right):
                sigma[j] = r + rank
            s = koszul_sign_by_swaps(degs, tuple(sigma))
            want = want + Element.of(
                (tuple(factors[i] for i in left), tuple(factors[j] for j in right)), s
            )
    assert got == want


def test_block_splits_signs_and_order_against_koszul_sign():
    """The parity block sign equals ``koszul_sign`` of the arrangement
    (left, pinned, right), and the splits come in ``itertools.combinations``
    order, for up to six factors of degree 0-3, every pinned position and
    every block size: none given, 0 up to a full left block, and one more
    than there are positions to choose from, which yields nothing.

    ``block_splits`` reads the parities of the degrees and ``koszul_sign``
    the degrees themselves, which it depends on through their parities
    only, so the expected splits are built once per parity pattern and
    every degree vector of that pattern is held to them."""
    expected: dict = {}
    checked = 0
    for n in range(1, 7):
        for degs in itertools.product(range(4), repeat=n):
            for pinned in (None, *range(n)):
                for size in (None, *range(n + 2)):
                    key = (tuple(d % 2 for d in degs), pinned, size)
                    if key not in expected:
                        others = [i for i in range(n) if i != pinned]
                        middle = () if pinned is None else (pinned,)
                        if size is not None:
                            sizes = [size]
                        else:
                            sizes = range(1, n) if pinned is None else range(n)
                        want = []
                        for r in sizes:
                            for left in itertools.combinations(others, r):
                                right = tuple(i for i in others if i not in left)
                                sigma = [0] * n
                                for rank, i in enumerate(left + middle + right):
                                    sigma[i] = rank
                                want.append((left, right, koszul_sign(degs, sigma)))
                        expected[key] = want
                    got = list(block_splits(tuple(d % 2 for d in degs), pinned, size))
                    assert got == expected[key], (degs, pinned, size)
                    checked += len(got)
    assert checked == 2343024
    assert [s[0] for s in block_splits((1, 0, 1), size=3)] == [(0, 1, 2)]
    assert list(block_splits((1, 0, 1), size=4)) == []
    assert list(block_splits((1, 0, 1), pinned=1, size=3)) == []


class Guarded(AssertionError):
    """Raised by a production table or split enumerator that an oracle must not read."""


def guarded(*args, **kwargs):
    raise Guarded("an oracle read a production table or split enumerator")


def guard_the_builders(monkeypatch) -> list[str]:
    """Replace every cached builder of the package but ``word_degree`` (a
    letter's degree, which the oracles read too), and ``crossing_sign``,
    by :func:`guarded`, under every name a package module binds it to.

    The builders are found, not listed: every module attribute with a
    ``cache_info``, so a table added later is guarded without a word
    here.  Returns the guarded names, module-qualified."""
    targets = [crossing_sign] + [
        value for module in PACKAGE_MODULES for value in vars(module).values()
        if hasattr(value, "cache_info") and value is not word_degree
    ]
    names = []
    for module in PACKAGE_MODULES:
        for name, value in list(vars(module).items()):
            if any(value is target for target in targets):
                monkeypatch.setattr(module, name, guarded)
                names.append(f"{module.__name__}.{name}")
    return names


@pytest.mark.parametrize("builtin", ["gerstenhaber-toy", "poisson-polynomial"])
def test_the_oracles_read_neither_split_enumerator(builtin, monkeypatch):
    """The oracles enumerate and sign their splits themselves and read no
    production table: with every cached builder of the package (the
    shuffle and interleaving tables, ``two_blocks``, the word cobracket,
    the slot-permutation plans, the bracket extension's plans, the split,
    insertion and cut-plan tables, the generic letters) and
    ``crossing_sign`` raising, every oracle (``kappa``,
    ``poisson_cobracket``, ``q_by_taylor`` and ``ell2_oracle``) still runs
    on every probe sym and word pair, while the production kernels built on
    them raise.  Only ``word_degree`` stays, as the oracles read letter
    degrees."""
    sizes = dict(max_word_len=2, max_sym_factors=3, max_total_letters=4, probe_gens=2)
    config = SuiteConfig(algebra=builtin, **sizes)
    ctx = RunContext(builtin_instance(builtin), config, forced_gens=FORCED[builtin])
    A, D = ctx.algebra, coderivation_D(ctx.algebra)
    syms = list(dict.fromkeys(ctx.syms_letters + ctx.syms_factors))
    assert max(map(len, syms)) >= 3
    names = guard_the_builders(monkeypatch)
    for name in ("tensor_coalgebra.two_blocks", "tensor_coalgebra.interleaving_signs",
                 "tensor_coalgebra.cobracket", "tensor_coalgebra._perm_plan", "ab_core._ell2_plan",
                 "sym_coalgebra.block_splits", "sym_coalgebra._insertions", "sym_coalgebra._cut_plan",
                 "suites._generic_letters", "sym_coalgebra.crossing_sign"):
        assert f"abhomotopy.{name}" in names
    with pytest.raises(Guarded):
        shuffle(ctx.pair_words[0], ctx.pair_words[0])
    with pytest.raises(Guarded):
        coproduct_delta(A, next(sym for sym in syms if len(sym) > 1))
    cut = next(sym for sym in syms if len(sym) > 1 and max(map(len, sym)) > 1)
    with pytest.raises(Guarded):
        cobracket_doubleprime(A, cut, delta=cobracket)
    with pytest.raises(Guarded):
        extend(A, next(sym for sym in syms if len(sym) > 1), 1, lambda w: Element.of(w))
    with pytest.raises(Guarded):
        swap_adjacent_slots(Element.of(tuple(ctx.pair_words[:2])), 0, A.deg_s)
    g, h = next((g, h) for g in A.generators for h in A.generators if _nonzero_bracket(A, g, h))
    with pytest.raises(Guarded):
        ell2(A, (g,), (h,))
    bracket = lambda xy: ell2_oracle(A, *xy)
    evaluated = 0
    for sym in syms:
        degs = [A.deg_s(w) for w in sym]
        for left, right, eps in _oracle_splits(degs, range(len(sym) + 1)):
            sigma = [0] * len(sym)
            for rank, i in enumerate(left + right):
                sigma[i] = rank
            assert koszul_sign(degs, sigma) == koszul_sign_by_swaps(degs, tuple(sigma)) == eps
        for oracle in (kappa, poisson_cobracket, lambda A, sym: q_by_taylor(A, sym, D, bracket)):
            try:
                oracle(A, sym)
                evaluated += 1
            except TruncationOverflow:
                pass
    for x in ctx.pair_words:
        for y in ctx.pair_words:
            try:
                ell2_oracle(A, x, y)
                evaluated += 1
            except TruncationOverflow:
                pass
    assert evaluated > len(syms)


def _nonzero_bracket(A, g, h) -> bool:
    try:
        return not A.bracket(g, h).is_zero()
    except TruncationOverflow:
        return False


def test_extensions_on_one_and_two_factors(toy_instance):
    A = toy_instance.algebra
    D = coderivation_D(A)
    g = A.gen("x1")
    h = A.gen("dx1")
    one_factor = ((g, h),)
    assert extend(A, one_factor, 2, sym_bracket(A)).is_zero()
    got = extend(A, one_factor, 1, D)
    want = Element.zero()
    for w, c in D((g, h)).items():
        want = want + sym_of(A, (w,), c)
    assert got == want


def test_extend_m_two_factor_sign_oracle(toy_instance):
    A = toy_instance.algebra
    D = coderivation_D(A)
    gens = sorted(A.generators, key=lambda t: t.gid)[:4]
    words = [(g,) for g in gens] + [(g1, g2) for g1 in gens[:2] for g2 in gens[:2]]
    for w1 in words:
        for w2 in words:
            e = sym_of(A, (w1, w2))
            if e.is_zero():
                continue
            sym = next(iter(e.items()))[0]
            try:
                got = extend(A, sym, 1, D)
            except TruncationOverflow:
                continue
            degs = [A.deg_s(w) for w in sym]
            want = Element.zero()
            for i in range(2):
                front = koszul_sign_by_swaps(degs, (1, 0) if i == 1 else (0, 1))
                rest = sym[:i] + sym[i + 1 :]
                for w, c in D(sym[i]).items():
                    want = want + sym_of(A, (w,) + rest, c * front)
            assert got == want, sym


def test_q_on_single_letter_is_differential(nilpotent_algebra):
    A = nilpotent_algebra
    D = coderivation_D(A)
    u, v = A.gen("u"), A.gen("v")
    assert q_codifferential(A, ((u,),), D, sym_bracket(A)) == Element.of((((v,),)))
    assert q_codifferential(A, ((v,),), D, sym_bracket(A)).is_zero()


def test_m_squared_and_ell_squared_vanish(toy_instance):
    A = toy_instance.algebra
    D, bracket = coderivation_D(A), sym_bracket(A)
    gens = sorted(A.generators, key=lambda t: (abs(A.unshifted[t.gid]), t.gid))[:3]
    words = [(g,) for g in gens] + [(g1, g2) for g1 in gens for g2 in gens]
    checked = 0
    for combo in itertools.combinations_with_replacement(words, 2):
        e = sym_of(A, combo)
        if e.is_zero():
            continue
        sym = next(iter(e.items()))[0]
        try:
            mm = extend(A, sym, 1, D).map_basis(lambda s: extend(A, s, 1, D))
            ll = extend(A, sym, 2, bracket).map_basis(lambda s: extend(A, s, 2, bracket))
        except TruncationOverflow:
            continue
        checked += 1
        assert sym_normal_form(A, mm).is_zero(), sym
        assert sym_normal_form(A, ll).is_zero(), sym
    assert checked > 10


def test_q_matches_taylor_presentation(toy_instance):
    A = toy_instance.algebra
    D, bracket = coderivation_D(A), sym_bracket(A)
    g1, g2 = A.gen("x1"), A.gen("dx1")
    for factors in (((g1,),), ((g1,), (g2,)), ((g1, g2), (g2,)), ((g1,), (g2,), (g1,))):
        e = sym_of(A, factors)
        if e.is_zero():
            continue
        sym = next(iter(e.items()))[0]
        try:
            assert q_codifferential(A, sym, D, bracket) == q_by_taylor(A, sym, D, bracket)
        except TruncationOverflow:
            continue


def test_cobracket_doubleprime_single_factor(toy_instance, poisson_poly_instance):
    for inst in (toy_instance, poisson_poly_instance):
        A = inst.algebra
        amb = A.a - A.b
        g1, g2 = A.generators[0], A.generators[1]
        assert cobracket_doubleprime(A, ((g1,),), delta=cobracket).is_zero()
        sym = ((g1, g2),)
        got = cobracket_doubleprime(A, sym, delta=cobracket)
        du, dv = A.deg_s((g1,)), A.deg_s((g2,))
        c0 = -1 if (amb * du) % 2 else 1
        c1 = c0 * (-1 if (du * dv + amb + 1) % 2 else 1)
        want = Element.of((((g1,),), ((g2,),)), c0) + Element.of(
            (((g2,),), ((g1,),)), c1
        )
        assert got == want


def test_specialization_matches():
    """On every builtin, delta'' equals the direct cobracket of the parity
    of a - b: kappa when it is odd, poisson_cobracket when it is even."""
    for name in sorted(BUILTINS):
        A = builtin_instance(name).algebra
        oracle = kappa if (A.a - A.b) % 2 else poisson_cobracket
        g1, g2 = (A.gen(g) for g in FORCED[name])
        for factors in (((g1, g2),), ((g1,), (g2, g2)), ((g1, g2), (g2, g1))):
            e = sym_of(A, factors)
            if e.is_zero():
                continue
            sym = next(iter(e.items()))[0]
            assert cobracket_doubleprime(A, sym, delta=cobracket) == oracle(A, sym), (name, sym)


def test_cobracket_doubleprime_equals_the_direct_cobracket_up_to_five_factors():
    """delta'' equals the direct cobracket of its parity of a - b on syms of
    two-letter words over distinct generic letters: every deg_s parity
    pattern of 1 to 5 factors, at both parities of a - b, with the first
    letter of each factor odd at alternate factors and then at the others,
    so that every factor is cut, at every split of the others, into a
    first piece of either parity.  delta'' reads the algebra's a - b
    alone, and the direct cobracket only its parity."""
    checked = 0
    for t in (0, 1):
        for n in range(1, 6):
            for pattern in itertools.product((0, 1), repeat=n):
                for shift in (0, 1):
                    firsts = [(i + shift) % 2 for i in range(n)]
                    # deg_s = dg - t, so a factor of deg_s parity p has dg parity p + t
                    gens = generic_letters(
                        d for p, f in zip(pattern, firsts) for d in (f, (p + t - f) % 2 + 2)
                    )
                    A = AbAlgebra("generic", t, 0, tuple(gens), {g.gid: g.deg + 1 - t for g in gens},
                                  None, None, None)
                    _, sym = normalize(A, [tuple(gens[2 * i : 2 * i + 2]) for i in range(n)])
                    assert sorted(A.deg_s(w) % 2 for w in sym) == sorted(pattern)
                    got = cobracket_doubleprime(A, sym, delta=cobracket)
                    assert got == _direct_cobracket(sym, t), (t, sym)
                    assert len(got) > 0
                    checked += 1
    assert checked == 2 * 2 * (2 + 4 + 8 + 16 + 32)


@pytest.mark.parametrize(
    "builtin, oracle", [("gerstenhaber-toy", kappa), ("poisson-super", poisson_cobracket)]
)
def test_cobracket_doubleprime_equals_its_oracle_at_four_probe_generators(builtin, oracle):
    """delta'' equals the direct cobracket of its parity of a - b on every
    sym of the cobracket rows' family at ``--probe-gens 4``."""
    config = SuiteConfig(algebra=builtin, probe_gens=4)
    ctx = RunContext(builtin_instance(builtin), config)
    A = ctx.algebra
    assert (A.a - A.b) % 2 == (oracle is kappa)
    assert max(map(len, ctx.syms_factors)) == config.max_sym_factors
    for sym in ctx.syms_factors:
        assert cobracket_doubleprime(A, sym, delta=cobracket) == oracle(A, sym), sym


def test_kappa_is_cosymmetric(toy_instance):
    A = toy_instance.algebra
    sdeg = lambda sym: sym_degree(A, sym)
    g1, g2 = A.gen("x1"), A.gen("dx1")
    for factors in (((g1, g2),), ((g1,), (g2, g1)), ((g1, g2), (g2,))):
        e = sym_of(A, factors)
        if e.is_zero():
            continue
        sym = next(iter(e.items()))[0]
        k = kappa(A, sym)
        assert sym_tensor_normal_form(A, swap_adjacent_slots(k, 0, sdeg) - k).is_zero()


def test_sym_with_shuffle_image_factor_is_zero(poisson_poly_instance):
    A = poisson_poly_instance.algebra
    x1, x2 = A.gen("x1"), A.gen("x2")
    image = shuffle((x1,), (x2,))
    other = (x1, x1)
    acc = Element.zero()
    for w, c in image.items():
        acc = acc + sym_of(A, (w, other), c)
    assert not acc.is_zero()
    assert sym_normal_form(A, acc).is_zero()


# -- canonical insertion against the full re-sort -------------------------------

# letters of every parity; words over them have mixed parities, and short
# words over few letters make repeated factors (odd ones die) common
_LETTERS = [Generator("p", 0), Generator("q", 1), Generator("r", 2), Generator("s", 1)]
_words = st.lists(st.sampled_from(_LETTERS), min_size=1, max_size=3).map(tuple)
_parity = lambda w: sum(g.deg for g in w) % 2


def _insert_by_table(factors, odds, block, w, w_odd, front):
    """``w`` placed into the ``block`` positions of the canonical
    ``factors`` through :func:`_rank` and the insertion table, as
    ``(sign, sym)``, (0, None) when an odd ``w`` equals a block factor."""
    rank, eq = _rank(factors, w)
    if w_odd and eq in block:
        return 0, None
    get, passed = _insertions(tuple(odds), block, front)[rank]
    return (-1 if w_odd and passed else 1), get(factors + (w,))


@settings(max_examples=400, deadline=None)
@given(st.lists(_words, max_size=5), st.lists(st.booleans(), min_size=5, max_size=5), _words, st.booleans())
def test_insert_factor_matches_full_resort(factors, chosen, w, front):
    """The rank of ``w`` in a canonical sym and the insertion table of a
    block of its positions (every position, or any subset) give the full
    re-sort of the block's factors with ``w`` in front or at the end, and
    the frozen scan of the block itself (:func:`_insert_factor_ref`)."""
    _, canonical = _normalize_with(_parity, factors)
    if canonical is None:  # a repeated odd factor: not a canonical input
        return
    odds = [_parity(x) for x in canonical]
    everything = range(len(canonical))
    for block in (tuple(everything), tuple(i for i in everything if chosen[i])):
        sub = tuple(canonical[i] for i in block)
        seq = (w,) + sub if front else sub + (w,)
        got = _insert_by_table(canonical, odds, block, w, _parity(w), front)
        assert got == _normalize_with(_parity, seq)
        assert got == _insert_factor_ref(sub, [odds[i] for i in block], w, _parity(w), front)


def test_insert_factor_repeated_factors():
    q, p = (Generator("q", 1),), (Generator("p", 0),)
    odds = [_parity(x) for x in (p, q)]
    both = (0, 1)
    # a repeated odd factor gives zero from either end, and only if it is in the block
    assert _rank((p, q), q) == (1, 1)
    assert _insert_by_table((p, q), odds, both, q, 1, True) == (0, None)
    assert _insert_by_table((p, q), odds, both, q, 1, False) == (0, None)
    assert _insert_by_table((p, q), odds, (0,), q, 1, False) == (1, (p, q))
    # a repeated even factor is kept, from the front and from the end
    assert _rank((p, q), p) == (0, 0)
    assert _insert_by_table((p, q), odds, both, p, 0, True) == (1, (p, p, q))
    assert _insert_by_table((p, q), odds, both, p, 0, False) == (1, (p, p, q))
    # an empty block gets the word alone; a word past every factor has rank n
    assert _insert_by_table((p, q), odds, (), q, 1, True) == (1, (q,))
    assert _rank((p, q), (Generator("r", 2), Generator("r", 2))) == (2, -1)


# -- production kernels against re-sorting references -----------------------------
#
# The references restate each kernel with the parent's bookkeeping: every
# output factor sequence is built in full and re-sorted by ``normalize``.


def _ref_add(acc, A, factors, coeff):
    sgn, sym = normalize(A, factors)
    if sym is not None:
        acc = acc + Element.of(sym, coeff * sgn)
    return acc


def ref_extend_m(A, sym, D):
    degs = [A.deg_s(w) for w in sym]
    acc = Element.zero()
    for i in range(len(sym)):
        front = sign(degs[i] * sum(degs[:i]))
        rest = sym[:i] + sym[i + 1 :]
        for w, c in D(sym[i]).items():
            acc = _ref_add(acc, A, (w,) + rest, c * front)
    return acc


def ref_extend_ell(A, sym, bracket):
    degs = [A.deg_s(w) for w in sym]
    acc = Element.zero()
    n = len(sym)
    for i in range(n):
        for j in range(i + 1, n):
            front = sign(degs[i] * sum(degs[:i]) + degs[j] * (sum(degs[:j]) - degs[i]))
            rest = tuple(sym[k] for k in range(n) if k not in (i, j))
            for w, c in bracket((sym[i], sym[j])).items():
                acc = _ref_add(acc, A, (w,) + rest, c * front)
    return acc


def ref_cobracket_doubleprime(A, sym):
    amb = A.a - A.b
    degs = [A.deg_s(w) for w in sym]
    acc = Element.zero()
    for s, xs in enumerate(sym):
        for left, right, eps in block_splits(tuple(d % 2 for d in degs), pinned=s):
            deg_left = sum(degs[i] for i in left)
            fac_left = tuple(sym[i] for i in left)
            fac_right = tuple(sym[j] for j in right)
            for cut in range(1, len(xs)):
                u, v = xs[:cut], xs[cut:]
                du, dv = A.deg_s(u), A.deg_s(v)
                c0 = eps * sign(amb * (deg_left + du))
                c1 = c0 * sign(du * dv + amb + 1)
                for lf, rf, c in ((fac_left + (u,), (v,) + fac_right, c0),
                                  (fac_left + (v,), (u,) + fac_right, c1)):
                    sl, wl = normalize(A, lf)
                    sr, wr = normalize(A, rf)
                    if wl is not None and wr is not None:
                        acc = acc + Element.of((wl, wr), c * sl * sr)
    return acc


def _same_or_both_overflow(got_fn, want_fn) -> bool:
    """Compare two evaluations; True when both overflowed the truncation."""
    try:
        want = want_fn()
    except TruncationOverflow:
        with pytest.raises(TruncationOverflow):
            got_fn()
        return True
    assert got_fn() == want
    return False


FAST = dict(max_word_len=2, max_sym_factors=2, max_total_letters=3, probe_gens=2)


@pytest.mark.parametrize("sizes", [FAST, {}], ids=["fast", "default"])
@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_kernels_match_resorting_references(builtin, sizes):
    """delta'', m and ell'' term by term on every probe sym of a builtin,
    at the FAST sizes and at the command-line defaults; the context's
    memoized deg_s agrees with ``sym_degree`` on a first and a repeated call."""
    ctx = RunContext(builtin_instance(builtin), SuiteConfig(algebra=builtin, **sizes))
    A, D, bracket = ctx.algebra, ctx.maps["D"].fn, ctx.maps["ell2''"].fn
    syms = dict.fromkeys(ctx.syms_letters + ctx.syms_factors + ctx.syms_small)
    assert len(syms) > 10
    evaluated = 0
    for sym in syms:
        assert ctx.sdeg(sym) == ctx.sdeg(sym) == sym_degree(A, sym)
        for got_fn, want_fn in (
            (lambda: cobracket_doubleprime(A, sym, delta=cobracket),
             lambda: ref_cobracket_doubleprime(A, sym)),
            (lambda: extend(A, sym, 1, D), lambda: ref_extend_m(A, sym, D)),
            (lambda: extend(A, sym, 2, bracket), lambda: ref_extend_ell(A, sym, bracket)),
        ):
            evaluated += not _same_or_both_overflow(got_fn, want_fn)
    assert evaluated > 0


# -- the planned kernels against the scans they replaced ---------------------------
#
# The bodies of ``insert_factor``, ``extend`` and ``cobracket_doubleprime``
# as they were before ranks and insertion tables, frozen here as references:
# each output word is placed by one ordered scan of its block, split by split.


def _insert_factor_ref(factors, odds, w, w_odd, front):
    lw, n = len(w), len(factors)
    crossed = 0
    if front:
        p = 0
        while p < n:
            f = factors[p]
            lf = len(f)
            if lf > lw or lf == lw and f >= w:
                break
            crossed += odds[p]
            p += 1
        if w_odd and p < n and factors[p] == w:
            return 0, None
    else:
        p = n
        while p:
            f = factors[p - 1]
            lf = len(f)
            if lf < lw or lf == lw and f <= w:
                break
            p -= 1
            crossed += odds[p]
        if w_odd and p and factors[p - 1] == w:
            return 0, None
    return (-1 if w_odd and crossed % 2 else 1), factors[:p] + (w,) + factors[p:]


def _extend_ref(algebra, sym, size, f):
    amb = algebra.a - algebra.b
    odds = _parities(amb, sym)
    acc: dict = {}
    for block, others, front in block_splits(odds, size=size):
        rest, rest_odds = tuple([sym[i] for i in others]), tuple([odds[i] for i in others])
        arg = sym[block[0]] if size == 1 else tuple([sym[i] for i in block])
        for w, c in f(arg).terms.items():
            s, out = _insert_factor_ref(rest, rest_odds, w, (word_degree(w) - amb) % 2, True)
            if s:
                add_term(acc, out, c * front * s)
    return Element(acc)


def _cobracket_doubleprime_ref(algebra, sym, *, delta):
    amb = algebra.a - algebra.b
    t = amb & 1
    odds = _parities(amb, sym)
    acc: dict = {}
    for s, xs in enumerate(sym):
        terms = []
        for (p, r), c in delta(xs).terms.items():
            p_odd = (word_degree(p) - amb) & 1
            terms.append((p, p_odd, r, (word_degree(r) - amb) & 1, -c if t & p_odd else c))
        if not terms:
            continue
        for left, right, eps in block_splits(odds, pinned=s):
            odd_left, odd_right = tuple([odds[i] for i in left]), tuple([odds[j] for j in right])
            if t and sum(odd_left) & 1:
                eps = -eps
            fac_left = tuple([sym[i] for i in left])
            fac_right = tuple([sym[j] for j in right])
            for p, p_odd, r, r_odd, c in terms:
                sl, wl = _insert_factor_ref(fac_left, odd_left, p, p_odd, False)
                if wl is None:
                    continue
                sr, wr = _insert_factor_ref(fac_right, odd_right, r, r_odd, True)
                if wr is not None:
                    add_term(acc, (wl, wr), c * eps * sl * sr)
    return Element(acc)


def _typed_items(fn):
    """The terms of ``fn()`` in order with their coefficient types, or the
    overflow message."""
    try:
        return [(b, c, type(c)) for b, c in fn().terms.items()]
    except TruncationOverflow as e:
        return str(e)


@pytest.mark.parametrize("rescale", [False, True], ids=["builtin", "rescaled"])
@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_planned_kernels_match_the_frozen_scans(builtin, rescale):
    """delta'', m and ell'' give the frozen scans' terms in their order and
    with their coefficient types (or overflow with the same message) on
    every probe sym of up to four factors, on every builtin (both parities
    of a - b occur) and on the builtin rescaled by (2, -1, 3, -2), where
    the D and ell2'' images bring fractions to ``extend``.  The syms take
    in repeated even factors, and odd cut words and odd image words equal
    to another factor, which give nothing."""
    instance = builtin_instance(builtin)
    if rescale:
        instance = rescaled(instance, (2, -1, 3, -2))
    ctx = RunContext(instance, SuiteConfig(algebra=builtin, **FAST), forced_gens=FORCED[builtin])
    A, D, bracket = ctx.algebra, ctx.maps["D"].fn, ctx.maps["ell2''"].fn
    # the forced generators and the probes: syms of up to four words of
    # at most two letters, six letters in all, and of words up to four
    # letters long, four letters in all
    gens = [w[0] for w in ctx.pair_words if len(w) == 1]
    syms = probe_syms(A, probe_words(gens, 2), 4, 6) + probe_syms(A, probe_words(gens, 4), 4, 4)
    amb = A.a - A.b
    odd = lambda w: (word_degree(w) - amb) & 1
    seen = dict.fromkeys(["four", "repeated_even", "odd_cut_equal", "odd_image_equal", "fractions"], 0)
    for sym in dict.fromkeys(syms):
        for got_fn, want_fn in (
            (lambda: cobracket_doubleprime(A, sym, delta=cobracket),
             lambda: _cobracket_doubleprime_ref(A, sym, delta=cobracket)),
            (lambda: extend(A, sym, 1, D), lambda: _extend_ref(A, sym, 1, D)),
            (lambda: extend(A, sym, 2, bracket), lambda: _extend_ref(A, sym, 2, bracket)),
        ):
            want = _typed_items(want_fn)
            assert _typed_items(got_fn) == want, sym
            if not isinstance(want, str):
                seen["fractions"] += any(c is Fraction for _, _, c in want)
        seen["four"] += len(sym) == 4
        seen["repeated_even"] += any(x == y and not odd(x) for x, y in zip(sym, sym[1:]))
        seen["odd_cut_equal"] += any(
            odd(w) and w in sym[:s] + sym[s + 1 :]
            for s, xs in enumerate(sym) for pr in cobracket(xs).terms for w in pr
        )
        for size, f in ((1, D), (2, bracket)):
            for block, others, _ in block_splits(_parities(amb, sym), size=size):
                try:
                    image = f(sym[block[0]] if size == 1 else tuple(sym[i] for i in block))
                except TruncationOverflow:
                    continue
                seen["odd_image_equal"] += any(odd(w) and w in [sym[i] for i in others] for w in image.terms)
    assert all(seen[k] for k in ("four", "repeated_even", "odd_cut_equal", "odd_image_equal")), seen
    assert bool(seen["fractions"]) == rescale, seen
