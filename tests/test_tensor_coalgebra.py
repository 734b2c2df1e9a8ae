import importlib.util
import itertools
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from abhomotopy.freemodule import Element, ReducedBasis, bilinear
from abhomotopy.signs import enumerate_shuffles, inverse, koszul_sign_by_swaps
from abhomotopy.tensor_coalgebra import (
    QUOTIENT,
    Generator,
    ShuffleQuotient,
    apply_in_slot,
    cobracket,
    contract_adjacent_slots,
    shuffle,
    shuffle_elements,
    signed_interleavings,
    splice_in_slot,
    swap_adjacent_slots,
    word_degree,
    word_key,
)

ROOT = Path(__file__).resolve().parent.parent


def gens(*degs):
    return [Generator(f"g{i}", d) for i, d in enumerate(degs, start=1)]


def test_shuffle_two_letters():
    a, b = gens(2, 2)  # even shifted degrees
    assert shuffle((a,), (b,)) == Element.of((a, b)) + Element.of((b, a))
    a, b = gens(1, 1)
    assert shuffle((a,), (b,)) == Element.of((a, b)) - Element.of((b, a))


def test_shuffle_two_one_even():
    a, b, c = gens(0, 0, 0)
    got = shuffle((a, b), (c,))
    want = Element.of((a, b, c)) + Element.of((a, c, b)) + Element.of((c, a, b))
    assert got == want


def test_shuffle_commutativity_and_associativity_small():
    for degs in itertools.product((0, 1, 2), repeat=4):
        letters = gens(*degs)
        for p in (1, 2, 3):
            x, y = tuple(letters[:p]), tuple(letters[p:])
            sign = -1 if (word_degree(x) * word_degree(y)) % 2 else 1
            assert shuffle(x, y) == shuffle(y, x).scale(sign)
        x, y, z = (letters[0],), (letters[1],), tuple(letters[2:])
        lhs = shuffle_elements(shuffle(x, y), Element.of(z))
        rhs = shuffle_elements(Element.of(x), shuffle(y, z))
        assert lhs == rhs


def reference_shuffle(x, y):
    """Shuffle product from the permutation enumerator and the by-swaps sign oracle."""
    letters = x + y
    degs = [g.deg for g in letters]
    acc = Element.zero()
    for sigma in enumerate_shuffles(len(x), len(y)):
        out = tuple(letters[i] for i in inverse(sigma))
        acc = acc + Element.of(out, koszul_sign_by_swaps(degs, sigma))
    return acc


def reference_inputs(max_total=6):
    """Every split of every degree pattern over (0, 1, 2), on distinct letters
    and on the repeated letters o (odd), e and t (even)."""
    repeated = {0: Generator("e", 0), 1: Generator("o", 1), 2: Generator("t", 2)}
    for n in range(2, max_total + 1):
        for degs in itertools.product((0, 1, 2), repeat=n):
            distinct = gens(*degs)
            same = [repeated[d] for d in degs]
            for p in range(1, n):
                yield tuple(distinct[:p]), tuple(distinct[p:])
                yield tuple(same[:p]), tuple(same[p:])


def test_shuffle_matches_permutation_reference():
    checked = 0
    for x, y in reference_inputs():
        assert shuffle(x, y) == reference_shuffle(x, y), (x, y)
        checked += 1
    assert checked == 2 * 4923
    # the repeated-letter inputs exercise cancellation and doubling
    o, e = Generator("o", 1), Generator("e", 0)
    assert shuffle((o,), (o,)).is_zero()
    assert shuffle((e,), (e,)) == Element.of((e, e), 2)


def test_shuffle_elements_matches_the_bilinear_reference():
    """shuffle_elements agrees with the bilinear extension of the
    permutation reference, and stores no zero and no integral Fraction."""
    pairs = list(reference_inputs(max_total=4))
    coeffs = [1, -2, Fraction(1, 2), Fraction(-3, 4), 3, Fraction(2, 3)]
    checked = cancelled = 0
    for k in range(0, len(pairs), 3):
        (x1, y1), (x2, y2), (x3, y3) = pairs[k : k + 3]
        # sums over repeated-letter and distinct-letter words, so terms cancel
        ex = Element.from_terms([(x1, coeffs[k % 6]), (x2, coeffs[(k + 1) % 6]), (y3, coeffs[(k + 2) % 6])])
        ey = Element.from_terms([(y1, coeffs[(k + 3) % 6]), (y2, coeffs[(k + 4) % 6]), (x3, Fraction(1, 2))])
        got = shuffle_elements(ex, ey)
        want = bilinear(reference_shuffle, ex, ey)
        assert got == want, (ex, ey)
        for c in got.terms.values():
            assert c != 0
            if c.denominator == 1:
                assert type(c) is int, (ex, ey, c)
        checked += 1
        cancelled += len(got) < sum(
            len(reference_shuffle(x, y)) for x in ex.terms for y in ey.terms
        )
    assert checked == 204 and cancelled > 0
    # an integral Fraction coefficient comes back as int
    o, e = Generator("o", 1), Generator("e", 0)
    half = shuffle_elements(Element.of((e,), Fraction(1, 2)), Element.of((e,), 2))
    assert half.terms == {(e, e): 2} and type(half.coefficient((e, e))) is int
    # odd letters cancel: o|o with itself is zero
    assert shuffle_elements(Element.of((o,), Fraction(3, 2)), Element.of((o,))).is_zero()


def test_shuffle_elements_rejects_the_empty_word():
    a, b = gens(1, 2)
    with_empty = Element.from_terms([((a,), 1), ((), 2)])
    with pytest.raises(ValueError):
        shuffle_elements(with_empty, Element.of((b,)))
    with pytest.raises(ValueError):
        shuffle_elements(Element.of((b,)), with_empty)


def test_signed_interleavings_flags_and_order():
    letters = tuple(gens(1, 2, 1))
    x, y = letters[:2], letters[2:]
    got = list(signed_interleavings(x, y))
    assert len(got) == 3
    # the letters are distinct, so each one's origin is the word holding it
    for out, _ in got:
        assert tuple(g for g in out if g in x) == x
        assert tuple(g for g in out if g in y) == y
    # lexicographic order of the positions of x, as enumerate_shuffles lists them
    assert [out for out, _ in got] == [
        tuple(letters[i] for i in inverse(sigma)) for sigma in enumerate_shuffles(2, 1)
    ]
    assert [sign for _, sign in got] == [1, 1, -1]
    # an empty word has the other word as its only interleaving
    assert list(signed_interleavings(x, ())) == [(x, 1)]
    assert list(signed_interleavings((), y)) == [(y, 1)]
    assert list(signed_interleavings((), ())) == [((), 1)]


# -- the shuffle quotient against a row-reduction oracle ------------------------
#
# The oracle is the construction the Lie coordinates replaced: every
# arrangement of a block, cut at every point and shuffled, row-reduced over
# Q by ReducedBasis.  It never reads the quotient's tables.


def arrangements(items):
    """Distinct orderings of a multiset of generators, in lex order."""
    seen = set()
    for perm in itertools.permutations(sorted(items)):
        if perm not in seen:
            seen.add(perm)
            yield perm


def oracle_span(block):
    """Every shuffle of a cut arrangement of ``block``, and their row-reduced span."""
    n = len(block)
    vectors = [shuffle(arr[:cut], arr[cut:]) for arr in arrangements(block) for cut in range(1, n)]
    return vectors, ReducedBasis(vectors, key=word_key)


def quotient_dimension(q, block):
    """Rank of the normal forms of the words of ``block``, and how many labels they use."""
    images = [q.normal_form_word(w) for w in arrangements(block)]
    labels = {b for nf in images for b in nf.terms}
    return ReducedBasis(images, key=word_key).dimension(), len(labels)


def span_dimensions(q, block):
    """Dimension of the shuffle span of ``block``: by the oracle, and as the
    number of words minus the rank of the quotient's normal forms."""
    words = len(list(arrangements(block)))
    return oracle_span(block)[1].dimension(), words - quotient_dimension(q, block)[0]


def assert_agrees_with_oracle(q, block):
    """Both normal forms have the same kernel on ``block``: every shuffle dies,
    each word is zero under both or neither, and the rank of the Lie
    coordinates is the oracle's quotient dimension and the label count."""
    vectors, oracle = oracle_span(block)
    words = list(arrangements(block))
    for v in vectors:
        assert q.is_zero(v), (block, v)
    for w in words:
        assert q.is_zero(Element.of(w)) == oracle.contains(Element.of(w)), w
    rank, labels = quotient_dimension(q, block)
    assert rank == len(words) - oracle.dimension() == labels, block


def letter_patterns(max_letters):
    """Every block of at most ``max_letters`` letters up to renaming: the
    multisets of (multiplicity, parity) pairs, one pair per distinct letter."""
    kinds = [(m, p) for m in range(1, max_letters + 1) for p in (0, 1)]
    for k in range(1, max_letters + 1):
        for pattern in itertools.combinations_with_replacement(kinds, k):
            if sum(m for m, _ in pattern) <= max_letters:
                yield pattern


def ordered_block(pattern):
    """The block of a sequence of (multiplicity, parity) pairs, its letters
    ordered as the sequence is."""
    return tuple(g for i, (m, p) in enumerate(pattern) for g in [Generator(f"x{i}", p)] * m)


def workload_blocks():
    """The letter blocks of the benchmark's quotient workload."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [tuple(sorted(Generator(*x) for x in block)) for block in workloads.QUOTIENT_BLOCKS]


def test_lie_coordinates_agree_with_row_reduction_on_workload_blocks():
    q = ShuffleQuotient()
    blocks = workload_blocks()
    assert max(len(b) for b in blocks) == 6
    for block in blocks:
        assert_agrees_with_oracle(q, block)


def test_lie_coordinates_agree_with_row_reduction_up_to_five_letters():
    # every multiplicity and parity of each letter, in every letter order:
    # the Lyndon labels depend on the order, the quotient does not
    q = ShuffleQuotient()
    seen = set()
    for pattern in letter_patterns(5):
        if len(pattern) == 1 and pattern[0][0] == 1:
            continue  # a single letter is its own class
        for order in itertools.permutations(pattern):
            if order not in seen:
                seen.add(order)
                assert_agrees_with_oracle(q, ordered_block(order))


def test_span_dimensions_two_letters():
    q = ShuffleQuotient()
    a, b = gens(2, 2)
    assert span_dimensions(q, q.block_of((a, b))) == (1, 1)
    a, b = gens(1, 1)
    assert span_dimensions(q, q.block_of((a, b))) == (1, 1)


def test_square_words_parity():
    q = ShuffleQuotient()
    odd = Generator("o", 1)
    even = Generator("e", 2)
    # odd letter: bat(o,o) = 0, so o|o survives in the quotient
    assert not q.is_zero(Element.of((odd, odd)))
    # even letter: bat(e,e) = 2 e|e, so e|e dies
    assert q.is_zero(Element.of((even, even)))


def witt_multidegree(multiplicities, parities=None):
    """Free Lie superalgebra dimension in one multidegree (Petrogradsky 2000).

    (1/n) sum over d | gcd(m_i) of mu(d) (-1)^(o + o/d) (n/d)! / prod (m_i/d)!,
    with o the total multiplicity of the odd letters (``parities[i]`` is the
    parity of letter i, all even by default: the necklace count).
    """

    def mobius(n):
        out, m = 1, n
        p = 2
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        if m > 1:
            out = -out
        return out

    n = sum(multiplicities)
    odd = sum(m for m, p in zip(multiplicities, parities or [0] * len(multiplicities)) if p)
    g = 0
    for m in multiplicities:
        g = gcd(g, m)
    total = 0
    for d in range(1, g + 1):
        if g % d:
            continue
        num = factorial(n // d)
        for m in multiplicities:
            num //= factorial(m // d)
        total += mobius(d) * (-1) ** (odd + odd // d) * num
    return total // n


def gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def count_words(multiplicities):
    n = sum(multiplicities)
    out = factorial(n)
    for m in multiplicities:
        out //= factorial(m)
    return out


def test_quotient_dimension_matches_necklace_count_even_letters():
    q = ShuffleQuotient()
    cases = [(1, 1), (1, 1, 1), (2, 1), (3,), (2, 2), (1, 1, 1, 1), (2, 1, 1)]
    for mult in cases:
        letters = []
        for i, m in enumerate(mult):
            letters.extend([Generator(f"e{i}", 2)] * m)
        block = q.block_of(tuple(letters))
        for span in span_dimensions(q, block):
            assert count_words(mult) - span == witt_multidegree(mult), mult


def test_quotient_dimension_matches_super_witt_formula():
    q = ShuffleQuotient()
    patterns = list(letter_patterns(6))
    assert len(patterns) == 138
    for pattern in patterns:
        mult = [m for m, _ in pattern]
        rank, labels = quotient_dimension(q, ordered_block(pattern))
        assert rank == labels == witt_multidegree(mult, [p for _, p in pattern]), pattern


def test_quotient_dimension_multilinear_even():
    # distinct even letters: quotient dimension (n-1)!
    q = ShuffleQuotient()
    for n in (2, 3, 4):
        letters = tuple(Generator(f"m{i}", 0) for i in range(n))
        block = q.block_of(letters)
        for dim in span_dimensions(q, block):
            assert factorial(n) - dim == factorial(n - 1)
    # the n = 3 block is 6-dimensional with a 4-dimensional shuffle span
    letters = tuple(Generator(f"m{i}", 0) for i in range(3))
    assert span_dimensions(q, q.block_of(letters)) == (4, 4)


def test_shuffle_images_vanish_in_quotient():
    a, b, c = gens(1, 2, 1)
    for x, y in (((a,), (b, c)), ((a, b), (c,)), ((b,), (a,))):
        assert QUOTIENT.is_zero(shuffle(x, y))
    assert not QUOTIENT.is_zero(Element.of((a, b)))
    assert QUOTIENT.is_zero(Element.zero())


def test_single_words_are_nonzero():
    a, b = gens(1, 2)
    for w in ((a,), (a, b), (b, a, b)):
        assert not QUOTIENT.is_zero(Element.of(w, Fraction(3, 2)))


def test_cobracket_examples():
    (a,) = gens(2)
    assert cobracket((a,)).is_zero()
    a, b = gens(2, 2)
    got = cobracket((a, b))
    assert got == Element.of(((a,), (b,))) - Element.of(((b,), (a,)))
    # three odd letters: both cut points, block degrees make every flip sign +1
    a, b, c = gens(1, 1, 1)
    got = cobracket((a, b, c))
    want = (
        Element.of(((a,), (b, c)))
        - Element.of(((b, c), (a,)))
        + Element.of(((a, b), (c,)))
        - Element.of(((c,), (a, b)))
    )
    assert got == want


def test_cobracket_coantisymmetry_and_cojacobi():
    for assignment in itertools.product((0, 1), repeat=3):
        letters = gens(*[d if d else 2 for d in assignment])
        for n in range(1, 5):
            for pick in itertools.product(letters, repeat=n):
                d = cobracket(tuple(pick))
                flipped = swap_adjacent_slots(d, 0, word_degree)
                assert QUOTIENT.tensor_is_zero(flipped + d, 2)
                dd = splice_in_slot(d, 0, cobracket, 0, word_degree)
                t1 = swap_adjacent_slots(swap_adjacent_slots(dd, 1, word_degree), 0, word_degree)
                t2 = swap_adjacent_slots(swap_adjacent_slots(dd, 0, word_degree), 1, word_degree)
                assert QUOTIENT.tensor_is_zero(dd + t1 + t2, 3)


def test_pair_reduction_detects_shuffle_factors():
    a, b, c = gens(1, 1, 2)
    left_shuffled = shuffle_elements(shuffle((a,), (b,)), Element.of((c,)))
    pair = Element.zero()
    for w, cf in left_shuffled.items():
        pair = pair + Element.of((w, (c,)), cf)
    assert QUOTIENT.tensor_is_zero(pair, 2)
    honest = Element.of(((a, b), (c,))) - Element.of(((a, b), (c,)))
    assert QUOTIENT.tensor_is_zero(honest, 2)
    assert not QUOTIENT.tensor_is_zero(Element.of(((a, b), (c,))), 2)


def test_apply_in_slot_signs():
    a, b = gens(1, 2)
    double = lambda w: Element.of(w, 2)
    v = Element.of(((a,), (b,)))
    assert apply_in_slot(v, 1, double, 0, word_degree) == v.scale(2)
    # an odd operator crossing the odd first slot flips the sign
    assert apply_in_slot(v, 1, double, 1, word_degree) == v.scale(-2)


def _slot_map_by_hand(v, slot, width, f, f_degree, splice):
    """The slot calculus written out: each tuple feeds entries slot..slot+width-1
    to f, pays (-1)^(f_degree * degree of the entries before slot), and gets
    each image term back as one entry or, with splice, as several."""
    out = Element.zero()
    for t, c in v.items():
        before = 0
        for k in range(slot):
            before += word_degree(t[k])
        sgn = -1 if (f_degree * before) % 2 else 1
        for r, c2 in f(*[t[k] for k in range(slot, slot + width)]).items():
            entries = list(r) if splice else [r]
            image = list(t[:slot]) + entries + list(t[slot + width :])
            out = out + Element.of(tuple(image), sgn * c * c2)
    return out


_E, _O, _P = Generator("e", 0), Generator("o", 1), Generator("p", 1)
# triples of words of both parities in every slot: (o) odd, (e|o) odd,
# (p) odd, (e) even, (o|p) even, (o|e) odd, (p|o) even
_TRIPLES = Element.from_terms(
    [
        (((_O,), (_E, _O), (_P,)), 1),
        (((_E,), (_O,), (_O, _P)), -3),
        (((_O, _E), (_P, _O), (_E,)), 2),
        (((_P, _O), (_O, _E), (_O,)), 5),
    ]
)


@pytest.mark.parametrize("f_degree", [0, 1])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_slot_entry_points_match_the_written_out_rule(slot, f_degree):
    unary = lambda w: Element.from_terms([(w[::-1], 2), (w + (_O,), -1)])
    split = lambda w: Element.from_terms([((w, w[:1]), 1), ((w[-1:],), 3)])
    binary = lambda u, w: Element.from_terms([(u + w, 1), (w + u, -2)])
    v = _TRIPLES
    assert apply_in_slot(v, slot, unary, f_degree, word_degree) == _slot_map_by_hand(
        v, slot, 1, unary, f_degree, False
    )
    assert splice_in_slot(v, slot, split, f_degree, word_degree) == _slot_map_by_hand(
        v, slot, 1, split, f_degree, True
    )
    if slot < 2:
        assert contract_adjacent_slots(v, slot, binary, f_degree, word_degree) == _slot_map_by_hand(
            v, slot, 2, binary, f_degree, False
        )


def test_word_key_is_the_letter_id_order():
    letters = gens(0, 1, 2, 1)
    words = [w for n in range(1, 4) for w in itertools.product(letters, repeat=n)]
    by_ids = sorted(words, key=lambda w: (len(w), tuple(g.gid for g in w)))
    assert sorted(words, key=word_key) == by_ids


def test_word_degree_memo_tells_equal_ids_of_other_degrees_apart():
    # a letter id may carry another degree in another algebra or mutant;
    # the memo is keyed by the Generators themselves
    even, odd = Generator("g", 0), Generator("g", 1)
    assert word_degree((even, even)) == 0
    assert word_degree((odd, odd)) == 2
    assert word_degree((even, odd)) == 1
