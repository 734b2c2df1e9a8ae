import copy
import importlib.util
import itertools
import pickle
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abhomotopy.freemodule import Element, ReducedBasis, add_term, bilinear
from abhomotopy.signs import enumerate_shuffles, inverse, koszul_sign_by_swaps
from abhomotopy.suites import _CYCLIC_SUM
from abhomotopy.tensor_coalgebra import (
    LETTER_DEGREES,
    QUOTIENT,
    Generator,
    ShuffleQuotient,
    _interleavings,
    _lyndon_words,
    apply_in_slot,
    cobracket,
    contract_adjacent_slots,
    permute_slots,
    shuffle,
    shuffle_elements,
    splice_in_slot,
    swap_adjacent_slots,
    word_degree,
    word_key,
)

ROOT = Path(__file__).resolve().parent.parent


def gens(*degs):
    return [Generator(f"g{i}", d) for i, d in enumerate(degs, start=1)]


def signed_interleavings(x, y):
    """Every interleaving of ``x`` and ``y`` with its Koszul sign, as a list
    of (word, sign), read off the shuffle's own interleavings: a frozen
    copy of the package listing the shuffle kernel replaced.  Either word
    may be empty."""
    if not x or not y:
        return [(x + y, 1)]
    return list(zip(*_interleavings(x, y)))


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



def walked_interleavings(x, y):
    """(word, sign) for each shuffle of ``enumerate_shuffles``, signed by swaps."""
    letters = x + y
    degs = [g.deg for g in letters]
    return [
        (tuple(letters[i] for i in inverse(sigma)), koszul_sign_by_swaps(degs, sigma))
        for sigma in enumerate_shuffles(len(x), len(y))
    ]


def walked_product(ex, ey):
    """The shuffle product as a list of (word, coefficient, type): term pairs
    in ``ex`` x ``ey`` order, words in order of first appearance, zero sums
    dropped and integral sums stored as ``int``."""
    acc = {}
    for x, cx in ex.items():
        for y, cy in ey.items():
            for w, sign in walked_interleavings(x, y):
                acc[w] = acc.get(w, 0) + Fraction(cx * cy * sign)
    out = [(w, c.numerator if c.denominator == 1 else c) for w, c in acc.items() if c]
    return [(w, c, type(c)) for w, c in out]


def typed(element):
    return [(w, c, type(c)) for w, c in element.items()]


def test_product_term_order_is_pinned():
    """Report bytes follow the order of a product's terms, so the terms,
    their order and their coefficient types are compared as lists: the
    reference walks ``enumerate_shuffles``.  Distinct letters give distinct
    interleavings; repeated ones make interleavings coincide, add up or
    cancel."""
    a, b, c, d = Generator("a", 1), Generator("b", 2), Generator("c", 1), Generator("d", 2)
    o, e = Generator("o", 1), Generator("e", 0)
    pairs = [
        ((a, b), (c,)),  # distinct letters
        ((a,), (b, c, e)),
        ((a, b), (c, e)),
        ((o,), (o,)),  # o|o - o|o: cancels to zero
        ((e,), (e,)),  # e|e + e|e: adds up to 2
        ((o, e), (o,)),  # repeated letters, partly cancelling
        ((e, o, e), (e, o)),
    ]
    for x, y in pairs:
        assert signed_interleavings(x, y) == walked_interleavings(x, y)
        assert typed(shuffle(x, y)) == walked_product(Element.of(x), Element.of(y))
    assert shuffle((o,), (o,)).is_zero()
    # Fraction(3, 2) * Fraction(2, 3) is stored as the int 1, and
    # Fraction(3, 2) * Fraction(4, 3) as the int 2
    ex = Element({(a,): Fraction(3, 2), (b, e): 1})
    ey = Element({(c,): Fraction(2, 3), (o,): -1, (d, c): Fraction(4, 3)})
    got = typed(shuffle_elements(ex, ey))
    assert got == walked_product(ex, ey)
    assert got[0] == ((a, c), 1, int) and ((a, d, c), 2, int) in got
    assert len({w for w, _, _ in got}) == sum(len(signed_interleavings(x, y)) for x in ex.terms for y in ey.terms)
    # colliding term pairs: o|o cancels, e|e sums 1/2 + 1/2 to the int 1,
    # and a word first reached by a later term pair keeps its first place
    for ex, ey in (
        (Element.of((o,)), Element({(o,): 1, (e,): 1})),
        (Element.of((e,), Fraction(1, 2)), Element({(e,): 1, (o,): Fraction(1, 3)})),
        (Element({(a, e): 1, (e, a): Fraction(5, 2)}), Element({(e,): Fraction(2, 5), (a,): 1})),
        (shuffle((a,), (o,)), Element.of((o,))),
    ):
        assert typed(shuffle_elements(ex, ey)) == walked_product(ex, ey)
    assert typed(shuffle_elements(Element.of((e,), Fraction(1, 2)), Element.of((e,)))) == [((e, e), 1, int)]
    assert shuffle_elements(Element.of((o,)), Element.of((o,))).is_zero()

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


def _lyndon_by_permutations(block):
    """The Lyndon words of a sorted block by their definition, over every
    ordering of the letters after the first."""
    words = {block[:1] + p for p in itertools.permutations(block[1:])}
    return sorted(w for w in words if all(w < w[i:] for i in range(1, len(w))))


@pytest.mark.parametrize(
    "mult, count", [((3, 3), 3), ((4, 4), 8), ((4, 5), 14), ((5, 5), 25), ((2, 2, 1, 1), 30)]
)
def test_lyndon_words_count_on_repeated_letters(mult, count):
    """One word per distinct Lyndon word: as many as Witt's formula says."""
    letters = (Generator("e", 0), Generator("o", 1), Generator("p", 2), Generator("q", 3))
    block = tuple(g for g, m in zip(letters, mult) for _ in range(m))
    words = _lyndon_words(block)
    assert len(words) == len(set(words)) == count == witt_multidegree(mult)
    assert words == sorted(words)


def test_lyndon_words_match_the_definition_up_to_six_letters():
    letters = (Generator("e1", 0), Generator("e2", 2), Generator("o1", 1), Generator("o2", 3))
    blocks = [b for k in range(1, 7) for b in itertools.combinations_with_replacement(letters, k)]
    assert len(blocks) == 209
    for block in blocks:
        assert _lyndon_words(block) == _lyndon_by_permutations(block), block


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


def _deconcatenation(w):
    """The word cobracket cut by cut, each flip signed from letter degrees."""
    acc: dict = {}
    for j in range(1, len(w)):
        u, v = w[:j], w[j:]
        du, dv = sum(g.deg for g in u), sum(g.deg for g in v)
        add_term(acc, (u, v), 1)
        add_term(acc, (v, u), 1 if du * dv % 2 else -1)
    return Element(acc)


def test_cobracket_is_one_element_per_word():
    """The cobracket is memoized by the word: a repeated call, or a call on
    an equal word built apart, returns the same Element, and it is the
    fresh deconcatenation term for term.  Letters with the same ids and
    other degrees are other words and keep cobrackets of their own."""
    seen = {}
    for degs in ((1, 2, 1), (2, 2, 3), (0, 1, 1)):
        letters = gens(*degs)
        for n in range(1, 5):
            for pick in itertools.product(letters, repeat=n):
                w = tuple(pick)
                got = cobracket(w)
                assert cobracket(w) is got and cobracket(tuple(list(pick))) is got
                assert list(got.terms.items()) == list(_deconcatenation(w).terms.items())
                seen[w] = got
    assert len({id(v) for v in seen.values()}) == len(seen)


def test_cobracket_coantisymmetry_and_cojacobi():
    for assignment in itertools.product((0, 1), repeat=3):
        letters = gens(*[d if d else 2 for d in assignment])
        for n in range(1, 5):
            for pick in itertools.product(letters, repeat=n):
                d = cobracket(tuple(pick))
                flipped = swap_adjacent_slots(d, 0, word_degree)
                assert QUOTIENT.tensor_is_zero(flipped + d)
                dd = splice_in_slot(d, 0, cobracket, 0, word_degree)
                t1 = swap_adjacent_slots(swap_adjacent_slots(dd, 1, word_degree), 0, word_degree)
                t2 = swap_adjacent_slots(swap_adjacent_slots(dd, 0, word_degree), 1, word_degree)
                assert QUOTIENT.tensor_is_zero(dd + t1 + t2)


def test_pair_reduction_detects_shuffle_factors():
    a, b, c = gens(1, 1, 2)
    left_shuffled = shuffle_elements(shuffle((a,), (b,)), Element.of((c,)))
    pair = Element.zero()
    for w, cf in left_shuffled.items():
        pair = pair + Element.of((w, (c,)), cf)
    assert QUOTIENT.tensor_is_zero(pair)
    honest = Element.of(((a, b), (c,))) - Element.of(((a, b), (c,)))
    assert QUOTIENT.tensor_is_zero(honest)
    assert not QUOTIENT.tensor_is_zero(Element.of(((a, b), (c,))))


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


# -- one pass for a sum of graded slot permutations -------------------------------

_FLIP_PLUS = lambda k: (((1, 0), 1), ((0, 1), k))


def _swap_by_hand(v, slot):
    """The graded flip written out: entries slot and slot+1 of each tuple
    change places at the sign (-1)^(product of their degrees)."""
    out = Element.zero()
    for t, c in v.items():
        sgn = -1 if (word_degree(t[slot]) * word_degree(t[slot + 1])) % 2 else 1
        out = out + Element.of(t[:slot] + (t[slot + 1], t[slot]) + t[slot + 2 :], sgn * c)
    return out


def _stored(v):
    """Every coefficient nonzero, and an ``int`` exactly when integral."""
    return all(c and (type(c) is int) == (Fraction(c).denominator == 1) for c in v.terms.values())


# few short words of both parities: (e) and (o|p) even, (o), (p) and (e|o)
# odd, so entries repeat across terms and the images of two terms collide
_SLOT_WORDS = [(_E,), (_O,), (_P,), (_E, _O), (_O, _P)]
_slot_coefs = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=3)
)


def _tensors(arity):
    entry = st.sampled_from(_SLOT_WORDS)
    term = st.tuples(st.tuples(*[entry] * arity), _slot_coefs)
    return st.lists(term, max_size=8).map(Element.from_terms)


@settings(max_examples=300, deadline=None)
@given(_tensors(2), st.sampled_from([1, -1, 2, Fraction(1, 2)]))
def test_permute_slots_is_the_flip_plus_a_multiple(v, k):
    got = permute_slots(v, _FLIP_PLUS(k), word_degree)
    assert got == _swap_by_hand(v, 0) + v.scale(k)
    assert got == swap_adjacent_slots(v, 0, word_degree) + v.scale(k)
    assert _stored(got)


@settings(max_examples=300, deadline=None)
@given(_tensors(3))
def test_permute_slots_is_the_cojacobi_cyclic_sum(v):
    t12_t23 = _swap_by_hand(_swap_by_hand(v, 1), 0)
    t23_t12 = _swap_by_hand(_swap_by_hand(v, 0), 1)
    got = permute_slots(v, _CYCLIC_SUM, word_degree)
    assert got == v + t12_t23 + t23_t12
    swap = lambda u, slot: swap_adjacent_slots(u, slot, word_degree)
    assert got == v + swap(swap(v, 1), 0) + swap(swap(v, 0), 1)
    assert _stored(got)
    # each cyclic term alone, as the cyclic sum does not tell them apart
    assert permute_slots(v, (_CYCLIC_SUM[1],), word_degree) == t12_t23
    assert permute_slots(v, (_CYCLIC_SUM[2],), word_degree) == t23_t12


def test_permute_slots_cancels_and_stores_integral_sums_as_int():
    # the flip fixes (o) (x) (o) at the sign -1, so flip plus identity cancels it
    assert permute_slots(Element.of(((_O,), (_O,)), 3), _FLIP_PLUS(1), word_degree).is_zero()
    half = Fraction(1, 2)
    v = Element.from_terms([(((_E,), (_O,)), half), (((_O,), (_E,)), half)])
    got = permute_slots(v, _FLIP_PLUS(1), word_degree)
    assert got.terms == {((_O,), (_E,)): 1, ((_E,), (_O,)): 1}
    assert all(type(c) is int for c in got.terms.values())
    # a 3-cycle of odd entries is an even permutation: the cyclic sum of
    # (o) (x) (o) (x) (o) at 1/3 is that tensor at the int 1
    got = permute_slots(Element.of(((_O,), (_O,), (_O,)), Fraction(1, 3)), _CYCLIC_SUM, word_degree)
    assert got.terms == {((_O,), (_O,), (_O,)): 1} and type(got.terms[(_O,), (_O,), (_O,)]) is int
    # the cyclic sum kills x - t12 t23 x
    x = Element.of(((_E, _O), (_O,), (_O, _P)), Fraction(2, 3))
    assert permute_slots(x - _swap_by_hand(_swap_by_hand(x, 1), 0), _CYCLIC_SUM, word_degree).is_zero()
    with pytest.raises(ValueError):
        permute_slots(Element.of(((_O,), (_E,))), _CYCLIC_SUM, word_degree)


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


# -- the letter type ------------------------------------------------------------

# short NUL-free ids cut from one or two stems, so ids often extend one another (x, x1)
_ID_TEXT = st.text(st.characters(blacklist_characters="\x00"), max_size=4)
_DEGREES = st.integers(LETTER_DEGREES.start, LETTER_DEGREES.stop - 1)


@st.composite
def _letter_pairs(draw):
    stems = draw(st.lists(_ID_TEXT, min_size=1, max_size=2))
    pairs = []
    for _ in range(draw(st.integers(2, 6))):
        stem = draw(st.sampled_from(stems))
        pairs.append((stem[: draw(st.integers(0, len(stem)))], draw(_DEGREES)))
    return pairs


@settings(max_examples=300, deadline=None)
@given(_letter_pairs())
def test_letters_order_as_their_pairs_and_are_interned(pairs):
    letters = [Generator(gid, deg) for gid, deg in pairs]
    for (p, g), (q, h) in itertools.product(zip(pairs, letters), repeat=2):
        assert (g < h, g == h, g <= h) == (p < q, p == q, p <= q), (p, q)
        assert (g is h) == (p == q)
        assert (hash(g) == hash(h)) or g != h
    assert [(g.gid, g.deg) for g in sorted(letters)] == sorted(pairs)
    assert all(Generator(*p) is g and (g.gid, g.deg) == p for p, g in zip(pairs, letters))


@settings(max_examples=100, deadline=None)
@given(_ID_TEXT, _DEGREES)
def test_a_letter_prints_as_its_id_and_copies_as_itself(gid, deg):
    g = Generator(gid, deg)
    assert repr(g) == str(g) == format(g) == f"{g}" == gid
    assert format(g, ">6") == format(gid, ">6") and "%s" % g == gid
    assert type(str(g)) is str
    assert copy.copy(g) is g and copy.deepcopy(g) is g and copy.deepcopy([(g,)])[0][0] is g
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(g, protocol)) is g


def test_a_letter_the_encoding_cannot_hold_is_a_value_error():
    lo, hi = LETTER_DEGREES.start, LETTER_DEGREES.stop - 1
    assert (Generator("x", lo).deg, Generator("x", hi).deg) == (lo, hi)
    for gid, deg, named in [
        ("x\x00y", 0, "generator 'x\\x00y': an id may not contain NUL"),
        (5, 0, "generator 5: an id must be a string"),
        ("x", hi + 1, f"generator 'x': shifted degree {hi + 1} is not an integer in {lo}..{hi}"),
        ("x", lo - 1, f"generator 'x': shifted degree {lo - 1} is not an integer in {lo}..{hi}"),
        ("y", 0.5, "generator 'y': shifted degree 0.5 is not an integer"),
        # equal to the degree of an existing letter, yet not an integer
        ("x", float(hi), f"generator 'x': shifted degree {float(hi)!r} is not an integer"),
        ("x", True, "generator 'x': shifted degree True is not an integer"),
    ]:
        with pytest.raises(ValueError) as err:
            Generator(gid, deg)
        assert named in str(err.value)


@pytest.mark.parametrize("gid, deg, named", [
    (["a"], 0, "generator ['a']: an id must be a string"),
    ("a", [1], "generator 'a': shifted degree [1] is not an integer"),
], ids=["unhashable-id", "unhashable-degree"])
def test_an_unhashable_id_or_degree_is_a_value_error(gid, deg, named):
    # the intern table's lookup of an unhashable pair used to raise a TypeError first
    with pytest.raises(ValueError) as err:
        Generator(gid, deg)
    assert named in str(err.value)


def test_a_letter_is_immutable():
    g = Generator("x", 1)
    for attempt in (lambda: setattr(g, "deg", 2), lambda: delattr(g, "gid"), lambda: setattr(g, "other", 0)):
        with pytest.raises(AttributeError):
            attempt()
    assert (g.gid, g.deg) == ("x", 1)
