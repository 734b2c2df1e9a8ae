import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from abhomotopy.freemodule import Element, ReducedBasis, add_term, bilinear, format_element
from abhomotopy.tensor_coalgebra import Generator, shuffle, word_key

W1, W2, W3 = "w1", "w2", "w3"


def test_addition_examples():
    w = Element.of(W1, 2) + Element.of(W1, -2)
    assert w.is_zero()
    two = Element.of(W1) + Element.of(W2)
    assert two.coefficient(W1) == 1 and two.coefficient(W2) == 1
    mixed = Element.of(W1, Fraction(1, 2)) + Element.of(W1, Fraction(1, 3))
    assert mixed == Element.of(W1, Fraction(5, 6))


def test_scaling_examples():
    assert Element.of(W1).scale(0).is_zero()
    assert (Element.of(W1) + Element.of(W2)).scale(-1) == Element.of(W1, -1) + Element.of(W2, -1)
    assert Element.of(W1, 3).scale(Fraction(2, 3)) == Element.of(W1, 2)


def test_lowest_terms_positive_denominator():
    c = (Element.of(W1, Fraction(2, 4)) + Element.of(W1, Fraction(1, -4))).coefficient(W1)
    assert (c.numerator, c.denominator) == (1, 4)


coeffs = st.integers(-4, 4).map(Fraction)
elems = st.dictionaries(st.sampled_from([W1, W2, W3]), coeffs, max_size=3).map(
    lambda d: Element.from_terms(d.items())
)


@settings(max_examples=200, deadline=None)
@given(elems, elems, elems, coeffs, coeffs)
def test_module_axioms(x, y, z, c, d):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x + y).scale(c) == x.scale(c) + y.scale(c)
    assert x.scale(c + d) == x.scale(c) + x.scale(d)
    assert x.scale(c).scale(d) == x.scale(c * d)
    assert (x - x).is_zero()


int_terms = st.dictionaries(st.sampled_from([W1, W2, W3]), st.integers(-6, 6), max_size=3)


@settings(max_examples=200, deadline=None)
@given(int_terms, st.integers(-3, 3).filter(bool))
def test_int_and_fraction_coefficients_agree(terms, k):
    as_int = Element.from_terms(terms.items())
    as_fraction = Element.from_terms((b, Fraction(c)) for b, c in terms.items())
    # stored without normalization, as an accumulator may leave them
    raw_fraction = Element({b: Fraction(c) for b, c in terms.items() if c})
    for other in (as_fraction, raw_fraction):
        assert as_int == other
        assert hash(as_int) == hash(other)
        assert format_element(as_int) == format_element(other)
        assert as_int.scale(k) == other.scale(Fraction(k))
    assert all(type(c) is int for _, c in as_fraction.items())
    assert all(type(c) is int for _, c in as_int.scale(Fraction(k)).items())


def test_integral_coefficients_are_stored_as_int():
    assert type(Element.of(W1, Fraction(4, 2)).coefficient(W1)) is int
    assert type(Element.of(W1, Fraction(1, 2)).coefficient(W1)) is Fraction
    assert type((Element.of(W1, 2) + Element.of(W2, Fraction(6, 3))).coefficient(W2)) is int
    assert Element.of(W1).coefficient(W2) == 0


def test_integral_results_of_fraction_arithmetic_are_stored_as_int():
    half, three_halves = Fraction(1, 2), Fraction(3, 2)
    acc = {W1: half}
    add_term(acc, W1, three_halves)
    assert acc == {W1: 2} and type(acc[W1]) is int
    add_term(acc, W1, -2)
    assert acc == {}
    results = [
        Element({W1: half}).scale(2),
        Element({W1: Fraction(3, 4)}).scale(Fraction(4, 3)),
        Element.of(W1, half) + Element.of(W1, three_halves),
        bilinear(lambda b1, b2: Element.of(b1 + b2, Fraction(2, 3)),
                 Element.of(W1, Fraction(3, 2)), Element.of(W2, 2)),
        Element.of(W1, half).map_basis(lambda b: Element.of(b, 4)),
        (Element.of(W1, half) + Element.of(W2, half)).map_basis(lambda b: Element.of(W3, 3)),
    ]
    for v in results:
        assert len(v) == 1
        assert all(type(c) is int for _, c in v.items()), v.terms
    # a sign keeps a non-integral coefficient a Fraction
    assert Element.of(W1, half).scale(-1).coefficient(W1) == Fraction(-1, 2)


def test_map_basis_is_linear():
    f = lambda b: Element.of(b + "!", 2)
    v = Element.of(W1, 3) + Element.of(W2, Fraction(1, 2))
    img = v.map_basis(f)
    assert img == Element.of("w1!", 6) + Element.of("w2!", 1)


def test_format_element_is_deterministic():
    v = Element.of(W2, -1) + Element.of(W1, Fraction(1, 3))
    assert format_element(v) == "1/3*w1 - w2"
    assert format_element(Element.zero()) == "0"


def str_key(b):
    return b


def test_row_reduce_examples():
    basis = ReducedBasis([Element.of(W1) + Element.of(W2), Element.of(W2)], key=str_key)
    assert basis.dimension() == 2
    assert basis.reduce(Element.of(W1)).is_zero()
    only = ReducedBasis([Element.of(W1), Element.of(W1, 2)], key=str_key)
    assert only.dimension() == 1
    assert len(ReducedBasis([Element.of(W1), Element.of(W1, 2)], key=str_key).basis()) == 1


def test_shuffle_image_spans_odd_letters():
    # for two odd letters the only shuffle image is a|b - b|a
    a, b = Generator("a", 1), Generator("b", 1)
    image = shuffle((a,), (b,))
    basis = ReducedBasis([image], key=word_key)
    assert basis.dimension() == 1
    ab, ba = Element.of(((a, b))), Element.of(((b, a)))
    assert basis.reduce(ab - ba).is_zero()
    assert not basis.reduce(ab + ba).is_zero()


def dense_membership(vectors, probe, key):
    """Independent dense Gaussian-elimination membership oracle."""
    support = sorted({b for v in vectors for b in v.terms} | set(probe.terms), key=key)
    index = {b: i for i, b in enumerate(support)}
    rows = []
    for v in vectors:
        row = [Fraction(0)] * len(support)
        for b, c in v.items():
            row[index[b]] = c
        rows.append(row)
    target = [Fraction(0)] * len(support)
    for b, c in probe.items():
        target[index[b]] = c
    # eliminate column by column
    pivot_row = 0
    for col in range(len(support)):
        hit = next((r for r in range(pivot_row, len(rows)) if rows[r][col]), None)
        if hit is None:
            continue
        rows[pivot_row], rows[hit] = rows[hit], rows[pivot_row]
        piv = rows[pivot_row][col]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                f = rows[r][col] / piv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pivot_row])]
        if target[col]:
            f = target[col] / piv
            target = [x - f * y for x, y in zip(target, rows[pivot_row])]
        pivot_row += 1
    return all(x == 0 for x in target)


def test_membership_against_dense_solver():
    rng = random.Random(5)
    names = [f"b{i}" for i in range(12)]
    for _ in range(40):
        vectors = [
            Element.from_terms(
                (rng.choice(names), Fraction(rng.choice([-2, -1, 1, 2])))
                for _ in range(rng.randint(1, 4))
            )
            for _ in range(rng.randint(1, 6))
        ]
        probe = Element.from_terms(
            (rng.choice(names), Fraction(rng.choice([-2, -1, 1, 2])))
            for _ in range(rng.randint(1, 4))
        )
        sparse = ReducedBasis(vectors, key=str_key).contains(probe)
        assert sparse == dense_membership(vectors, probe, str_key)
        inside = Element.zero()
        for v in vectors:
            inside = inside + v.scale(rng.choice([-2, 1, 3]))
        assert ReducedBasis(vectors, key=str_key).contains(inside)


def test_reduced_basis_rows_handed_out_are_not_mutated():
    """Rows are cleared in place on insertion; Elements already returned by
    basis() must not change with them."""
    rb = ReducedBasis([Element.of(W1) + Element.of(W2)], key=str_key)
    (first,) = rb.basis()
    snapshot = dict(first.terms)
    rb.insert(Element.of(W2, 3) + Element.of(W3))  # new pivot w2 clears w2 from row w1
    assert first.terms == snapshot
    assert rb.basis() == [
        Element.of(W1) - Element.of(W3, Fraction(1, 3)),
        Element.of(W2) + Element.of(W3, Fraction(1, 3)),
    ]
    rb.basis()[0].terms.clear()  # mutating a handed-out copy leaves the rows intact
    assert rb.dimension() == 2 and rb.contains(Element.of(W1) - Element.of(W3, Fraction(1, 3)))


def test_reduced_basis_leaves_an_inserted_element_unchanged():
    """An Element whose pivot coefficient is 1 becomes a row unscaled; the
    row is a copy, so clearing a later pivot from it leaves the Element be."""
    v = Element.of(W1) + Element.of(W2)
    snapshot = dict(v.terms)
    rb = ReducedBasis([v], key=str_key)
    rb.insert(Element.of(W2, 3) + Element.of(W3))
    assert v.terms == snapshot
    assert rb.contains(v)


def test_scaling_by_a_unit_sign():
    """Scaling by 1 returns the Element itself, which is safe because no
    Element is mutated after construction.  Scaling by -1 negates and
    keeps stored forms: an int stays an int, a non-integral Fraction a
    Fraction.  Other factors build a new Element as before."""
    v = Element({W1: 2, W2: Fraction(1, 3), W3: -1})
    assert v.scale(1) is v
    assert v.scale(Fraction(1)) is v
    neg = v.scale(-1)
    assert neg is not v and v.terms == {W1: 2, W2: Fraction(1, 3), W3: -1}
    assert list(neg.terms.items()) == [(W1, -2), (W2, Fraction(-1, 3)), (W3, 1)]
    assert [type(c) for c in neg.terms.values()] == [int, Fraction, int]
    assert neg.scale(Fraction(-1)) == v
    tripled = v.scale(3)
    assert tripled is not v and tripled.terms == {W1: 6, W2: 1, W3: -3}
    assert [type(c) for c in tripled.terms.values()] == [int, int, int]
    assert v.scale(0).is_zero() and Element().scale(1).is_zero()
