"""Tensor words, shuffle products, and the deconcatenation cobracket.

A :class:`Generator` is a homogeneous basis letter carrying its shifted
degree (the ``dg`` grading in which the product and the differential
both have degree 1).  A word is a nonempty tuple of Generators; the
empty word is excluded everywhere.

Words represent classes in the quotient of the tensor powers by the
span of all shuffle products: the cofree Lie coalgebra.  No section of
the quotient is ever chosen.  A class is zero exactly when it pairs to
zero with every Lie element (Ree 1958), so :class:`ShuffleQuotient`
maps a word to its integer coordinates against a basis of the free Lie
superalgebra on its letters: the standard bracketings of the Lyndon
words of its letter multiset, plus [P_l, P_l] for each odd Lyndon word
l whose square has that multiset.  The map's kernel is exactly the
shuffle span, so zero tests need no row reduction.  The coordinate
table of a letter multiset (a block) is built once, and each word's
coordinates are memoized by the word; both depend only on letters and
their degrees, so every algebra and mutant shares them safely.

Every signed sum over the interleavings of two words (the shuffle
product here, the bracket extension ``ell2`` in :mod:`ab_core`) reads
shape tables: where the letters go depends only on the two lengths, and
the Koszul signs only on which letters are odd.  Each shape (p, q) has
one ``operator.itemgetter`` per interleaving, picking it out of
``x + y``, and each shape and parity pattern its tuple of signs.  Both
are built on first use and keyed by these combinatorics alone, never by
letters, so every algebra and mutant shares them safely.

Tensor products of words (pairs, triples) are plain tuples of words.
The graded slot calculus on them has one kernel, ``_slot_map``: it
feeds one or two adjacent slots to a graded map with the Koszul prefix
sign and puts the value back as one entry or spliced in.
:func:`apply_in_slot`, :func:`splice_in_slot` and
:func:`contract_adjacent_slots` are its entry points, and every caller
goes through them, so a wrapper installed on those names (a profiler,
a tracer) sees every call.  :func:`swap_adjacent_slots`, the graded
flip, is a permutation and has its own loop.
"""

from __future__ import annotations

import operator
from typing import Callable, NamedTuple

from .freemodule import Element, add_term


class Generator(NamedTuple):
    gid: str
    deg: int  # shifted degree dg

    def __repr__(self) -> str:
        return self.gid


Word = tuple[Generator, ...]


#: process-wide memo of word degrees, keyed by the word itself
_WORD_DEGREE: dict = {}


def word_degree(w: Word) -> int:
    """dg degree of a word: the sum of its letter degrees.

    Memoized process-wide by the word.  The memo is safe across algebras
    and their mutants: a word is a tuple of Generators, and each
    Generator carries its own degree, so equal words have equal degrees
    whatever algebra they came from.  It holds one entry per distinct
    word seen (a few hundred on a deep envelope run).
    """
    d = _WORD_DEGREE.get(w)
    if d is None:
        d = _WORD_DEGREE[w] = sum(g.deg for g in w)
    return d


def word_key(w: Word):
    """Canonical total order on words: by length, then letter ids.

    A Generator is the pair (gid, deg) and compares as one, so ``w``
    itself orders words of equal length by their letter ids whenever a
    letter id determines its letter, as it does within every algebra
    and every generic-letter family.  No per-word id tuple is built.
    """
    return (len(w), w)


def render_word(w: Word) -> str:
    return "(" + "|".join(g.gid for g in w) + ")"


def render_tuple(t: tuple[Word, ...]) -> str:
    return " (x) ".join(render_word(w) for w in t)


#: interleaving getters per shape (p, q), in the order of the walk
_GETTERS: dict = {}
#: interleaving signs per (p, q, odd_mask), matching ``_GETTERS[(p, q)]``
_SIGNS: dict = {}


def _tables(p: int, q: int, xy: Word) -> tuple[tuple, tuple]:
    """The getters of shape (p, q) and the signs for the parities of ``xy``.

    A missing entry is built by the first-letter shuffle recursion over
    positions in ``xy``: placing y letter j ahead of the x letters
    ``x[i:]`` still to come multiplies the sign by (-1)^(|y_j| |x[i:]|),
    and placing an x letter costs nothing.  Interleavings come in
    lexicographic order of the positions of ``x``.
    """
    odd_mask = 0
    bit = 1
    for g in xy:
        if g.deg & 1:
            odd_mask |= bit
        bit <<= 1
    key = (p, q, odd_mask)
    signs = _SIGNS.get(key)
    if signs is None:
        odd = [(odd_mask >> i) & 1 for i in range(p + q)]
        # odd_rest[i]: parity of the degree of x[i:]
        odd_rest = [0] * (p + 1)
        for i in range(p - 1, -1, -1):
            odd_rest[i] = odd_rest[i + 1] ^ odd[i]
        walk = []
        stack = [((), 0, 0, 1)]
        while stack:
            pos, i, j, sign = stack.pop()
            if i == p:
                walk.append((pos + tuple(range(p + j, p + q)), sign))
            elif j == q:
                walk.append((pos + tuple(range(i, p)), sign))
            else:
                # pushed second, popped first: x-first branches come out first
                y_sign = -sign if odd[p + j] and odd_rest[i] else sign
                stack.append((pos + (p + j,), i, j + 1, y_sign))
                stack.append((pos + (i,), i + 1, j, sign))
        signs = _SIGNS[key] = tuple(s for _, s in walk)
        if (p, q) not in _GETTERS:
            _GETTERS[p, q] = tuple(operator.itemgetter(*pos) for pos, _ in walk)
    return _GETTERS[p, q], signs


def signed_interleavings(x: Word, y: Word) -> list[tuple[Word, int]]:
    """Every interleaving of ``x`` and ``y`` with its Koszul sign.

    Returns a list of ``(word, sign)``.  Both words keep their internal
    order, and either may be empty.  Each getter of shape
    (len(x), len(y)) is applied to ``x + y`` and paired with the sign
    stored for the parities of those letters (see :func:`_tables`).
    Interleavings come in lexicographic order of the positions of ``x``,
    the order of :func:`~abhomotopy.signs.enumerate_shuffles`.

    >>> a = Generator("a", 1); b = Generator("b", 1)
    >>> [(render_word(w), s) for w, s in signed_interleavings((a,), (b,))]
    [('(a|b)', 1), ('(b|a)', -1)]
    """
    if not x or not y:
        return [(x + y, 1)]
    xy = x + y
    getters, signs = _tables(len(x), len(y), xy)
    return [(get(xy), s) for get, s in zip(getters, signs)]


def _shuffle_into(acc: dict, x: Word, y: Word, k) -> None:
    """Add ``k`` times the shuffle of ``x`` and ``y`` into ``acc``, zeros kept."""
    if not x or not y:
        raise ValueError("shuffle needs two nonempty words")
    xy = x + y
    getters, signs = _tables(len(x), len(y), xy)
    neg = -k
    get = acc.get
    for getter, s in zip(getters, signs):
        w = getter(xy)
        acc[w] = get(w, 0) + (k if s > 0 else neg)


def _nonzero(acc: dict) -> Element:
    """Element of the nonzero sums in ``acc``, integral ones as ``int``."""
    return Element(
        {w: c if type(c) is int or c.denominator != 1 else c.numerator for w, c in acc.items() if c}
    )


def shuffle(x: Word, y: Word) -> Element:
    """Signed sum of all shuffles of two words, with integer coefficients.

    Both blocks keep their internal order; each interleaving carries the
    Koszul sign of the rearrangement, read off the shape tables.  Equal
    interleavings (from repeated letters) add up or cancel.

    >>> a = Generator("a", 1); b = Generator("b", 1)
    >>> sorted((render_word(w), c) for w, c in shuffle((a,), (b,)).items())
    [('(a|b)', 1), ('(b|a)', -1)]
    """
    acc: dict = {}
    _shuffle_into(acc, x, y, 1)
    return _nonzero(acc)


def shuffle_elements(ex: Element, ey: Element) -> Element:
    """Bilinear extension of :func:`shuffle` to Elements of words.

    Every pair of terms adds its coefficient product times each signed
    interleaving into one dict; zero sums are dropped once at the end.
    Raises ``ValueError`` when a word of either Element is empty.
    """
    acc: dict = {}
    for x, cx in ex.terms.items():
        for y, cy in ey.terms.items():
            _shuffle_into(acc, x, y, cx * cy)
    return _nonzero(acc)


def cobracket(w: Word) -> Element:
    """Deconcatenation cobracket: sum over cuts of U (x) V - (-1)^{uv} V (x) U.

    Words of length 1 have no cut, so the result is zero.
    """
    acc: dict = {}
    for j in range(1, len(w)):
        u, v = w[:j], w[j:]
        sign = -1 if (word_degree(u) * word_degree(v)) % 2 else 1
        add_term(acc, (u, v), 1)
        add_term(acc, (v, u), -sign)
    return Element(acc)


def _lyndon_words(block: tuple[Generator, ...]) -> list[Word]:
    """The Lyndon words whose letters are the sorted multiset ``block``.

    A Lyndon word is strictly smaller than each of its proper suffixes,
    so it starts with the least letter of its block; words are grown
    from the remaining multiplicities after that letter and kept when
    they pass the suffix test.  They come in lexicographic order.
    """
    letters = sorted(set(block))
    left = {g: block.count(g) for g in letters}
    left[block[0]] -= 1
    n = len(block)
    out: list[Word] = []
    word = [block[0]]

    def grow() -> None:
        if len(word) == n:
            w = tuple(word)
            if all(w < w[i:] for i in range(1, n)):
                out.append(w)
            return
        for g in letters:
            if left[g]:
                left[g] -= 1
                word.append(g)
                grow()
                word.pop()
                left[g] += 1

    grow()
    return out


def _bracket(pu: dict, pv: dict, both_odd: bool) -> dict:
    """Super commutator P_u P_v - (-1)^{|u||v|} P_v P_u of two polynomials
    {word: int}, zero coefficients dropped."""
    acc: dict = {}
    get = acc.get
    for x, cx in pu.items():
        for y, cy in pv.items():
            c = cx * cy
            acc[x + y] = get(x + y, 0) + c
            acc[y + x] = get(y + x, 0) + (c if both_odd else -c)
    return {w: c for w, c in acc.items() if c}


def _lie_polynomial(l: Word, memo: dict) -> dict:
    """Standard bracketing P_l of a Lyndon word as a polynomial {word: int}.

    The standard factorization l = uv takes v the longest proper Lyndon
    suffix of l, which is its least proper suffix; then u is Lyndon too
    and P_l = [P_u, P_v].  A letter is its own polynomial.
    """
    p = memo.get(l)
    if p is None:
        if len(l) == 1:
            p = {l: 1}
        else:
            v = min(l[i:] for i in range(1, len(l)))
            u = l[: len(l) - len(v)]
            both_odd = bool(word_degree(u) & word_degree(v) & 1)
            p = _bracket(_lie_polynomial(u, memo), _lie_polynomial(v, memo), both_odd)
        memo[l] = p
    return p


def _lie_coordinates(block: tuple[Generator, ...]) -> dict[Word, Element]:
    """Word -> its Lie coordinates {label: <w, P_label>} on one block.

    Labels are the Lyndon words l of the block, paired with their
    standard bracketing P_l, and, when every multiplicity is even, the
    squares ll of the odd Lyndon words l of the half block, paired with
    [P_l, P_l] = 2 P_l P_l.  A word missing from every polynomial is
    absent from the table: its coordinates all vanish.
    """
    memo: dict = {}
    pairings = [(l, _lie_polynomial(l, memo)) for l in _lyndon_words(block)]
    half = block[::2]
    if half == block[1::2]:
        for l in _lyndon_words(half):
            if word_degree(l) & 1:
                p = _lie_polynomial(l, memo)
                pairings.append((l + l, _bracket(p, p, True)))
    coords: dict = {}
    for label, poly in pairings:
        for w, c in poly.items():
            coords.setdefault(w, {})[label] = c
    return {w: Element(terms) for w, terms in coords.items()}


class ShuffleQuotient:
    """Zero test for the shuffle quotient, by Lie coordinates per block.

    The block of a word is its letter multiset.  On a block, the normal
    form of a word w is its coordinate vector sum_b <w, P_b> b, where
    <w, P> is the coefficient of w in the polynomial P and the labels b
    are words of the block:

    - each Lyndon word l (letters ordered as Generators), with P_l its
      standard bracketing under the super commutator
      [U, V] = UV - (-1)^{|u||v|} VU in dg parity;
    - each square ll of an odd Lyndon word l, with P = [P_l, P_l].

    These P_b are a basis of the multidegree-``block`` part of the free
    Lie superalgebra on the letters.  By Ree's theorem (1958; Reutenauer,
    *Free Lie Algebras*, 1993), a homogeneous element is a shuffle
    combination exactly when it pairs to zero with every Lie element,
    so the kernel of the coordinate map is exactly the shuffle span.
    The coordinates are integers: no fraction and no elimination.

    The map is not a projection: <l, P_l'> is unitriangular in the
    Lyndon words, with 2 on an odd square, so a label is not its own
    normal form.  Callers may only zero-test normal forms, or compare
    two of them; every caller does.

    Each block's table word -> coordinates is built once, by
    :meth:`span_basis`, and each word's normal form is memoized by the
    word.  Both read only letters and their degrees (a Generator carries
    its own), so they are safe across algebras and their mutants.

    >>> o = Generator("o", 1); e = Generator("e", 0)
    >>> q = ShuffleQuotient()
    >>> q.is_zero(Element.of((o, o)))  # an odd square survives
    False
    >>> q.is_zero(Element.of((e, e)))  # an even square dies: twice e|e is a shuffle
    True
    >>> q.is_zero(shuffle((o,), (e,)))  # a two-letter shuffle dies
    True
    >>> q.normal_form_word((o, o)).coefficient((o, o))
    2
    """

    def __init__(self):
        self._tables: dict[tuple[Generator, ...], dict[Word, Element]] = {}
        self._nf: dict[Word, Element] = {}

    def block_of(self, w: Word) -> tuple[Generator, ...]:
        return tuple(sorted(w))

    def span_basis(self, block: tuple[Generator, ...]) -> dict[Word, Element]:
        """The Lie-coordinate table of ``block``, built on first use."""
        table = self._tables.get(block)
        if table is None:
            table = self._tables[block] = _lie_coordinates(block)
        return table

    def normal_form_word(self, w: Word) -> Element:
        nf = self._nf.get(w)
        if nf is None:
            if len(w) < 2:
                nf = Element.of(w)
            else:
                nf = self.span_basis(self.block_of(w)).get(w) or Element()
            self._nf[w] = nf
        return nf

    def normal_form(self, v: Element) -> Element:
        """Lie coordinates of an Element of words; zero iff v is a shuffle combination."""
        return v.map_basis(self.normal_form_word)

    def is_zero(self, v: Element) -> bool:
        """True iff the Element of words is zero in the shuffle quotient."""
        return self.normal_form(v).is_zero()

    def normal_form_tensor(self, v: Element, arity: int) -> Element:
        """Slotwise Lie coordinates on an Element of word tuples."""
        for slot in range(arity):
            v = apply_in_slot(v, slot, self.normal_form_word, 0, word_degree)
        return v

    def tensor_is_zero(self, v: Element, arity: int) -> bool:
        return self.normal_form_tensor(v, arity).is_zero()


def _slot_map(
    v: Element, slot: int, width: int, f: Callable, f_degree: int, deg_of: Callable, splice: bool
) -> Element:
    """The one slot-calculus kernel behind the three public slot maps.

    Feeds the ``width`` entries starting at ``slot`` (one or two) of each
    tuple to ``f``, an Element-valued graded map of degree ``f_degree``,
    and puts each image term back in their place: as one entry, or, with
    ``splice``, as the entries of a tuple.  Koszul rule: moving ``f``
    past the slots to the left of ``slot`` costs (-1)**(f_degree * sum
    of their degrees).  The sign and the untouched head and tail of a
    tuple are computed once per input term.
    """
    acc: dict = {}
    odd = f_degree % 2
    for t, c in v.items():
        head, tail = t[:slot], t[slot + width :]
        if odd and sum(map(deg_of, head)) % 2:
            c = -c
        for r, c2 in f(*t[slot : slot + width]).items():
            add_term(acc, head + (r if splice else (r,)) + tail, c * c2)
    return Element(acc)


def apply_in_slot(v: Element, slot: int, f: Callable, f_degree: int, deg_of: Callable) -> Element:
    """Apply a graded map ``f`` (slot entry -> Element of slot entries) to one slot."""
    return _slot_map(v, slot, 1, f, f_degree, deg_of, False)


def splice_in_slot(v: Element, slot: int, f: Callable, f_degree: int, deg_of: Callable) -> Element:
    """Apply a graded map whose values are tuples of slot entries (cobrackets,
    coproducts) to one slot, splicing the tuple in and raising the arity."""
    return _slot_map(v, slot, 1, f, f_degree, deg_of, True)


def contract_adjacent_slots(
    v: Element, slot: int, f2: Callable, f_degree: int, deg_of: Callable
) -> Element:
    """Feed slots (slot, slot+1) to a binary graded map, lowering the arity."""
    return _slot_map(v, slot, 2, f2, f_degree, deg_of, False)


def swap_adjacent_slots(v: Element, slot: int, deg_of: Callable) -> Element:
    """Graded flip of slots (slot, slot+1) on an Element of tuples."""
    acc: dict = {}
    for t, c in v.items():
        if (deg_of(t[slot]) * deg_of(t[slot + 1])) % 2:
            c = -c
        add_term(acc, t[:slot] + (t[slot + 1], t[slot]) + t[slot + 2 :], c)
    return Element(acc)


#: process-wide quotient: Lie-coordinate tables per block, normal forms per word
QUOTIENT = ShuffleQuotient()
