"""Tensor words, shuffle products, and the deconcatenation cobracket.

A :class:`Generator` is a homogeneous basis letter carrying its shifted
degree (the ``dg`` grading in which the product and the differential
both have degree 1).  A word is a nonempty tuple of Generators; the
empty word is excluded everywhere.

Words represent classes in the quotient of the tensor powers by the
span of all shuffle products.  No section of the quotient is ever
chosen: equality of classes is decided by reducing against the
row-reduced span of shuffle images inside the word block with the same
letter multiset (:class:`ShuffleQuotient`).  Blocks recur across every
identity check, so their reduced bases are memoized.

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

import itertools
import operator
from typing import Callable, NamedTuple, Sequence

from .freemodule import Element, ReducedBasis, add_term


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


def _arrangements(items: Sequence[Generator]):
    """Distinct orderings of a multiset of generators, in lex order."""
    seen = set()
    for perm in itertools.permutations(sorted(items)):
        if perm not in seen:
            seen.add(perm)
            yield perm


class ShuffleQuotient:
    """Membership test for the shuffle span, block by block.

    The block of a word is its letter multiset; the span of all shuffle
    products of two nonempty words partitioning that multiset is
    row-reduced once per block and cached.
    """

    def __init__(self):
        self._bases: dict[tuple[Generator, ...], ReducedBasis] = {}

    def block_of(self, w: Word) -> tuple[Generator, ...]:
        return tuple(sorted(w))

    def span_basis(self, block: tuple[Generator, ...]) -> ReducedBasis:
        basis = self._bases.get(block)
        if basis is None:
            vectors = []
            n = len(block)
            for arr in _arrangements(block):
                for cut in range(1, n):
                    vectors.append(shuffle(arr[:cut], arr[cut:]))
            basis = ReducedBasis(vectors, key=word_key)
            self._bases[block] = basis
        return basis

    def normal_form_word(self, w: Word) -> Element:
        if len(w) < 2:
            return Element.of(w)
        return self.span_basis(self.block_of(w)).reduce(Element.of(w))

    def normal_form(self, v: Element) -> Element:
        """Normal form of an Element of words modulo all shuffle spans."""
        return v.map_basis(self.normal_form_word)

    def is_zero(self, v: Element) -> bool:
        """True iff the Element of words is zero in the shuffle quotient."""
        return self.normal_form(v).is_zero()

    def normal_form_tensor(self, v: Element, arity: int) -> Element:
        """Slotwise normal form on an Element of word tuples."""
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


#: process-wide cache of shuffle-span bases
QUOTIENT = ShuffleQuotient()
