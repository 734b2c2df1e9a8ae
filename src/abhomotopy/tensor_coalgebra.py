"""Tensor words, shuffle products, and the deconcatenation cobracket.

A :class:`Generator` is a homogeneous basis letter carrying its shifted
degree (the ``dg`` grading in which the product and the differential
both have degree 1).  A word is a nonempty tuple of Generators; the
empty word is excluded everywhere.  Every layer keys dicts by words and
compares them, so a letter is an interned string whose value codes the
pair (gid, dg) in that order: its hash is computed once, equal letters
are one object, and comparing two letters is one string comparison.

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

One split enumerator serves both coalgebras.  :func:`two_blocks` lists
the splits of n positions into an increasing block of r and the
increasing rest, and :func:`crossing_sign` gives the Koszul sign of
placing one block ahead of the other: the parity of the odd pairs whose
order flips.  A shuffle interleaves two blocks and an unshuffle splits
one in two, and both carry that sign.  From the two come the
interleaving tables: :func:`interleaving_rows` lists, per shape (p, q),
each interleaving as the row of indices into the concatenation that its
output reads, and :func:`interleaving_signs` gives their signs per shape
and parity pattern.  The shuffle product reads them through one flat
``operator.itemgetter`` per shape, which builds every output word out of
``x + y`` in one call.  The bracket extension ``ell2`` in :mod:`ab_core`
maps the same rows and signs through the index runs around each
contracted letter pair, into a plan per shape and parity pattern.  Each
builds its dict once and adds up terms only when two words coincide.
The symmetric layer's :func:`~abhomotopy.sym_coalgebra.block_splits`
builds its split tables from ``two_blocks`` and ``crossing_sign`` too.

Every process-wide table here, as in :mod:`ab_core` and
:mod:`sym_coalgebra`, is a builder under ``functools.cache``, keyed by
shape and parities for the tables above and by the word for
:func:`word_degree` and :func:`cobracket`.  No key holds an algebra, so
every algebra and mutant shares the values safely, and no caller changes
a value it is handed.  ``cache_info()`` gives a table's size and
``__wrapped__`` its uncached builder.  The letter intern table behind
:class:`Generator` is the one other process-wide table, and
:data:`QUOTIENT` owns its tables per instance.

Tensor products of words (pairs, triples) are plain tuples of words.
The graded slot calculus on them has two kernels.  ``_slot_map``
feeds one or two adjacent slots to a graded map with the Koszul prefix
sign and puts the value back as one entry or spliced in; it can scale
each output, permute its slots at their Koszul sign, and add it into a
caller's accumulator, so a law sums both sides of an identity in one
dict.  :func:`apply_in_slot`, :func:`splice_in_slot` and
:func:`contract_adjacent_slots` are its entry points, and every caller
goes through them, so a wrapper installed on those names (a profiler,
a tracer) sees every call.  :func:`permute_slots` is the one loop that
sums graded permutations of the slots, each at its Koszul sign, in one
pass, reading getters and signs planned per permutation list and parity
pattern (:func:`_perm_plan`, which a slot map's permutation reads too).  The flip and coJacobi laws call it
directly, so a wrapper on the slot-map names does not see those calls;
:func:`swap_adjacent_slots`, the graded flip, is its one-permutation
entry point.

Normal forms are not slot maps.  A slotwise normal form is the tensor
power f x ... x f of a degree-0 map, which crosses no slot at a sign and
reads no grading, so :func:`tensor_power` applies it to every slot of a
tuple in one pass.  :meth:`ShuffleQuotient.normal_form_tensor` and the
symmetric layer's normal forms are this kernel over their own map.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Callable, Iterator

from .freemodule import Element, _coeff, add_term
from .signs import inverse, koszul_sign


#: the dg degrees a letter can carry: its degree code is one character
LETTER_DEGREES = range(-128, 128)

#: process-wide, append-only: (gid, deg) -> the one Generator of that pair
_LETTERS: dict = {}


class Generator(str):
    """A letter: its id ``gid`` and its shifted degree ``deg`` (dg).

    ``Generator(gid, deg)`` returns the one letter of that pair, interned
    in a process-wide table, so equal letters are the same object.  Its
    string value is ``gid``, a NUL, and one character coding ``deg``
    order-preservingly, so string order is exactly (gid, deg) order: a
    NUL sorts below every character of a NUL-free id that extends
    another.  A letter's hash is then a string hash, computed once and
    cached, and comparing two letters is one C string comparison.
    ``repr``, ``str`` and ``format`` give the id alone.  An id holding a
    NUL, or a degree outside :data:`LETTER_DEGREES`, is a ``ValueError``.
    """

    __slots__ = ("gid", "deg")

    def __new__(cls, gid: str, deg: int) -> Generator:
        try:
            g = _LETTERS.get((gid, deg))
        except TypeError:  # an unhashable id or degree: refused below
            g = None
        if g is not None and type(deg) is int:  # 1.0 and True equal 1, yet are refused
            return g
        if not isinstance(gid, str):
            raise ValueError(f"generator {gid!r}: an id must be a string")
        if "\0" in gid:  # the NUL ends the id in the letter's string value
            raise ValueError(f"generator {gid!r}: an id may not contain NUL")
        if type(deg) is not int or deg not in LETTER_DEGREES:
            raise ValueError(
                f"generator {gid!r}: shifted degree {deg!r} is not an integer in "
                f"{LETTER_DEGREES.start}..{LETTER_DEGREES.stop - 1}"
            )
        g = _LETTERS[gid, deg] = str.__new__(cls, gid + "\0" + chr(deg - LETTER_DEGREES.start))
        object.__setattr__(g, "gid", gid)
        object.__setattr__(g, "deg", deg)
        return g

    def __setattr__(self, name, *value):
        raise AttributeError("a Generator is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Generator, (self.gid, self.deg)

    def __repr__(self) -> str:
        return self.gid

    __str__ = __repr__

    def __format__(self, spec: str) -> str:
        return format(self.gid, spec)


Word = tuple[Generator, ...]


@functools.cache
def word_degree(w: Word) -> int:
    """dg degree of a word: the sum of its letter degrees.

    Cached process-wide by the word.  The cache is safe across algebras
    and their mutants: a word is a tuple of Generators, and each
    Generator carries its own degree, so equal words have equal degrees
    whatever algebra they came from.  It holds one entry per distinct
    word seen (a few hundred on a deep envelope run).
    """
    return sum(g.deg for g in w)


def word_key(w: Word):
    """Canonical total order on words: by length, then letter ids.

    A Generator compares as the pair (gid, deg), in one string
    comparison, so ``w`` itself orders words of equal length by their
    letter ids whenever a letter id determines its letter, as it does
    within every algebra and every generic-letter family.  No per-word
    id tuple is built.
    """
    return (len(w), w)


def render_word(w: Word) -> str:
    return "(" + "|".join(g.gid for g in w) + ")"


def render_tuple(t: tuple[Word, ...]) -> str:
    return " (x) ".join(render_word(w) for w in t)


@functools.cache
def two_blocks(n: int, r: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every split of the positions 0..n-1 into an increasing block of
    ``r`` and the increasing rest, as ``(block, rest)`` pairs.

    Blocks come in :func:`itertools.combinations` order.  A shuffle of
    two words reads the block as the output positions of its first word,
    an unshuffle of factors as the factors it takes out.  Cached per
    (n, r): a split is shape alone, so every algebra and mutant shares it.

    >>> two_blocks(3, 1)
    (((0,), (1, 2)), ((1,), (0, 2)), ((2,), (0, 1)))
    """
    everything = range(n)
    return tuple(
        (block, tuple(i for i in everything if i not in block))
        for block in itertools.combinations(everything, r)
    )


def crossing_sign(first, rest, odd_first, odd_rest) -> int:
    """The Koszul sign of placing the items at positions ``first`` ahead
    of those at positions ``rest``: (-1) to the number of odd pairs in
    which a ``rest`` item precedes a ``first`` item.

    ``odd_first`` and ``odd_rest`` hold the parities of the items, in the
    order of ``first`` and ``rest``.  A shuffle and its inverse unshuffle
    carry the same sign: a shuffle places its first word's letters at
    positions ``first`` of the output, and an unshuffle brings the
    factors at positions ``first`` to the front.

    >>> crossing_sign((1,), (0,), (1,), (1,)), crossing_sign((1,), (0,), (1,), (0,))
    (-1, 1)
    """
    crossed = sum(
        1 for i, a in zip(first, odd_first) if a for j, b in zip(rest, odd_rest) if b and j < i
    )
    return -1 if crossed % 2 else 1


@functools.cache
def interleaving_rows(p: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Every interleaving of a block of ``p`` items with one of ``q``, as
    the row of indices into the concatenation that its output reads.

    An interleaving is a split of :func:`two_blocks` (p + q, p), in that
    order: the output positions of the first block's items, the rest
    taking the second's.  Either block may be empty, which leaves one
    row, the identity.  A shuffle reads the rows over ``x + y``, and
    ``ab_core.ell2`` maps them through the index runs it interleaves.

    >>> interleaving_rows(1, 2)
    ((0, 1, 2), (1, 0, 2), (1, 2, 0))
    """
    # item i goes to output position (xs + ys)[i], so the output reads the items in that order
    return tuple(
        tuple(sorted(range(p + q), key=(xs + ys).__getitem__)) for xs, ys in two_blocks(p + q, p)
    )


@functools.cache
def interleaving_signs(p: int, q: int, odd: tuple[int, ...]) -> tuple[int, ...]:
    """The Koszul sign of each interleaving of :func:`interleaving_rows`
    (p, q), for items of the parities ``odd`` (those of the concatenation):
    the :func:`crossing_sign` of the first block's items placed ahead of
    the second's."""
    return tuple(crossing_sign(xs, ys, odd[:p], odd[p:]) for xs, ys in two_blocks(p + q, p))


@functools.cache
def _flat_getter(p: int, q: int) -> Callable:
    """One ``itemgetter`` that reads every interleaving of two nonempty
    words of lengths p and q out of ``x + y``, back to back, in the order
    of :func:`interleaving_rows`."""
    return operator.itemgetter(*itertools.chain.from_iterable(interleaving_rows(p, q)))


def _interleavings(x: Word, y: Word) -> tuple[Iterator[Word], tuple]:
    """The interleavings of two nonempty words, as an iterator, and their
    signs: the flat getter of their shape, cut into words, and the signs
    of the parities of their letters."""
    if not x or not y:
        raise ValueError("shuffle needs two nonempty words")
    xy = x + y
    p, q = len(x), len(y)
    signs = interleaving_signs(p, q, tuple([g.deg & 1 for g in xy]))
    return zip(*[iter(_flat_getter(p, q)(xy))] * len(xy)), signs


def _sum_terms(words: list, coefs) -> Element:
    """The Element sum of ``coefs[i] * words[i]``, words in order of first appearance.

    Every coefficient must be a nonzero ``int`` or a non-integral
    ``Fraction``, as an Element stores it.  The words and coefficients
    are zipped into one dict.  If it is as long as ``words``, no two
    words coincide: no coefficient is a sum, none is zero, and insertion
    order is first-appearance order, so the dict is the sum exactly.
    Otherwise one accumulating pass adds equal words up, drops zero sums
    and stores integral sums as ``int``.
    """
    d = dict(zip(words, coefs))
    if len(d) == len(words):
        return Element(d)
    acc: dict = {}
    for w, c in zip(words, coefs):
        acc[w] = acc.get(w, 0) + c
    return Element({w: _coeff(c) for w, c in acc.items() if c})


def shuffle(x: Word, y: Word) -> Element:
    """Signed sum of all shuffles of two words, with integer coefficients.

    Both blocks keep their internal order; each interleaving carries the
    Koszul sign of the rearrangement, read off the shape tables.  Terms
    come in the order of :func:`interleaving_rows`: lexicographic order
    of the positions of ``x``, as
    :func:`~abhomotopy.signs.enumerate_shuffles` lists them.  The signed
    interleavings go into one dict; when their words are distinct, as
    they are whenever no letter repeats, that dict is the product.  Only
    when a letter repeats can two interleavings coincide, and then one
    accumulating pass adds them up or cancels them (:func:`_sum_terms`).

    >>> a = Generator("a", 1); b = Generator("b", 1)
    >>> sorted((render_word(w), c) for w, c in shuffle((a,), (b,)).items())
    [('(a|b)', 1), ('(b|a)', -1)]
    """
    words, signs = _interleavings(x, y)
    return _sum_terms(list(words), signs)


def shuffle_elements(ex: Element, ey: Element) -> Element:
    """Bilinear extension of :func:`shuffle` to Elements of words.

    Every pair of terms, in ``ex`` x ``ey`` order, contributes its signed
    interleavings times its coefficient product k, stored as an ``int``
    when integral, so every coefficient is in stored form and nonzero.
    All of them go into one dict, which is the product when no word
    comes twice.  A word comes twice when a pair's letters repeat or two
    pairs share an interleaving; only then does one accumulating pass
    add equal words up and drop zero sums (:func:`_sum_terms`).  Raises
    ``ValueError`` when a word of either Element is empty.
    """
    words, coefs = [], []
    for x, cx in ex.terms.items():
        for y, cy in ey.terms.items():
            k = _coeff(cx * cy)
            ws, signs = _interleavings(x, y)
            words += ws
            coefs += signs if k == 1 else map(k.__mul__, signs)
    return _sum_terms(words, coefs)


@functools.cache
def cobracket(w: Word) -> Element:
    """Deconcatenation cobracket: sum over cuts of U (x) V - (-1)^{uv} V (x) U.

    Words of length 1 have no cut, so the result is zero.  Cached
    process-wide by the word, as :func:`word_degree` is: the cuts depend
    only on the letters, and each letter carries its own degree, so equal
    words have equal cobrackets whatever algebra they came from.  Every
    caller of one word gets the same Element, which no caller changes.  A
    deep envelope run meets about a hundred distinct words, each many
    thousands of times.
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
    so it starts with the least letter of its block: these are the words
    ``block[:1] + p``, p an ordering of the other letters, that pass the
    suffix test.  The orderings come from the lexicographic
    next-permutation step over the sorted tail, which yields each
    distinct ordering once, already in order, so a block with repeated
    letters costs its distinct orderings, not all (n-1)! of them, and the
    words come in lexicographic order.
    """
    head, tail = block[:1], list(block[1:])
    words = []
    while True:
        w = head + tuple(tail)
        if all(w < w[i:] for i in range(1, len(w))):
            words.append(w)
        # next permutation: the longest non-increasing suffix starts past i
        i = len(tail) - 2
        while i >= 0 and tail[i] >= tail[i + 1]:
            i -= 1
        if i < 0:
            return words
        j = len(tail) - 1
        while tail[j] <= tail[i]:
            j -= 1
        tail[i], tail[j] = tail[j], tail[i]
        tail[i + 1 :] = tail[:i:-1]


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

    - each Lyndon word l (letters ordered as Generators, by (gid, deg),
      so the Lyndon words of a block are the same in every algebra that
      holds its letters), with P_l its standard bracketing under the
      super commutator
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
        """Lie coordinates of an Element of words; zero iff v is a shuffle combination.

        One running sum over the memoized normal forms of the words of
        ``v``, then one pass that drops zero sums and stores integral sums
        as ``int``.  Its term order is unspecified: callers read only
        whether it is zero.
        """
        acc: dict = {}
        get = acc.get
        memo = self._nf.get
        for w, c in v.terms.items():
            nf = memo(w)
            if nf is None:
                nf = self.normal_form_word(w)
            for b, c2 in nf.terms.items():
                acc[b] = get(b, 0) + c * c2
        return Element({b: _coeff(c) for b, c in acc.items() if c})

    def is_zero(self, v: Element) -> bool:
        """True iff the Element of words is zero in the shuffle quotient."""
        return self.normal_form(v).is_zero()

    def normal_form_tensor(self, v: Element) -> Element:
        """Slotwise Lie coordinates on an Element of word tuples."""
        return tensor_power(v, self.normal_form_word)

    def tensor_is_zero(self, v: Element) -> bool:
        """True iff the Element of word tuples is zero in the quotient, slot by slot."""
        return self.normal_form_tensor(v).is_zero()


def tensor_power(v: Element, f: Callable) -> Element:
    """(f x ... x f)(v): the degree-0 map ``f`` (entry -> Element of
    entries) in every slot of every tuple of ``v``, in one pass.

    Each tuple's image is the product of its entries' images, first slot
    outermost, times the tuple's coefficient; a degree-0 map moves past
    no slot at a sign, so no degree is read.
    """
    acc: dict = {}
    for t, c in v.terms.items():
        for combo in itertools.product(*[f(e).terms.items() for e in t]):
            entries, coefs = zip(*combo)
            add_term(acc, entries, c * math.prod(coefs))
    return Element(acc)


def _slot_map(
    v: Element, slot: int, width: int, f: Callable, f_degree: int, deg_of: Callable, splice: bool,
    into: dict | None = None, scale=1, perm: tuple | None = None,
) -> Element | None:
    """The one slot-calculus kernel behind the three public slot maps.

    Feeds the ``width`` entries starting at ``slot`` (one or two) of each
    tuple to ``f``, an Element-valued graded map of degree ``f_degree``,
    and puts each image term back in their place: as one entry, or, with
    ``splice``, as the entries of a tuple.  Koszul rule: moving ``f``
    past the slots to the left of ``slot`` costs (-1)**(f_degree * sum
    of their degrees).  The sign and the untouched head and tail of a
    tuple are computed once per input term.

    Three optional inputs let a law sum both sides of an identity in one
    dict.  ``scale`` multiplies every image term.  ``perm``, a graded
    permutation of the output slots in word notation, is applied to each
    output tuple at its Koszul sign, read from :func:`_perm_plan` per
    parity pattern.  ``into``, a caller's accumulator, receives the terms
    instead of a fresh dict, and then nothing is returned.  Every term is
    added by :func:`~abhomotopy.freemodule.add_term`'s rule, so ``into``
    stays a valid Element's terms at every step.
    """
    acc = {} if into is None else into
    odd = f_degree % 2
    plans: dict = {}  # perm's getter and sign per parity pattern of an output tuple
    for t, c in v.terms.items():
        head, tail = t[:slot], t[slot + width :]
        if odd and sum(map(deg_of, head)) % 2:
            c = -c
        if scale != 1:
            c *= scale
        for r, c2 in f(*t[slot : slot + width]).terms.items():
            out = head + (r if splice else (r,)) + tail
            if perm is not None:
                parities = tuple([deg_of(e) & 1 for e in out])
                plan = plans.get(parities)
                if plan is None:
                    plan = plans[parities] = _perm_plan(((perm, 1),), parities)[0]
                pick, k = plan
                if pick:
                    out = pick(out)
                c2 *= k
            add_term(acc, out, c * c2)
    return Element(acc) if into is None else None


def apply_in_slot(
    v: Element, slot: int, f: Callable, f_degree: int, deg_of: Callable, *, into: dict | None = None
) -> Element | None:
    """Apply a graded map ``f`` (slot entry -> Element of slot entries) to
    one slot; ``into`` as in :func:`_slot_map`."""
    return _slot_map(v, slot, 1, f, f_degree, deg_of, False, into)


def splice_in_slot(
    v: Element, slot: int, f: Callable, f_degree: int, deg_of: Callable, *,
    into: dict | None = None, scale=1, perm: tuple | None = None,
) -> Element | None:
    """Apply a graded map whose values are tuples of slot entries (cobrackets,
    coproducts) to one slot, splicing the tuple in and raising the arity;
    ``into``, ``scale`` and ``perm`` as in :func:`_slot_map`."""
    return _slot_map(v, slot, 1, f, f_degree, deg_of, True, into, scale, perm)


def contract_adjacent_slots(
    v: Element, slot: int, f2: Callable, f_degree: int, deg_of: Callable
) -> Element:
    """Feed slots (slot, slot+1) to a binary graded map, lowering the arity."""
    return _slot_map(v, slot, 2, f2, f_degree, deg_of, False)


@functools.cache
def _perm_plan(perms: tuple, odd: tuple) -> tuple:
    """The getter and the factor times Koszul sign of each permutation of
    ``perms`` on tuples of parities ``odd``, the getter None for the
    identity; a zero factor is dropped."""
    plan = []
    for sigma, k in perms:
        k = _coeff(k * koszul_sign(odd, sigma))
        if k:
            getter = None if sigma == tuple(range(len(sigma))) else operator.itemgetter(*inverse(sigma))
            plan.append((getter, k))
    return tuple(plan)


def permute_slots(v: Element, perms: tuple, deg_of: Callable) -> Element:
    """The sum of k * sigma(v) over the ``(sigma, k)`` pairs of ``perms``.

    ``v`` is an Element of tuples of one arity, and each sigma a graded
    permutation of their slots in word notation (``sigma[i]`` is the
    output slot of slot i, as in :mod:`~abhomotopy.signs`), carrying the
    Koszul sign of the odd entries it reorders.  One pass over ``v``
    reads each entry's parity once per term, takes every sigma's getter
    and signed factor from :func:`_perm_plan`, cached per ``perms`` and
    parity pattern and looked up once per pattern a call meets, and adds
    each image into one dict through :func:`add_term`.  ``perms`` must be
    hashable (a tuple of pairs).

    >>> a, b = Generator("a", 1), Generator("b", 1)
    >>> permute_slots(Element.of(((a,), (b,))), (((1, 0), 1), ((0, 1), 1)), word_degree).terms
    {((b,), (a,)): -1, ((a,), (b,)): 1}
    """
    acc: dict = {}
    plans: dict = {}  # the plans of this call's parity patterns: hashing perms once per pattern
    for t, c in v.terms.items():
        odd = tuple([deg_of(e) & 1 for e in t])
        plan = plans.get(odd)
        if plan is None:
            plan = plans[odd] = _perm_plan(perms, odd)
        for pick, k in plan:
            add_term(acc, pick(t) if pick else t, c * k)
    return Element(acc)


def swap_adjacent_slots(v: Element, slot: int, deg_of: Callable) -> Element:
    """Graded flip of slots (slot, slot+1) on an Element of tuples of one arity."""
    if not v.terms:
        return Element()
    n = len(next(iter(v.terms)))
    return permute_slots(v, (((*range(slot), slot + 1, slot, *range(slot + 2, n)), 1),), deg_of)


#: process-wide quotient: Lie-coordinate tables per block, normal forms per word
QUOTIENT = ShuffleQuotient()
