"""The symmetric coalgebra layer of the envelope.

Basis monomials are SymWords: nonempty multisets of tensor words stored
as canonically ordered tuples.  Reordering factors costs the Koszul
sign in the symmetric-layer degree deg_s = dg - a + b; the square of an
odd factor is zero.  On this space live:

- the two-block coproduct ``coproduct_delta`` (cocommutative,
  coassociative, degree 0),
- the coderivation extension ``extend`` of a map on one or two factors,
  and the codifferential ``q_codifferential``, Q = m + ell'' with
  Q^2 = 0 modulo shuffles, built from the two Taylor coefficients it is
  given (D and ell2''),
- the degree-(b-a) cobracket ``cobracket_doubleprime``, the word
  cobracket it is given (delta) on one factor, the others split around
  it.  It reads the splits of the other factors from ``block_splits``
  with the cut factor pinned, through a cut plan that puts the
  (-1)^((a-b) deg_s X_I) of the left block on each split's sign once per
  parity pattern.

This module builds no map on words.  Delta, m, ell'' and delta''
enumerate factor splits through one table, :func:`block_splits`, the one
production place that works out the Koszul sign of moving factors past
each other: the two blocks of Delta, the blocks around the cut factor of
delta'', and the one or two factors that m and ell'' bring to the front
(one body, ``extend``, over the block size).  Their three kernels read
the factors' deg_s parities through ``_parities``.  The table is built
off the split enumerator of the tensor layer, ``two_blocks`` and
``crossing_sign``, the same two functions the shuffle tables are built
from.  Its tables, the insertion tables and the cut plans below are
builders under ``functools.cache``, as the tensor layer's tables are,
keyed by parity pattern and positions alone, so every algebra and mutant
shares them; ``cache_info()`` gives each table's size.

``kappa`` and ``poisson_cobracket`` are the directly coded cobrackets
of the Gerstenhaber (odd a - b) and Poisson (even a - b)
specializations: one body, ``_direct_cobracket``, at the two parities
of a - b, the only thing about a - b that delta'' reads.  They exist as
independent oracles for ``cobracket_doubleprime`` and intentionally
repeat its combinatorics with their own degree bookkeeping: they cut
each factor and sign the flip themselves, never through a word
cobracket, so they check delta as well as its extension to syms.  They
and ``q_by_taylor`` enumerate their factor splits through one
enumerator of their own, ``_oracle_splits``, never through the
production ``block_splits``.
The two sign their splits differently: ``_oracle_splits`` builds each
permutation and calls ``koszul_sign``, ``block_splits`` reads
``crossing_sign`` of its blocks' parities, once per parity pattern.

Canonical insertion.  ``coproduct_delta``, ``extend`` and
``cobracket_doubleprime`` take a canonical SymWord.  Every factor
tuple they emit is a subsequence of it (``X_I``, ``X_J`` or the rest
after removing factors), which is canonical already, with at most one
new word at its front or its end.  Since the sym is sorted, the number
of its factors that sort before a word, its rank (:func:`_rank`), places
the word in every block of the sym's positions at once.  Per (parity
pattern, block, end) an insertion table (:func:`_insertions`) holds,
for each rank, a flat getter over ``sym + (w,)`` that returns the
block's factors with ``w`` in place, and the parity of the odd factors
``w`` passes, which gives the Koszul sign.  An odd word equal to a
factor of its block gives zero.  So ``extend`` ranks each image word
once, and delta'' ranks each cut word of a factor once for all the
splits of the others; no output is re-sorted or scanned per split, and
the deg_s parities of the input factors are computed once per call.

Full re-sorting (:func:`normalize`, :func:`sym_of`) remains where the
input order is arbitrary: building probe SymWords, the factorwise
quotient normal form, and the oracles.  ``kappa``, ``poisson_cobracket``
and ``q_by_taylor`` re-sort every output through their own
``_normalize_with``/``sym_of`` path, so they do not share the
production kernels' insertion.

Equality of the propositions' two sides is decided by rewriting every
tensor-word factor to its shuffle-quotient normal form
(:func:`sym_normal_form`, and :func:`sym_tensor_normal_form` slot by
slot on tuples of syms) and comparing canonical Elements.  Both are the
tensor layer's :func:`~abhomotopy.tensor_coalgebra.tensor_power` of a
degree-0 map: of the word normal form over a sym's factors, re-sorted
by :func:`normalize`, and of that sym normal form over a tuple's slots.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable

from .ab_core import AbAlgebra
from .freemodule import Element, _coeff, add_term
from .signs import koszul_sign, sign
from .tensor_coalgebra import (
    QUOTIENT,
    Word,
    crossing_sign,
    render_word,
    tensor_power,
    two_blocks,
    word_degree,
    word_key,
)

SymWord = tuple[Word, ...]


def _normalize_with(deg_of: Callable[[Word], int], factors) -> tuple[int, SymWord | None]:
    """Sort factors canonically, accumulating the graded swap sign."""
    arr = list(factors)
    keys = [word_key(w) for w in arr]
    odds = [deg_of(w) % 2 for w in arr]
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and keys[j] < keys[j - 1]:
            if odds[j] and odds[j - 1]:
                sign = -sign
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            keys[j - 1], keys[j] = keys[j], keys[j - 1]
            odds[j - 1], odds[j] = odds[j], odds[j - 1]
            j -= 1
    for i in range(len(arr) - 1):
        if odds[i] and arr[i] == arr[i + 1]:
            return 0, None
    return sign, tuple(arr)


def _rank(sym: SymWord, w: Word) -> tuple[int, int]:
    """Where ``w`` goes in the canonical ``sym``: the number of its factors
    that sort strictly before ``w``, and the position of a factor equal to
    ``w`` (the first, if several), or -1.

    Factors compare as their :func:`word_key` does, by length and then as
    words, with no key tuple built.  Every factor at a position below the
    rank sorts before ``w`` and every other one does not, so the rank
    places ``w`` in every block of the sym's positions at once (see
    :func:`_insertions`).
    """
    lw = len(w)
    for i, f in enumerate(sym):
        lf = len(f)
        if lf > lw or lf == lw and f >= w:
            return i, (i if f == w else -1)
    return len(sym), -1


@functools.cache
def _insertions(odds: tuple[int, ...], block: tuple[int, ...], front: bool) -> tuple:
    """The insertion table of ``block``, increasing positions of a
    canonical sym whose factors have the deg_s parities ``odds``.

    Entry ``rank`` (0 up to the number of factors) is for a word ``w`` of
    that :func:`_rank` in the sym: a getter over ``sym + (w,)`` that
    returns the block's factors with ``w`` in canonical place, and the
    parity of the odd block factors ``w`` passes, coming from the front
    (``front``) or from the end.  ``w`` goes after the block's factors
    below the rank and before the others, so the getter's tuple is the
    canonical form, and the Koszul sign of the insertion is
    (-1)^(parity of w * that parity).  An odd ``w`` equal to a block
    factor kills the product; the table does not see that, its caller
    tests the equal factor's position against the block.  Cached per
    (parity pattern, block, front), so every algebra and mutant shares it.
    """
    n = len(odds)
    rows = []
    for rank in range(n + 1):
        before = [i for i in block if i < rank]
        after = [i for i in block if i >= rank]
        idx = before + [n] + after
        # one index (an empty block) would make itemgetter return a word, not a tuple
        get = operator.itemgetter(*idx) if len(idx) > 1 else operator.itemgetter(slice(n, n + 1))
        rows.append((get, sum([odds[i] for i in (before if front else after)]) & 1))
    return tuple(rows)


def normalize(algebra: AbAlgebra, factors) -> tuple[int, SymWord | None]:
    """Canonical form of a factor sequence in deg_s grading; (0, None) if it dies."""
    return _normalize_with(algebra.deg_s, factors)


def sym_of(algebra: AbAlgebra, factors, coeff=1) -> Element:
    sign, sym = normalize(algebra, factors)
    if sym is None:
        return Element.zero()
    return Element.of(sym, coeff * sign)


def sym_degree(algebra: AbAlgebra, sym: SymWord) -> int:
    return sum(map(word_degree, sym)) - len(sym) * (algebra.a - algebra.b)


def _parities(amb: int, sym: SymWord) -> tuple[int, ...]:
    """The deg_s parities of the factors of ``sym``, for a - b = ``amb``."""
    return tuple([(word_degree(w) - amb) & 1 for w in sym])


def render_sym(sym: SymWord) -> str:
    return ".".join(render_word(w) for w in sym)


def render_sym_tuple(t) -> str:
    return " (x) ".join(render_sym(s) for s in t)


def sym_key(sym: SymWord):
    return (len(sym), tuple(word_key(w) for w in sym))


# -- coproduct -----------------------------------------------------------


@functools.cache
def block_splits(odd: tuple[int, ...], pinned: int | None = None, size: int | None = None) -> tuple:
    """Ordered two-block splits of factor positions, with their Koszul sign.

    ``odd`` holds the degree parities (0 or 1) of the factors, as
    :func:`_parities` gives them.  Returns ``(left, right, eps)``
    entries: increasing position tuples and the Koszul sign of arranging
    the factors as left, then the ``pinned`` factor if one is given, then
    right.  A kernel that needs a block's parities reads them off ``odd``.
    With ``size``, only the left blocks of that size occur (none when it
    exceeds the positions to choose from); without it, and without a
    pinned factor, only proper splits (both blocks nonempty) occur, and
    with a pinned factor every split of the other positions does.  Blocks
    ``left`` come in :func:`itertools.combinations` order, smallest
    size first.

    The splits are :func:`~abhomotopy.tensor_coalgebra.two_blocks` of the
    positions other than ``pinned``, and the sign is
    :func:`~abhomotopy.tensor_coalgebra.crossing_sign` of left and the
    pinned factor ahead of right, times that of left ahead of the pinned
    factor.  They depend only on the parities, so the entries are cached
    per parity pattern (which fixes the number of factors), ``pinned`` and
    ``size``, and every algebra and mutant shares them.
    """
    n = len(odd)
    others = [i for i in range(n) if i != pinned]
    middle = () if pinned is None else (pinned,)
    if size is not None:
        sizes = (size,) if size <= len(others) else ()
    else:
        sizes = range(1, n) if pinned is None else range(n)
    splits = []
    for r in sizes:
        for block, rest in two_blocks(len(others), r):
            left = tuple([others[i] for i in block])
            right = tuple([others[j] for j in rest])
            odd_left, odd_right = [odd[i] for i in left], [odd[j] for j in right]
            odd_middle = [odd[i] for i in middle]
            eps = crossing_sign(left + middle, right, odd_left + odd_middle, odd_right)
            eps *= crossing_sign(left, middle, odd_left, odd_middle)
            splits.append((left, right, eps))
    return tuple(splits)


def coproduct_delta(algebra: AbAlgebra, sym: SymWord) -> Element:
    """Sum over proper two-block splits of the factor multiset.

    Each split carries the block Koszul sign in deg_s; a single factor
    has no proper split, so its coproduct is zero.
    """
    acc: dict = {}
    for left, right, eps in block_splits(_parities(algebra.a - algebra.b, sym)):
        add_term(acc, (tuple(sym[i] for i in left), tuple(sym[j] for j in right)), eps)
    return Element(acc)


# -- coderivation extensions ----------------------------------------------


def extend(algebra: AbAlgebra, sym: SymWord, size: int, f: Callable) -> Element:
    """The coderivation extension of ``f``, a map from ``size`` factors to
    Elements of words: ``f`` takes each unordered block of ``size``
    factors, after bringing it to the front, and its image words take the
    block's place in front of the other factors.  A one-factor block
    reaches ``f`` as its word, a pair as (x, y): m extends D at size 1,
    ell'' the symmetric bracket at size 2.

    Each image word is ranked once among the sym's factors
    (:func:`_rank`), and the insertion table of the other factors
    (:func:`_insertions`, from the front) gives its output sym and sign;
    an odd word equal to one of the other factors gives nothing."""
    amb = algebra.a - algebra.b
    odds = _parities(amb, sym)
    acc: dict = {}
    for block, others, front in block_splits(odds, size=size):
        inserts = _insertions(odds, others, True)
        arg = sym[block[0]] if size == 1 else tuple([sym[i] for i in block])
        for w, c in f(arg).terms.items():
            rank, eq = _rank(sym, w)
            get, passed = inserts[rank]
            if (word_degree(w) - amb) & 1:
                if eq in others:
                    continue
                if passed:
                    c = -c
            add_term(acc, get(sym + (w,)), c * front)
    return Element(acc)


def q_codifferential(algebra: AbAlgebra, sym: SymWord, D: Callable, bracket: Callable) -> Element:
    """The codifferential Q = m + ell'' (degree 1 in deg_s): the coderivation
    extension of its two Taylor coefficients, ``D`` on one factor and the
    symmetric ``bracket`` (of a pair) on two."""
    return extend(algebra, sym, 1, D) + extend(algebra, sym, 2, bracket)


def q_by_taylor(algebra: AbAlgebra, sym: SymWord, D: Callable, bracket: Callable) -> Element:
    """Q assembled from its Taylor coefficients (``D`` at one factor, the
    symmetric ``bracket`` of a pair at two, zero beyond); kept as a
    cross-check presentation of :func:`q_codifferential`.  Given the same
    two coefficients, it pins Q's assembly from them, not D or ell2''."""
    degs = [algebra.deg_s(w) for w in sym]
    acc = Element.zero()
    for left, rest, s in _oracle_splits(degs, (1, 2)):
        val = D(sym[left[0]]) if len(left) == 1 else bracket((sym[left[0]], sym[left[1]]))
        rest_factors = tuple(sym[i] for i in rest)
        for w, c in val.items():
            acc = acc + sym_of(algebra, (w,) + rest_factors, c * s)
    return acc


# -- cobrackets ------------------------------------------------------------


@functools.cache
def _cut_plan(odds: tuple[int, ...], s: int, t: int) -> tuple:
    """The :func:`block_splits` entries of ``odds`` with factor ``s``
    pinned, in their order, as ``(neg, left_mask, right_mask, left_inserts,
    right_inserts)``: ``neg`` the parity of eps (-1)^(t deg_s X_I), the
    blocks as bitmasks of positions, and their :func:`_insertions`
    tables, the left one from the end and the right one from the front."""
    return tuple(
        (
            (eps < 0) ^ (t & sum([odds[i] for i in left])),
            sum([1 << i for i in left]),
            sum([1 << j for j in right]),
            _insertions(odds, left, False),
            _insertions(odds, right, True),
        )
        for left, right, eps in block_splits(odds, pinned=s)
    )


def cobracket_doubleprime(algebra: AbAlgebra, sym: SymWord, *, delta: Callable) -> Element:
    """Degree-(b-a) cobracket: the word cobracket ``delta`` on one factor,
    the other factors split two ways around it.

    For every factor X_s, every term c P (x) R of delta(X_s) and every
    ordered split (I, J) of the remaining factors this contributes

        c * eps * (-1)^((a-b)(deg_s X_I + deg_s P)) * X_I.P (x) R.X_J

    with eps the block Koszul sign arranging the factors into (I, s, J).
    delta's flip sign -(-1)^(dg U dg V) on V (x) U, times the left words'
    (-1)^((a-b)(deg_s V - deg_s U)), is the symmetric flip sign
    -(-1)^(deg_s U deg_s V + a - b), as deg_s = dg - (a-b); so a - b
    enters only as a parity, in deg_s and in the exponent (a-b)(...).
    Cutting one factor in two lowers deg_s by one more a - b.

    The splits are the :func:`block_splits` entries of the sym's parity
    pattern with X_s pinned, read through a cut plan per (parity pattern,
    s, parity of a - b) (:func:`_cut_plan`) that holds eps with its
    (-1)^((a-b) deg_s X_I), both blocks as bitmasks and their insertion
    tables.  P and R are ranked among the sym's factors once per term of
    delta(X_s) (:func:`_rank`), and (-1)^((a-b) deg_s P) goes on the
    term then.  Each output pair X_I.P (x) R.X_J is two getter calls,
    with the sign of P passing the odd factors of X_I from the end and of
    R passing those of X_J from the front; an odd P or R equal to a
    factor of its block gives nothing.  Loops run cut factor, then split,
    then term, and every pair is added in place by :func:`add_term`'s
    rule, so terms, their order and their coefficient types are those of
    inserting P and R split by split.
    """
    amb = algebra.a - algebra.b
    t = amb & 1
    odds = _parities(amb, sym)
    acc: dict = {}
    get = acc.get
    for s, xs in enumerate(sym):
        terms = delta(xs).terms
        if not terms:
            continue
        # per term: sym + (P,), P's rank, the bit of an equal factor if P is
        # odd, P's parity, the same for R, and c (-1)^((a-b) deg_s P)
        ranked = []
        for (p, r), c in terms.items():
            p_odd = (word_degree(p) - amb) & 1
            r_odd = (word_degree(r) - amb) & 1
            p_rank, p_eq = _rank(sym, p)
            r_rank, r_eq = _rank(sym, r)
            ranked.append((
                sym + (p,), p_rank, 1 << p_eq if p_odd and p_eq >= 0 else 0, p_odd,
                sym + (r,), r_rank, 1 << r_eq if r_odd and r_eq >= 0 else 0, r_odd,
                -c if t & p_odd else c,
            ))
        for neg, left_mask, right_mask, left_inserts, right_inserts in _cut_plan(odds, s, t):
            for sym_p, p_rank, p_bit, p_odd, sym_r, r_rank, r_bit, r_odd, c in ranked:
                if p_bit & left_mask or r_bit & right_mask:
                    continue
                get_left, passed_left = left_inserts[p_rank]
                get_right, passed_right = right_inserts[r_rank]
                if neg ^ (p_odd & passed_left) ^ (r_odd & passed_right):
                    c = -c
                pair = (get_left(sym_p), get_right(sym_r))
                old = get(pair)
                if old is None:  # add_term's rule, in place
                    if type(c) is not int:
                        c = _coeff(c)
                    if c:
                        acc[pair] = c
                else:
                    old = old + c
                    if old:
                        acc[pair] = old if type(old) is int else _coeff(old)
                    else:
                        del acc[pair]
    return Element(acc)


def _oracle_splits(degs: list[int], sizes, pinned: int | None = None):
    """The oracles' own enumeration of ordered factor splits.

    Yields ``(left, right, eps)`` for every block ``left`` of a size in
    ``sizes`` chosen from the positions other than ``pinned``, with
    ``right`` the positions left over and ``eps`` the Koszul sign, in
    ``degs``, of the arrangement left, pinned (if given), right.  Written
    apart from :func:`block_splits`, the production enumerator the
    oracles cross-check.
    """
    n = len(degs)
    others = [i for i in range(n) if i != pinned]
    for r in sizes:
        for left in itertools.combinations(others, r):
            right = tuple(i for i in others if i not in left)
            sigma = [0] * n
            for rank, i in enumerate(left):
                sigma[i] = rank
            after = r
            if pinned is not None:
                sigma[pinned] = r
                after += 1
            for rank, j in enumerate(right, start=after):
                sigma[j] = rank
            yield left, right, koszul_sign(degs, sigma)


def _direct_cobracket(sym: SymWord, t: int) -> Element:
    """The directly coded cobracket of a sym in the grading d = dg - t,
    t the parity of a - b.

    For each factor X_s, each cut X_s = u v into nonempty words and each
    ordered split (I, J) of the other factors, eps the Koszul sign in d
    of the arrangement I, s, J, it adds

        c0 X_I.u (x) v.X_J + c0 (-1)^(du dv + 1 - t) X_I.v (x) u.X_J,
        c0 = eps (-1)^(t (d X_I + du)).

    Only the parity of a - b matters: deg_s = dg - (a - b) has the
    parity of d, so every Koszul sign is the same in both gradings, and
    every other exponent of delta'' is (a - b)(...).  The flipped sign is
    the word cobracket's -(-1)^(dg u dg v) times the left word's
    (-1)^(t (dv - du)), which is (-1)^(du dv + 1 - t) as dg = d + t:
    -(-1)^(du dv) for Poisson (t = 0), (-1)^(du dv) for Gerstenhaber
    (t = 1).  Cuts and signs are its own, through :func:`_oracle_splits`
    and :func:`_normalize_with`, never a word cobracket or
    :func:`block_splits`.
    """
    deg = lambda w: word_degree(w) - t
    degs = [deg(w) for w in sym]
    acc = Element.zero()
    for s, xs in enumerate(sym):
        if len(xs) < 2:  # no cut: spare the split enumeration
            continue
        for left, right, eps in _oracle_splits(degs, range(len(sym)), pinned=s):
            fac_left = tuple(sym[i] for i in left)
            fac_right = tuple(sym[j] for j in right)
            eps *= sign(t * sum(degs[i] for i in left))
            for cut in range(1, len(xs)):
                u, v = xs[:cut], xs[cut:]
                du, dv = deg(u), deg(v)
                c0 = eps * sign(t * du)
                acc = acc + _pair_with(deg, fac_left + (u,), (v,) + fac_right, c0)
                acc = acc + _pair_with(
                    deg, fac_left + (v,), (u,) + fac_right, c0 * sign(du * dv + 1 - t)
                )
    return acc


def kappa(algebra: AbAlgebra, sym: SymWord) -> Element:
    """The direct cobracket of the Gerstenhaber specialization (odd a - b),
    in the grading dg - 1: an oracle for :func:`cobracket_doubleprime`."""
    return _direct_cobracket(sym, 1)


def poisson_cobracket(algebra: AbAlgebra, sym: SymWord) -> Element:
    """The direct cobracket of the Poisson specialization (even a - b), in
    the plain dg grading: an oracle for :func:`cobracket_doubleprime`."""
    return _direct_cobracket(sym, 0)


def _pair_with(deg_of, left, right, coeff) -> Element:
    sl, wl = _normalize_with(deg_of, left)
    if wl is None:
        return Element.zero()
    sr, wr = _normalize_with(deg_of, right)
    if wr is None:
        return Element.zero()
    return Element.of((wl, wr), coeff * sl * sr)


# -- equality modulo shuffles ----------------------------------------------


def sym_normal_form(algebra: AbAlgebra, v: Element) -> Element:
    """Rewrite every factor of every SymWord to its :data:`QUOTIENT` normal form."""
    return v.map_basis(lambda sym: _nf_sym_word(algebra, sym))


def _nf_sym_word(algebra: AbAlgebra, sym: SymWord) -> Element:
    """The factors' normal forms, their tensor product re-sorted into syms."""
    acc: dict = {}
    for factors, c in tensor_power(Element.of(sym), QUOTIENT.normal_form_word).terms.items():
        s, out = normalize(algebra, factors)
        if out is not None:
            add_term(acc, out, c * s)
    return Element(acc)


def sym_tensor_normal_form(algebra: AbAlgebra, v: Element) -> Element:
    """Every sym of every tuple of ``v`` rewritten by :func:`sym_normal_form`."""
    return tensor_power(v, lambda sym: _nf_sym_word(algebra, sym))
