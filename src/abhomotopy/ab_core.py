"""Graded algebras with a commutative product and a compatible bracket.

An :class:`AbAlgebra` is a finitely truncated graded vector space with a
degree-``a`` commutative associative product, a degree-``b`` Lie
bracket linked to it by a graded Leibniz identity, and a degree-1
differential.  (a, b) = (0, -1) is the Gerstenhaber case, (0, 0) the
graded Poisson case.

Structure maps are total on generator pairs inside the retained basis;
anything escaping the basis raises :class:`TruncationOverflow`.  One
loop, :func:`sweep`, holds the rule for it and turns a run of a law into
a :class:`CheckRecord`, the one record type of every report: an input
that overflows is counted as a skip, never as a pass, the first failing
input ends the sweep with its witness, and the record counts the inputs
evaluated and skipped.  The identity rows of ``suites`` and the
structure axioms both run on it; :func:`check_ab_axioms` is a table of
(axiom, arity, law) mapped through it, with one ``symmetry`` factory for
commutativity and antisymmetry and one ``derivation`` factory for d over
the product and the bracket.  :func:`degree_homogeneity` is the one
producer of the ``degree-homogeneity`` record.

On the shifted grading dg = |.| + a - 1 the product and differential
both have degree 1 and the bracket has degree b - a + 1:

    mu(x, y)  = (-1)^dg(x) * (x . y)
    ell(x, y) = (-1)^((b-a+1) dg(x)) * [x, y]

``mu`` and the differential extend to tensor words as the coderivation
``D`` of the deconcatenation cobracket; ``ell`` extends to the unique
compatible bracket ``ell2`` on words (a signed sum over shuffles that
contract one adjacent cross pair).  Two structurally different
evaluators of ell2 are provided, the second an oracle.  Both choose the
contracted pair first and skip a pair whose bracket is zero (on the
builtins, most pairs); they differ in how they build and sign a term.
:func:`ell2` reads a plan per shape and parity pattern, built from
the shuffle layer's interleaving rows and signs: per contracted pair
one flat getter builds every output word and a tuple holds their signs,
so its terms come in the order of a pair-first walk.  The plans are
this module's one process-wide table, a builder under
``functools.cache`` keyed by shape and parities alone, so every algebra
and mutant shares them.  :func:`ell2_oracle` signs each term by
counting swaps, calls no cached builder and promises no order.  The
signed forms ell2' and ell2'' live in ``suites.RunContext.maps``.

Structure constants are cached per algebra with integral values stored
as ``int``, so every map built from them runs in integer arithmetic
unless an instance supplies a genuine fraction.  The shifted constants
``mu`` and ``ell`` are cached beside them, so the sign is applied once
per generator pair, not once per use.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import re
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable

from .freemodule import Element, add_term, bilinear, format_element
from .signs import enumerate_shuffles, inverse, koszul_sign_by_swaps, sign
from .tensor_coalgebra import LETTER_DEGREES, Generator, Word, interleaving_rows, interleaving_signs, word_degree


class TruncationOverflow(Exception):
    """A structure map left the retained basis; the check is inconclusive.

    Its message names the map and the generator ids it was called on.
    :class:`AbAlgebra` keeps the message of each overflow of its maps, and
    a later lookup of the same key raises a new exception with that
    message, without calling the map again.
    """


@dataclass
class AbAlgebra:
    """Graded (a,b)-algebra on an explicit finite generator basis.

    ``product_fn``/``bracket_fn``/``diff_fn`` act on generator ids and
    return Elements over :class:`Generator`; they may raise
    :class:`TruncationOverflow`.  Generators carry the shifted degree
    dg = |.| + a - 1; ``unshifted`` keeps the original grading.

    One per-instance cache, keyed by (map name, generator ids), holds
    the structure constants (``product``, ``bracket``, ``differential``)
    and the shifted constants (``mu``, ``ell``).  A second table, keyed
    the same way, holds the message of each :class:`TruncationOverflow`
    that a structure map raised.  The structure constants are filled by
    one method, which runs the degree check or remembers the overflow; a
    shifted constant is filled from :meth:`product`/:meth:`bracket`, so
    the instance's map is called exactly once per pair either way, also
    on a pair that leaves the basis.  A mutant
    (:func:`~abhomotopy.suites.perturb_algebra`) is a
    :func:`dataclasses.replace` copy with one structure map replaced.
    Both tables and ``degree_violations`` are made by ``__init__``, never
    passed in, so every instance, a copy too, starts them empty and owns
    them: a mutant never sees its parent's values or overflows, and its
    parent never sees its violations.  Cached Elements are shared:
    callers must not mutate them.
    """

    name: str
    a: int
    b: int
    generators: tuple[Generator, ...]
    unshifted: dict[str, int]
    product_fn: Callable[[str, str], Element]
    bracket_fn: Callable[[str, str], Element]
    diff_fn: Callable[[str], Element]
    degree_violations: list[str] = field(default_factory=list, init=False)

    def __post_init__(self):
        self._by_id = {g.gid: g for g in self.generators}
        self._cache: dict = {}  # (map name, *generator ids) -> Element
        self._overflows: dict = {}  # (map name, *generator ids) -> TruncationOverflow message

    # -- basis ---------------------------------------------------------

    def gen(self, gid: str) -> Generator:
        return self._by_id[gid]

    def udeg(self, g: Generator) -> int:
        return self.unshifted[g.gid]

    def deg_l(self, w: Word) -> int:
        """Degree on the Lie-side shift: dg - a + b + 1."""
        return word_degree(w) - self.a + self.b + 1

    def deg_s(self, w: Word) -> int:
        """Degree on the symmetric-side shift: dg - a + b."""
        return word_degree(w) - self.a + self.b

    # -- structure maps ------------------------------------------------

    def product(self, g1: Generator, g2: Generator) -> Element:
        key = ("product", g1.gid, g2.gid)
        out = self._cache.get(key)
        return self._fill(key, self.product_fn, self.a) if out is None else out

    def bracket(self, g1: Generator, g2: Generator) -> Element:
        key = ("bracket", g1.gid, g2.gid)
        out = self._cache.get(key)
        return self._fill(key, self.bracket_fn, self.b) if out is None else out

    def differential(self, g: Generator) -> Element:
        key = ("differential", g.gid)
        out = self._cache.get(key)
        return self._fill(key, self.diff_fn, 1) if out is None else out

    def _fill(self, key: tuple, fn: Callable, op_degree: int) -> Element:
        """Cache the instance's value of a structure map on generator ids,
        recording every output generator off the expected degree.

        The value goes through Element.from_terms, which stores integral
        coefficients as int whatever type the instance returned.  If the
        map raises :class:`TruncationOverflow`, its message is kept in
        ``_overflows`` and the exception goes on; a later fill of the same
        key raises a new one with that message and calls no map.  Only
        the message is kept: raising one exception object again and again
        would lengthen its traceback and keep its frames alive.  An
        overflow records no degree violation.
        """
        msg = self._overflows.get(key)
        if msg is not None:
            raise TruncationOverflow(msg)
        op, *gids = key
        try:
            value = fn(*gids)
        except TruncationOverflow as exc:
            self._overflows[key] = str(exc)
            raise
        out = Element.from_terms(value.items())
        expected = sum(self.unshifted[gid] for gid in gids) + op_degree
        for g, _ in out.items():
            deg = self.unshifted.get(g.gid)
            if deg != expected:
                msg = f"{op}{tuple(gids)} -> {g.gid} has degree {deg}, expected {expected}"
                if msg not in self.degree_violations:
                    self.degree_violations.append(msg)
        self._cache[key] = out
        return out

    # -- shifted operations --------------------------------------------

    def mu(self, g1: Generator, g2: Generator) -> Element:
        """Shifted product, degree 1 in dg."""
        key = ("mu", g1.gid, g2.gid)
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = self.product(g1, g2).scale(sign(g1.deg))
        return out

    def ell(self, g1: Generator, g2: Generator) -> Element:
        """Shifted bracket, degree b - a + 1 in dg."""
        key = ("ell", g1.gid, g2.gid)
        out = self._cache.get(key)
        if out is None:
            twist = sign((self.b - self.a + 1) * g1.deg)
            out = self._cache[key] = self.bracket(g1, g2).scale(twist)
        return out


@dataclass
class Coderivation:
    """Coderivation of the deconcatenation cobracket on tensor words.

    Determined by its Taylor coefficients: ``taylor[r]`` maps an
    r-letter word to an Element of generators, all of the same
    ``degree``.  Applied to a word it substitutes each coefficient in
    place with the Koszul prefix sign.
    """

    degree: int
    taylor: dict[int, Callable[[Word], Element]]

    def __call__(self, w: Word) -> Element:
        n = len(w)
        acc: dict = {}
        odd = self.degree % 2
        for r, fn in self.taylor.items():
            prefix_odd = 0  # parity of the degree of w[:j]
            for j in range(n - r + 1):
                sgn = -1 if odd and prefix_odd else 1
                val = fn(w[j : j + r])
                for g, c in val.terms.items():
                    add_term(acc, w[:j] + (g,) + w[j + r :], c * sgn)
                prefix_odd ^= w[j].deg % 2
        return Element(acc)

    def on_element(self, v: Element) -> Element:
        return v.map_basis(self.__call__)


def coderivation_D(algebra: AbAlgebra) -> Coderivation:
    """The full codifferential D (differential plus shifted product)."""
    return Coderivation(
        1,
        {
            1: lambda w: algebra.differential(w[0]),
            2: lambda w: algebra.mu(w[0], w[1]),
        },
    )


# -- the bracket extension to words -------------------------------------


def _contraction(p: int, q: int, r: int, s: int, bma1_odd: int, odd: tuple) -> tuple[Callable, tuple]:
    """The word getter and the signs of contracting x_r with y_s.

    The getter reads ``x + y + (g,)``, g a letter of the bracket, and
    returns every output word pre.g.post back to back, with pre an
    interleaving of ``x[:r]`` and ``y[:s]`` and post one of ``x[r+1:]``
    and ``y[s+1:]``, pre outer and post inner.  Both come from the shuffle
    layer's interleaving rows and signs of their shape, mapped through
    their index runs into ``x + y``.  A word's sign is the two
    interleavings' signs times the block sign
    (-1)^(|x_r| |y[:s]| + |x[r+1:]| |y[:s+1]| + (b-a+1) |pre|).
    """
    def odd_sum(idx) -> int:
        return sum(odd[i] for i in idx) & 1

    ys = range(p, p + s)
    block = (odd[r] & odd_sum(ys)) ^ (odd_sum(range(r + 1, p)) & odd_sum(range(p, p + s + 1)))
    block ^= bma1_odd & (odd_sum(range(r)) ^ odd_sum(ys))
    parts = []
    for xi, yi in ((range(r), ys), (range(r + 1, p), range(p + s + 1, p + q))):
        run = (*xi, *yi)
        rows = [[run[k] for k in row] for row in interleaving_rows(len(xi), len(yi))]
        parts.append((rows, interleaving_signs(len(xi), len(yi), tuple([odd[i] for i in run]))))
    (pres, pre_signs), (posts, post_signs) = parts
    flat = [i for pre in pres for post in posts for i in (*pre, p + q, *post)]
    # one index (x and y single letters) would make itemgetter return a letter, not a word
    get = operator.itemgetter(*flat) if len(flat) > 1 else operator.itemgetter(slice(flat[0], flat[0] + 1))
    signs = tuple(-e1 * e2 if block else e1 * e2 for e1 in pre_signs for e2 in post_signs)
    return get, signs


@functools.cache
def _ell2_plan(p: int, q: int, bma1_odd: int, odd: tuple) -> tuple:
    """Per contracted letter pair (r, s), in (r, s) order, its word getter
    and signs (:func:`_contraction`), for words of lengths p and q whose
    letters have the parities ``odd`` and (b - a + 1) mod 2 = ``bma1_odd``."""
    return tuple(_contraction(p, q, r, s, bma1_odd, odd) for r in range(p) for s in range(q))


def ell2(algebra: AbAlgebra, x: Word, y: Word) -> Element:
    """Compatible bracket of two words, degree b - a + 1 in dg.

    Signed sum over all shuffles of the two words and all adjacent
    output positions where a letter of ``x`` immediately precedes a
    letter of ``y``; that pair is contracted with ``ell``, which moves
    past the letters before it at the cost (-1)^((b-a+1) * their dg).

    Enumerated pair first, in (r, s) order: for each letter pair
    (x_r, y_s) with ``ell(x_r, y_s)`` nonzero, the shuffles that put x_r
    right before y_s are an interleaving of ``x[:r]`` and ``y[:s]``, the
    pair, and an interleaving of ``x[r+1:]`` and ``y[s+1:]``.  Their
    Koszul sign is the two interleavings' signs times the closed-form
    block sign (-1)^(|x_r| |y[:s]| + |x[r+1:]| |y[:s+1]|): the y letters
    of the first part pass x[r:], and y_s passes x[r+1:].

    Every bracket ``ell(x_r, y_s)`` is looked up first, in (r, s) order,
    so a :class:`TruncationOverflow` is raised at the same pair as a
    term-by-term walk would raise it, before any word is built.  A pair
    with zero bracket costs that lookup alone.  The words and signs come
    from a plan cached per shape, parity of b - a + 1 and letter parities
    (:func:`_ell2_plan`): per pair, one flat getter builds every word
    pre.g.post of a bracket letter g in one call.  Terms come in walk
    order: pair, then pre, then post, then the bracket's letters.  The
    words go into one dict; only when two coincide (a repeated letter,
    or two pairs giving one word) are all terms added up again through
    :func:`add_term` in walk order, so the result, its term order and
    its coefficient types are those of the walk.
    """
    ell = algebra.ell
    vals = [ell(g, h).terms for g in x for h in y]
    if not any(vals):
        return Element()
    xy = x + y
    p, q = len(x), len(y)
    odd = tuple([g.deg & 1 for g in xy])
    bma1_odd = (algebra.b - algebra.a + 1) & 1
    n = p + q - 1
    words: list = []
    coefs: list = []
    for terms, (get, signs) in zip(vals, _ell2_plan(p, q, bma1_odd, odd)):
        if not terms:
            continue
        if len(terms) == 1:
            ((g, c),) = terms.items()
            words += zip(*[iter(get(xy + (g,)))] * n)
            coefs += signs if c == 1 else [c * e for e in signs]
        else:  # the bracket's letters innermost, as the walk adds them
            per_letter = [zip(*[iter(get(xy + (g,)))] * n) for g in terms]
            words += [w for ws in zip(*per_letter) for w in ws]
            coefs += [c * e for e in signs for c in terms.values()]
    d = dict(zip(words, coefs))
    if len(d) == len(words):
        return Element(d)
    acc: dict = {}
    for w, c in zip(words, coefs):
        add_term(acc, w, c)
    return Element(acc)


def ell2_oracle(algebra: AbAlgebra, x: Word, y: Word) -> Element:
    """Independent evaluator of the same bracket extension.

    Chooses the contracted letter pair first, interleaves what precedes
    and follows it by the positions :func:`enumerate_shuffles` lists,
    and recovers each term's sign from the full permutation via the
    adjacent-transposition sign oracle, counting swaps over the whole
    rearrangement.  Shares no code with :func:`ell2`, which enumerates
    the same pairs but reads each term's word and sign from a plan built
    from the shuffle layer's interleaving tables: the signs of the parts
    before and after the pair, times a block sign read off degree
    parities.  This oracle calls no cached builder.
    """
    p, q = len(x), len(y)
    letters = x + y
    degs = [g.deg for g in letters]
    bma1 = algebra.b - algebra.a + 1
    # index words: letters tagged by original position, so repeated
    # generators stay distinguishable while tracking the permutation
    idx = tuple(Generator(str(i), degs[i]) for i in range(p + q))

    def interleavings(u: tuple, v: tuple):
        if not (u and v):
            return [u + v]
        both = u + v
        return [
            tuple(both[i] for i in inverse(sigma))
            for sigma in enumerate_shuffles(len(u), len(v))
        ]

    acc = Element.zero()
    for r in range(p):
        for s in range(q):
            val = algebra.ell(x[r], y[s])
            if val.is_zero():
                continue
            for pre in interleavings(idx[:r], idx[p : p + s]):
                for post in interleavings(idx[r + 1 : p], idx[p + s + 1 :]):
                    out_idx = pre + (idx[r], idx[p + s]) + post
                    sigma = [0] * (p + q)
                    for pos, g in enumerate(out_idx):
                        sigma[int(g.gid)] = pos
                    sgn = koszul_sign_by_swaps(degs, sigma)
                    sgn *= sign(bma1 * sum(g.deg for g in pre))
                    left = tuple(letters[int(g.gid)] for g in pre)
                    right = tuple(letters[int(g.gid)] for g in post)
                    for g, c in val.items():
                        acc = acc + Element.of(left + (g,) + right, c * sgn)
    return acc


# -- checks and their records ------------------------------------------------


@dataclass
class CheckRecord:
    """One check's line in a report: its name, the statement it checks,
    the instance it ran on, its status, how many inputs it evaluated and
    skipped, and the witness of a fail or the reason for a skip."""

    check: str
    statement: str
    instance: str
    status: str  # pass | fail | skip
    evaluated: int = 0
    skipped: int = 0
    witness: str = ""

    def as_dict(self) -> dict:
        return asdict(self)


def sweep(
    check: str,
    statement: str,
    instance: str,
    inputs: Iterable,
    law: Callable[[Any], tuple[bool, Any]],
    render: Callable[[Any], str],
) -> CheckRecord:
    """The record of check ``check`` on ``instance``: ``law(input) -> (ok,
    detail)`` evaluated on each input in turn.

    An input on which a map raises :class:`TruncationOverflow` is skipped,
    not evaluated, so a skip never counts as a pass.  The first input
    whose law does not hold ends the sweep with a ``fail`` whose witness
    is ``at {render(input)}: {detail}``; later inputs are not drawn.  If
    every evaluated input held the record is a ``pass``, and if none was
    evaluated a ``skip`` that says why: every input escaped the
    truncation, or there was none.  Either way the record counts the
    inputs evaluated and skipped.

    This is the one place a status is read off a run of a law.  Every
    identity check runs through here: the rows of ``suites.CHECKS``, the
    structure axioms of :func:`check_ab_axioms` and the cyclic closure of
    ``instances.check_poisson_tensor``.  The tensor's homogeneity and
    symmetry checks stay outside it, as they list every bad entry by
    design, and so does ``suites.run_mutation``, which stops at its first
    failing row and has no skips.
    """
    evaluated = skipped = 0
    for inp in inputs:
        try:
            ok, detail = law(inp)
        except TruncationOverflow:
            skipped += 1
            continue
        evaluated += 1
        if not ok:
            witness = f"at {render(inp)}: {detail}"
            return CheckRecord(check, statement, instance, "fail", evaluated, skipped, witness)
    if evaluated:
        return CheckRecord(check, statement, instance, "pass", evaluated, skipped)
    witness = "every input escaped the truncation" if skipped else "empty input family: no input to evaluate"
    return CheckRecord(check, statement, instance, "skip", 0, skipped, witness)


#: the statement of every structure axiom's record, and of the tensor conditions'
AXIOM_STATEMENT = "defining structure identity, exact on all generator tuples"


def degree_homogeneity(algebras: list[AbAlgebra], checked: bool = True) -> CheckRecord:
    """The ``degree-homogeneity`` record of the structure-table entries the
    checks evaluated on ``algebras``, named after the first of them.

    A ``fail`` names every entry off its expected degree, each once.
    Structure maps record a violation when they are first evaluated, so
    this is read after the checks.  With no violation the record is a
    ``pass``, or a ``skip`` when ``checked`` says that nothing was
    evaluable.  ``Instance.check_structure`` reports it beside the
    axioms; a run without the axioms reports it only when it fails.
    """
    found = list(dict.fromkeys(v for A in algebras for v in A.degree_violations))
    if found:
        status, witness = "fail", "; ".join(found)
    elif checked:
        status, witness = "pass", ""
    else:
        status, witness = "skip", "nothing evaluable at this truncation"
    statement = "every structure-table entry the checks evaluated is degree-homogeneous"
    return CheckRecord("degree-homogeneity", statement, algebras[0].name, status, witness=witness)


def _render_gen_elem(v: Element) -> str:
    return format_element(v, render=lambda g: g.gid, key=lambda g: g.gid)


def _sides(law: Callable[..., tuple[Element, Element]]) -> Callable[[tuple], tuple[bool, str]]:
    """A law on a generator tuple returning (lhs, rhs), as a :func:`sweep` law
    whose detail is both sides, rendered only for a failing tuple."""

    def holds(t: tuple) -> tuple[bool, str]:
        lhs, rhs = law(*t)
        if lhs == rhs:
            return True, ""
        return False, f"lhs = {_render_gen_elem(lhs)}; rhs = {_render_gen_elem(rhs)}"

    return holds


def _render_gen_tuple(t: tuple) -> str:
    return f"({','.join(g.gid for g in t)})"


def check_ab_axioms(algebra: AbAlgebra) -> list[CheckRecord]:
    """Evaluate the defining identities exactly on all generator tuples.

    Eight laws, one table of (axiom, arity, law): graded commutativity,
    associativity, graded antisymmetry, graded Jacobi, Leibniz, and the
    differential's square/product/bracket laws.  A law maps a generator
    tuple to (lhs, rhs).  Laws that differ only in the operation share a
    factory: ``symmetry(op, shift, s)`` for commutativity (s = 1) and
    antisymmetry (s = -1), ``derivation(op, shift)`` for d over the
    product and over the bracket.  Each law is swept by :func:`sweep`
    over ``itertools.product(generators, repeat=arity)`` into one record
    named after the algebra, so a tuple whose evaluation escapes the
    truncated basis is a skip for that law, never a pass, the record
    counts the tuples evaluated and skipped, and the first failing tuple
    is its witness, with both sides.
    """
    A = algebra
    ud = A.udeg
    d = A.differential
    a, b = A.a, A.b

    def symmetry(op: Callable, shift: int, s: int):
        return lambda g1, g2: (op(g1, g2), op(g2, g1).scale(s * sign((ud(g1) + shift) * (ud(g2) + shift))))

    def derivation(op: Callable, shift: int):
        return lambda g1, g2: (
            op(g1, g2).map_basis(d),
            bilinear(op, d(g1), Element.of(g2)) + bilinear(op, Element.of(g1), d(g2)).scale(sign(ud(g1) + shift)),
        )

    def associativity(g1, g2, g3):
        return (
            bilinear(A.product, A.product(g1, g2), Element.of(g3)),
            bilinear(A.product, Element.of(g1), A.product(g2, g3)),
        )

    def jacobi(g1, g2, g3):
        total = Element.zero()
        for x, y, z in ((g1, g2, g3), (g2, g3, g1), (g3, g1, g2)):
            term = bilinear(A.bracket, A.bracket(x, y), Element.of(z))
            total = total + term.scale(sign((ud(x) + b) * (ud(z) + b)))
        return total, Element.zero()

    def leibniz(g1, g2, g3):
        lhs = bilinear(A.bracket, Element.of(g1), A.product(g2, g3))
        rhs = bilinear(A.product, A.bracket(g1, g2), Element.of(g3)) + bilinear(
            A.product, Element.of(g2), A.bracket(g1, g3)
        ).scale(sign((ud(g2) + a) * (ud(g1) + b)))
        return lhs, rhs

    laws = (
        ("product-commutativity", 2, symmetry(A.product, a, 1)),
        ("product-associativity", 3, associativity),
        ("bracket-antisymmetry", 2, symmetry(A.bracket, b, -1)),
        ("bracket-jacobi", 3, jacobi),
        ("leibniz", 3, leibniz),
        ("differential-squared", 1, lambda g: (d(g).map_basis(d), Element.zero())),
        ("differential-product", 2, derivation(A.product, a)),
        ("differential-bracket", 2, derivation(A.bracket, b)),
    )
    return [
        sweep(axiom, AXIOM_STATEMENT, A.name, itertools.product(A.generators, repeat=arity), _sides(law),
              _render_gen_tuple)
        for axiom, arity, law in laws
    ]


# -- loading from structure-constant files -------------------------------


def _integer(value, what: str) -> int:
    if type(value) is not int:  # int() would truncate 0.9 and read true as 1
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _text(value, what: str) -> str:
    if not isinstance(value, str):  # a name is echoed into every record
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


#: a rational written as text: an optional sign, ASCII digits, and optionally
#: a slash and ASCII digits.  ``Fraction`` reads more (decimals, exponents,
#: spaces, digit separators, non-ASCII digits), which the loader and
#: ``instances.parse_poly`` refuse
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _parse_coeff(c, entry) -> Fraction:
    if type(c) is int or type(c) is str and _RATIONAL_RE.fullmatch(c):
        try:
            return Fraction(c)
        except ZeroDivisionError:
            pass
    raise ValueError(f"coefficient {c!r} in table entry {entry!r} is not an integer or a 'num/den' string")


def _field(obj, key: str, what: str):
    """``obj[key]``, or a ``ValueError`` naming ``what`` and the missing field."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    if key not in obj:
        raise ValueError(f"{what} has no {key!r} field")
    return obj[key]


_DOCUMENT_FIELDS = (
    "name", "description", "a", "b", "generators", "product", "bracket", "differential", "max_degree",
)
_GENERATOR_FIELDS = ("id", "degree")


def _known_fields(obj: dict, allowed: tuple[str, ...], what: str) -> None:
    """A ``ValueError`` naming the first field of ``obj`` outside ``allowed``:
    a misspelled field would otherwise be dropped without a word."""
    for key in obj:
        if key not in allowed:
            raise ValueError(f"{what} has an unknown field {key!r}; allowed fields: {', '.join(allowed)}")


def algebra_from_dict(data: dict) -> AbAlgebra:
    """Build an algebra from a structure-constant document.

    Expected shape (coefficients as ints, or strings of an optionally
    signed integer or "num/den" in ASCII digits)::

        {"name": ..., "a": 0, "b": -1,
         "generators": [{"id": "u", "degree": 0}, ...],
         "product":      [["u", "v", [["w", "1"], ...]], ...],
         "bracket":      [...same shape...],
         "differential": [["u", [["v", 1]]], ...],
         "max_degree":   4}          # optional

    An optional ``description`` is checked, not kept: it must be a
    string, and the algebra does not store it.  Missing pair entries mean
    zero; an entry given twice, or one naming an undeclared generator, is
    an error, and so is a document of another shape (a ``ValueError``
    naming the field).  So is a field outside those shown, at the top
    level or in a generator: a misspelled table or bound would otherwise
    load as a zero map or as no truncation.  So is a generator no letter
    can hold: an id with a NUL, or a degree whose shifted degree lies
    outside :data:`~abhomotopy.tensor_coalgebra.LETTER_DEGREES`.  With
    ``max_degree`` set, a missing product/bracket entry whose
    degree-homogeneous output would exceed the bound is treated as a
    truncation overflow instead of zero.
    """
    a = _integer(_field(data, "a", "the algebra document"), "a")
    b = _integer(_field(data, "b", "the algebra document"), "b")
    _known_fields(data, _DOCUMENT_FIELDS, "the algebra document")
    name = _text(data.get("name", "unnamed"), "name")
    generators = _field(data, "generators", "the algebra document")
    if not isinstance(generators, list):
        raise ValueError(f"generators must be a list, got {generators!r}")
    unshifted: dict[str, int] = {}
    gens = []
    for g in generators:
        gid = _text(_field(g, "id", "a generator"), f"id of generator {g!r}")
        _known_fields(g, _GENERATOR_FIELDS, f"generator {gid!r}")
        if gid in unshifted:
            raise ValueError(f"duplicate generator id {gid!r}")
        degree = _integer(_field(g, "degree", f"generator {gid!r}"), f"degree of generator {gid!r}")
        if degree + a - 1 not in LETTER_DEGREES:
            lo, hi = LETTER_DEGREES.start - a + 1, LETTER_DEGREES.stop - a
            raise ValueError(
                f"generator {gid!r}: degree {degree} is outside {lo}..{hi}, the degrees a letter takes at a = {a}"
            )
        unshifted[gid] = degree
        gens.append(Generator(gid, degree + a - 1))
    by_id = {g.gid: g for g in gens}
    max_degree = None if data.get("max_degree") is None else _integer(data["max_degree"], "max_degree")

    def table(op: str, arity: int) -> dict:
        out = {}
        entries = data.get(op, [])
        if not isinstance(entries, list):
            raise ValueError(f"{op} must be a list of table entries, got {entries!r}")
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == arity + 1):
                raise ValueError(f"bad table entry {entry!r}")
            *key, value = entry
            key = [_text(gid, f"an input id of {op} entry {entry!r}") for gid in key]
            if not (isinstance(value, list) and all(isinstance(t, list) and len(t) == 2 for t in value)):
                raise ValueError(f"{op} entry {entry!r} must end in a list of [id, coeff] pairs")
            for gid in key + [_text(gid, f"an output id of {op} entry {entry!r}") for gid, _ in value]:
                if gid not in by_id:
                    raise ValueError(f"unknown generator {gid!r} in table entry {entry!r}")
            if tuple(key) in out:
                raise ValueError(f"duplicate {op} entry for {tuple(key)} in {entry!r}")
            out[tuple(key)] = Element.from_terms(
                (by_id[gid], _parse_coeff(c, entry)) for gid, c in value
            )
        return out

    prod = table("product", 2)
    brk = table("bracket", 2)
    diff = table("differential", 1)

    def lookup(op: str, tbl: dict, op_degree: int):
        def fn(*gids: str) -> Element:
            hit = tbl.get(gids)
            if hit is not None:
                return hit
            if max_degree is not None:
                out_deg = sum(unshifted[g] for g in gids) + op_degree
                if out_deg > max_degree:
                    raise TruncationOverflow(
                        f"{op}({','.join(gids)}) lands in degree {out_deg} > {max_degree}"
                    )
            return Element.zero()

        return fn

    _text(data.get("description", ""), "description")  # checked, not kept
    return AbAlgebra(
        name=name,
        a=a,
        b=b,
        generators=tuple(gens),
        unshifted=unshifted,
        product_fn=lookup("product", prod, a),
        bracket_fn=lookup("bracket", brk, b),
        diff_fn=lookup("differential", diff, 1),
    )


def load_algebra(path: str) -> AbAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_dict(json.load(fh))
