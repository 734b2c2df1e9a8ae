"""Exact free modules over the rationals.

An :class:`Element` is a finite formal linear combination of hashable
basis objects with rational coefficients.  A coefficient enters as an
``int`` when it is integral and as a ``fractions.Fraction`` otherwise,
so signs, shuffle counts, shuffle-quotient coordinates and integral
structure constants stay in integer arithmetic; fractions come only
from rational structure constants (builtin or user-supplied) and from
the row reduction of :class:`ReducedBasis`, which the package keeps as
an independent oracle for the shuffle quotient, off the verifier's
path.  Equal values compare and hash equal whatever their type.  Zero
coefficients are never stored, so equality of elements is equality of
the underlying mappings.  Basis objects only need to be hashable; for
deterministic output and row reduction a sort key is supplied
externally (nested tuples of strings/ints throughout this package).

Loops that build a result term by term accumulate into one private
dict through :func:`add_term` and wrap it once at the end, instead of
copying a partial sum per term.

Row reduction is the plain sparse reduced-echelon algorithm over Q with
first-nonzero pivoting; over an exact field nothing cleverer is needed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator

Scalar = int | Fraction


def _coeff(c) -> Scalar:
    """The stored form of a rational: ``int`` when integral, else ``Fraction``."""
    if type(c) is int:
        return c
    c = c if isinstance(c, Fraction) else Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Element:
    """Finite linear combination {basis object: nonzero rational}."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms: dict = terms if terms is not None else {}

    @staticmethod
    def zero() -> "Element":
        return Element()

    @staticmethod
    def of(basis: Hashable, coeff=1) -> "Element":
        c = _coeff(coeff)
        return Element({basis: c}) if c else Element()

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Hashable, Scalar]]) -> "Element":
        acc: dict = {}
        for b, c in pairs:
            add_term(acc, b, c)
        return Element(acc)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, basis) -> Scalar:
        return self.terms.get(basis, 0)

    def items(self) -> Iterator[tuple[Hashable, Scalar]]:
        return iter(self.terms.items())

    def sorted_items(self, key: Callable | None = None):
        if key is None:
            return sorted(self.terms.items(), key=lambda kv: repr(kv[0]))
        return sorted(self.terms.items(), key=lambda kv: key(kv[0]))

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        if not self.terms:
            return Element(dict(other.terms))
        acc = dict(self.terms)
        for b, c in other.terms.items():
            add_term(acc, b, c)
        return Element(acc)

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        acc = dict(self.terms)
        for b, c in other.terms.items():
            add_term(acc, b, -c)
        return Element(acc)

    def scale(self, coeff) -> "Element":
        c = _coeff(coeff)
        if not c:
            return Element()
        terms = {b: v * c for b, v in self.terms.items()}
        if c != 1 and c != -1:
            # a stored Fraction is never integral, so only a factor other
            # than a sign can make a product integral
            for b, v in terms.items():
                if type(v) is not int and v.denominator == 1:
                    terms[b] = v.numerator
        return Element(terms)

    def map_basis(self, f: Callable[[Hashable], "Element"]) -> "Element":
        """Linear extension of a basis map f: basis -> Element."""
        acc: dict = {}
        for b, c in self.terms.items():
            for b2, c2 in f(b).terms.items():
                add_term(acc, b2, c * c2)
        return Element(acc)

    def __repr__(self) -> str:
        return f"Element({format_element(self)})"


def add_term(acc: dict, basis, coeff) -> None:
    """Add ``coeff * basis`` into an accumulator dict in place.

    ``acc`` maps basis objects to nonzero coefficients; a sum that
    reaches zero removes its key and an integral sum is stored as
    ``int``, so ``Element(acc)`` is valid at any point.
    """
    c = acc.get(basis)
    if c is None:
        if type(coeff) is not int:
            coeff = _coeff(coeff)
        if coeff:
            acc[basis] = coeff
    else:
        c = c + coeff
        if c:
            acc[basis] = c if type(c) is int else _coeff(c)
        else:
            del acc[basis]


def bilinear(f: Callable, ex: Element, ey: Element) -> Element:
    """Bilinear extension of a basis-level binary map f(b1, b2) -> Element."""
    acc: dict = {}
    for b1, c1 in ex.terms.items():
        for b2, c2 in ey.terms.items():
            k = c1 * c2
            for b, c in f(b1, b2).terms.items():
                add_term(acc, b, c * k)
    return Element(acc)


def format_element(v: Element, render: Callable = str, key: Callable | None = None) -> str:
    """Deterministic human-readable form, e.g. ``2*ab - 1/3*ba``."""
    if v.is_zero():
        return "0"
    parts = []
    for b, c in v.sorted_items(key):
        text = render(b)
        mag = abs(c)
        body = text if mag == 1 else f"{mag}*{text}"
        parts.append(("- " if c < 0 else "+ ") + body)
    joined = " ".join(parts)
    return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]


class ReducedBasis:
    """Reduced echelon basis of the span of a family of Elements.

    Pivot of a vector = its smallest basis object under ``key``; pivots
    are normalized to coefficient 1 and eliminated from every other
    vector, so tails contain no pivots and :meth:`reduce` is one pass.
    The reduced basis depends only on the span (and ``key``), not on the
    input order.

    Rows are private term dicts, cleared in place when a new pivot
    arrives; :meth:`basis` hands out copies, so no Element a caller
    holds ever changes under a later :meth:`insert`.
    """

    def __init__(self, vectors: Iterable[Element], key: Callable):
        self.key = key
        self._rows: dict = {}  # pivot basis object -> term dict (pivot coeff 1)
        for v in vectors:
            self.insert(v)

    def _pivot_of(self, v: Element):
        return min(v.terms, key=self.key)

    def insert(self, v: Element) -> None:
        r = self.reduce(v)
        if r.is_zero():
            return
        pivot = self._pivot_of(r)
        new = r.scale(Fraction(1) / r.coefficient(pivot)).terms
        # keep reduced form: clear the new pivot from existing tails
        for row in self._rows.values():
            c = row.get(pivot)
            if c:
                for b, x in new.items():
                    add_term(row, b, -(x * c))
        self._rows[pivot] = new

    def reduce(self, v: Element) -> Element:
        """Normal form of v modulo the span; zero iff v lies in the span."""
        if v.is_zero() or not self._rows:
            return v
        acc = dict(v.terms)
        for b in [b for b in acc if b in self._rows]:
            c = acc.get(b)
            if not c:
                continue
            for b2, c2 in self._rows[b].items():
                add_term(acc, b2, -c * c2)
        return Element(acc)

    def contains(self, v: Element) -> bool:
        return self.reduce(v).is_zero()

    def dimension(self) -> int:
        return len(self._rows)

    def basis(self) -> list[Element]:
        return [Element(dict(self._rows[p])) for p in sorted(self._rows, key=self.key)]
