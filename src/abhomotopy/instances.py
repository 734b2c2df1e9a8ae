"""Builtin truncated instances: super polynomials, among them polyvector
fields as functions on T*[1]R^{p|q}.

An instance supplies what an (a,b)-algebra needs: a product, a bracket
and a differential on basis monomials.  Every builtin is one kind of
algebra: super polynomials on graded coordinates, with their graded
product, the Poisson bracket of a tensor omega and the differential
{h, .} of an element h (zero but on gerstenhaber-toy).  One assembly,
``_assemble``, makes the monomials within the truncation the generators
and raises ``TruncationOverflow`` for a result outside them.  Maps on
Elements are ``bilinear``/``map_basis`` extensions of the monomial maps.

Coordinates.  A :class:`Variables` table lists the coordinates in order,
each with its degree; it is the one place a coordinate's degree, parity
and position are read.  A monomial (:class:`SMono`) holds the exponents
of the even coordinates and the increasing positions of the odd ones it
contains; odd coordinates square to zero.  The partial derivative d/dv
moves an odd v to the front (one sign flip per odd coordinate crossed)
and drops it; it is a graded derivation of degree |d_v| = -|v|.

Poisson bracket.  A degree-m bracket is given by a tensor omega^{ij}
over the coordinates:

    {f, g} = (-1)^{m|f|} sum_{i,j} (-1)^{|d_j|(|f|+|d_i|)}
             omega^{ij} d_i(f) d_j(g),

subject to the homogeneity / graded symmetry / cyclic closure
conditions checked by :func:`check_poisson_tensor`.  It is a derivation
of the product in its second slot, {f, gh} = {f, g} h +
(-1)^{(|f|+m)|g|} g {f, h}, and graded antisymmetric, {f, g} =
-(-1)^{(|f|+m)(|g|+m)} {g, f}.

Super polynomials on R^{p|q} have the coordinates x1..xp of degree 2
and xi1..xiq of degree 1 (``SUPER``).

Polyvector fields on R^{p|q} are the functions on T*[1]R^{p|q}: the
coordinates x1..xp, xi1..xiq and then their fibers dx1..dxp,
dxi1..dxiq, the fiber dv standing for d/dv and of the parity opposite
to v's.  So the even coordinates are x1..xp, dxi1..dxiq and the odd
ones xi1..xiq, dx1..dxp, in that order.  The wedge is the product, and
the Schouten bracket is the Poisson bracket of the canonical constant
tensor (:func:`canonical_tensor`)

    omega^{x_i,dx_i} = omega^{dx_i,x_i} = -1,
    omega^{xi_j,dxi_j} = omega^{dxi_j,xi_j} = +1,

every other entry zero.  A monomial prints its base factors joined by
``*`` and then each fiber factor once per power, joined by ``^``, as in
``x1*xi1^dx1^dxi1^dxi1``.  Three gradings (``GRADINGS``), each with its
(a, b):

    tpoly   |x| = 2, |xi| = 1, |dx| = -3, |dxi| = -2           (0, 1)
    double  |x| = 2, |dx| = 1 (q = 0): 2 * coefficient degree
            + rank                                             (0, -3)
    rank    |x| = 0, |dx| = 1 (q = 0): the classical multivector
            grading                                            (0, -1)

Each has b = -|v| - |dv| for every base coordinate v, so the constant
entries are homogeneous.

The signs of omega.  The Schouten bracket is fixed by [dv, v] = 1, the
vector field d/dv applied to the coordinate v, and by vanishing on every
other pair of coordinates: functions commute, constant vector fields
commute, and [dv, w] = 0 for a coordinate w other than v.  In the
formula, {dv, v} has the one term i = dv, j = v, with d_{dv}(dv) =
d_v(v) = 1 and the sign (-1)^{m|dv|} (-1)^{|d_v|(|dv| + |d_{dv}|)} =
(-1)^{m|dv|}, since |dv| + |d_{dv}| = 0.  At m = 1 that sign is -1 for
the odd dx and +1 for the even dxi, so omega^{dx,x} = -1 and
omega^{dxi,xi} = +1 give {dv, v} = 1.  Graded symmetry, omega^{ij} =
(-1)^{|d_i||d_j| + m + 1} omega^{ji}, then gives omega^{v,dv} =
omega^{dv,v}, since one of |v|, |dv| is even and m + 1 is even.  Every
other entry is zero, so the bracket vanishes on the other pairs.  Both
brackets are biderivations of the wedge with the same Leibniz rule and
the same antisymmetry, so, agreeing on pairs of coordinates, they agree
everywhere.  The double and rank gradings (q = 0) give every coordinate,
and b, the parity tpoly gives it.  Every sign exponent above, and every
sign of the product and of the derivatives, reads only parities, so the
one rule omega^{dv,v} = omega^{v,dv} = (-1)^{b|dv|} serves all three.

``vf_bracket_oracle`` is the independent composition formula for plain
vector fields that pins down the overall sign convention.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .ab_core import (_RATIONAL_RE, AXIOM_STATEMENT, AbAlgebra, CheckRecord, TruncationOverflow, _integer,
                      check_ab_axioms, degree_homogeneity, sweep)
from .freemodule import Element, add_term, bilinear, format_element
from .signs import sign
from .tensor_coalgebra import Generator


# -- coordinates and monomials ------------------------------------------------


class Variables:
    """Graded coordinates, in the order monomials print them.

    ``degrees`` maps each name to its degree; its parity makes the
    coordinate even or odd.  ``slot`` maps each name to (parity,
    position), the position 1-based among the coordinates of that
    parity, in order.
    """

    def __init__(self, degrees: dict[str, int]):
        self.degrees = degrees
        self.even = [v for v, d in degrees.items() if d % 2 == 0]
        self.odd = [v for v, d in degrees.items() if d % 2]
        self.slot = {v: (0, k) for k, v in enumerate(self.even, start=1)}
        self.slot.update({v: (1, k) for k, v in enumerate(self.odd, start=1)})


def variables(p: int, q: int, kinds: dict[str, int]) -> Variables:
    """The coordinates of each kind ``kinds`` names, in its order and of
    its degree: x1..xp, xi1..xiq, dx1..dxp or dxi1..dxiq."""
    count = {"x": p, "xi": q, "dx": p, "dxi": q}
    return Variables(
        {f"{kind}{k}": d for kind, d in kinds.items() for k in range(1, count[kind] + 1)}
    )


SUPER = {"x": 2, "xi": 1}  # super polynomials on R^{p|q}

# polyvectors on R^{p|q}: coordinate degrees, a, b; double and rank take q = 0
GRADINGS = {
    "tpoly": ({"x": 2, "xi": 1, "dx": -3, "dxi": -2}, 0, 1),
    "double": ({"x": 2, "dx": 1}, 0, -3),
    "rank": ({"x": 0, "dx": 1}, 0, -1),
}


class SMono(NamedTuple):
    even: tuple[int, ...]  # exponents of the even coordinates
    odd: tuple[int, ...]  # strictly increasing positions of odd coordinates, 1-based


def smono_one(n_even: int) -> SMono:
    return SMono((0,) * n_even, ())


def smono_degree(V: Variables, m: SMono) -> int:
    return sum(e * V.degrees[v] for e, v in zip(m.even, V.even)) + sum(
        V.degrees[V.odd[k - 1]] for k in m.odd
    )


def _factors(V: Variables, m: SMono):
    """(name, exponent) of each coordinate in ``m``, in the order of ``V``."""
    for v in V.degrees:
        odd, k = V.slot[v]
        e = int(k in m.odd) if odd else m.even[k - 1]
        if e:
            yield v, e


def smono_str(V: Variables, m: SMono) -> str:
    """``x1^2*xi1``; fiber factors follow the base factors, each once per
    power and joined by ``^``, as in ``x1*xi1^dx1^dxi1^dxi1``."""
    base, fiber = [], []
    for v, e in _factors(V, m):
        if v.startswith("d"):
            fiber += [v] * e
        else:
            base.append(v if e == 1 else f"{v}^{e}")
    return "^".join((["*".join(base)] if base else []) + fiber) or "1"


def _merge_strict(t1: tuple[int, ...], t2: tuple[int, ...]):
    """Merge two strictly increasing index tuples of odd letters.

    Returns (sign, merged) with one sign flip per crossing, or
    (0, None) when an index repeats.
    """
    if set(t1) & set(t2):
        return 0, None
    crossings = sum(1 for a in t1 for b in t2 if a > b)
    return sign(crossings), tuple(sorted(t1 + t2))


def smono_mul(m1: SMono, m2: SMono):
    """Graded product of monomials: (sign, monomial) or (0, None)."""
    s, odd = _merge_strict(m1.odd, m2.odd)
    if odd is None:
        return 0, None
    even = tuple(a + b for a, b in zip(m1.even, m2.even))
    return s, SMono(even, odd)


def sderiv(slot: tuple[int, int], m: SMono):
    """Partial derivative of a monomial: (coefficient, monomial) or (0, None).

    ``slot`` is the coordinate's (parity, position), as ``Variables.slot``
    gives it.
    """
    odd, k = slot
    if not odd:
        e = m.even[k - 1]
        if e == 0:
            return 0, None
        even = m.even[: k - 1] + (e - 1,) + m.even[k:]
        return e, SMono(even, m.odd)
    if k not in m.odd:
        return 0, None
    crossed = sum(1 for t in m.odd if t < k)
    return sign(crossed), SMono(m.even, tuple(t for t in m.odd if t != k))


def _term(pair) -> Element:
    """The Element of a monomial-level ``(coefficient, monomial)`` result;
    ``(0, None)`` gives zero."""
    c, m = pair
    return Element.of(m, c)


def poly_mul(e1: Element, e2: Element) -> Element:
    return bilinear(lambda m1, m2: _term(smono_mul(m1, m2)), e1, e2)


def poly_deriv(slot: tuple[int, int], e: Element) -> Element:
    return e.map_basis(lambda m: _term(sderiv(slot, m)))


_FACTOR_RE = re.compile(r"^([a-z]+\d+)(?:\^(\d+))?$")


def _coordinate(V: Variables, name: str, power: int) -> SMono:
    """The monomial name^power; an odd coordinate's power is 0 or 1."""
    odd, k = V.slot[name]
    if odd:
        return SMono((0,) * len(V.even), (k,) * power)
    return SMono(tuple(power if i == k else 0 for i in range(1, len(V.even) + 1)), ())


def parse_poly(text: str, V: Variables) -> Element:
    """Parse expressions like ``'x1*x2 - 2*xi1'`` into polynomials on ``V``.

    Factors are rationals or (powers of) coordinates of ``V``; written
    order of odd factors matters and is normalized with signs.  A
    rational is an integer or ``integer/integer`` in ASCII digits
    (``'3'``, ``'3/2'``); decimals (``'0.5'``, ``'.5'``), exponents
    (``'1e5'``) and digit separators (``'1_000'``) are refused.  Whitespace
    may stand only around ``+``, ``-`` and ``*`` and at the ends, so
    ``'1 2'`` and ``'x 1'`` are refused, not read as ``12`` and ``x1``.
    Every sign must start a term, so ``'x1 - -x2'``, ``'x1+'`` and ``'-'``
    are refused, not read as ``x1 - x2``, ``x1`` and 0; so are an empty
    factor (``'x1*-x2'``, ``'x1**x2'``), a factor that is neither a
    coordinate power nor a rational (``'x1^'``) and a zero denominator.
    Each refusal is a ``ValueError`` naming the text.
    """
    s = re.sub(r"\s*([-+*])\s*", r"\1", text.strip())
    if not s:
        return Element.zero()
    if re.search(r"\s", s):
        raise ValueError(f"whitespace inside a factor in {text!r}")
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ValueError(f"a sign starts no term in {text!r}")
    acc = Element.zero()
    for term in terms:
        sign = Fraction(1)
        if term.startswith("-"):
            sign, term = Fraction(-1), term[1:]
        elif term.startswith("+"):
            term = term[1:]
        coeff = sign
        mono = Element.of(smono_one(len(V.even)))
        for factor in term.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            m = _FACTOR_RE.match(factor)
            if m:
                name, power = m.group(1), int(m.group(2) or 1)
                if name not in V.slot:
                    raise ValueError(
                        f"variable {factor!r} out of range: have {', '.join(V.degrees)}"
                    )
                if V.slot[name][0] and power > 1:
                    raise ValueError(f"odd variable squared in {factor!r}")
                mono = poly_mul(mono, Element.of(_coordinate(V, name, power)))
            elif _RATIONAL_RE.fullmatch(factor):  # no factor holds a sign: terms split at each
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {factor!r}") from None
            else:
                raise ValueError(
                    f"factor {factor!r} is neither a coordinate power nor a rational in {text!r}"
                )
        acc = acc + mono.scale(coeff)
    return acc


def vf_bracket_oracle(V: Variables, v1: SMono, v2: SMono) -> Element:
    """Composition-formula bracket of two plain vector fields on T*[1]R^{p|q}:

        [f1 dv1, f2 dv2] = f1 d_{v1}(f2) dv2
                           - (-1)^{(|v1|+1)(|v2|+1)} f2 d_{v2}(f1) dv1,

    with |.| the degree of the whole field.  Independent of
    :func:`poisson_bracket_mono`; arbitrates the Schouten sign
    convention on vector fields.
    """
    (f1, dv1), (f2, dv2) = _vector_field(V, v1), _vector_field(V, v2)
    cross = (smono_degree(V, v1) + 1) * (smono_degree(V, v2) + 1)
    return _apply_field(V, f1, dv1, f2, dv2) - _apply_field(V, f2, dv2, f1, dv1).scale(sign(cross))


def _vector_field(V: Variables, v: SMono) -> tuple[SMono, str]:
    """(f, dv) with v = f dv, dv its one fiber factor.  Every fiber comes
    after every base coordinate of its parity, so writing dv last costs
    no sign, and f is v's monomial with dv dropped."""
    fiber = [(u, e) for u, e in _factors(V, v) if u.startswith("d")]
    if len(fiber) != 1 or fiber[0][1] != 1:
        raise ValueError("oracle only covers plain vector fields")
    dv = fiber[0][0]
    return sderiv(V.slot[dv], v)[1], dv


def _apply_field(V: Variables, f1: SMono, dv1: str, f2: SMono, dv2: str) -> Element:
    """f1 d_{v1}(f2) dv2, with dv2 written last."""
    df2 = poly_deriv(V.slot[dv1[1:]], Element.of(f2))
    return poly_mul(poly_mul(Element.of(f1), df2), Element.of(_coordinate(V, dv2, 1)))


# -- Poisson tensors ---------------------------------------------------------


@dataclass
class PoissonTensor:
    variables: Variables
    m: int  # bracket degree
    omega: dict[tuple[str, str], Element]

    def entry(self, i: str, j: str) -> Element:
        return self.omega.get((i, j), Element.zero())


def canonical_tensor(V: Variables, b: int) -> PoissonTensor:
    """The degree-b tensor whose bracket is the Schouten bracket:
    omega^{dv,v} = omega^{v,dv} = (-1)^{b|dv|} for each coordinate v with
    a fiber dv (the module docstring derives the sign)."""
    pairs = [(f"d{v}", v) for v in V.degrees if f"d{v}" in V.degrees]
    one = smono_one(len(V.even))
    omega = {(dv, v): Element.of(one, sign(b * V.degrees[dv])) for dv, v in pairs}
    omega.update({(v, dv): omega[dv, v] for dv, v in pairs})
    return PoissonTensor(V, b, omega)


def poisson_bracket_mono(T: PoissonTensor, m1: SMono, m2: SMono) -> Element:
    V = T.variables
    fdeg = smono_degree(V, m1)
    acc: dict = {}
    for (i, j), w in T.omega.items():
        if w.is_zero():
            continue
        c1, d1 = sderiv(V.slot[i], m1)
        if d1 is None:
            continue
        c2, d2 = sderiv(V.slot[j], m2)
        if d2 is None:
            continue
        # |d_j| (|f| + |d_i|), with |d_v| = -|v|
        sgn = sign(T.m * fdeg + V.degrees[j] * (fdeg - V.degrees[i]))
        for m, c in poly_mul(poly_mul(w, Element.of(d1, c1)), Element.of(d2, c2)).items():
            add_term(acc, m, c * sgn)
    return Element(acc)


def poisson_bracket(T: PoissonTensor, f: Element, g: Element) -> Element:
    """Bilinear degree-m bracket of super polynomials (f homogeneous termwise)."""
    return bilinear(lambda m1, m2: poisson_bracket_mono(T, m1, m2), f, g)


def check_poisson_tensor(T: PoissonTensor, label: str) -> list[CheckRecord]:
    """Evaluate the tensor conditions exactly, as records on the instance
    ``label``: homogeneity of every entry, graded symmetry, and the
    cyclic closure identity for all index triples.

    The first two list every bad entry in their witness; the cyclic
    closure is swept (:func:`~.ab_core.sweep`) over the index triples and
    names the first that fails.
    """
    V = T.variables
    names = list(V.degrees)
    ddeg = {v: -d for v, d in V.degrees.items()}  # |d/dv| = -|v|
    render = lambda m: smono_str(V, m)

    def listing(check: str, bad: list[str]) -> CheckRecord:
        return CheckRecord(check, AXIOM_STATEMENT, label, "fail" if bad else "pass", witness="; ".join(bad))

    bad = []
    for (i, j), w in T.omega.items():
        want = T.m - ddeg[i] - ddeg[j]
        for mono, _ in w.items():
            d = smono_degree(V, mono)
            if d != want:
                bad.append(f"omega[{i},{j}] term {render(mono)} has degree {d}, expected {want}")
    homogeneity = listing("tensor-homogeneity", bad)

    bad = []
    for i in names:
        for j in names:
            lhs = T.entry(i, j)
            rhs = T.entry(j, i).scale(sign(ddeg[i] * ddeg[j] + T.m + 1))
            if lhs != rhs:
                bad.append(f"omega[{i},{j}] vs omega[{j},{i}]")
    symmetry = listing("tensor-graded-symmetry", bad)

    def closure(ijl: tuple) -> tuple[bool, str]:
        i, j, l = ijl
        total = Element.zero()
        for u, v, w in ((l, j, i), (j, i, l), (i, l, j)):
            s = sign(ddeg[u] * (T.m + ddeg[w]))
            for k in names:
                term = poly_mul(T.entry(u, k), poly_deriv(V.slot[k], T.entry(v, w)))
                total = total + term.scale(s)
        if total.is_zero():
            return True, ""
        return False, f"cyclic sum {format_element(total, render=render, key=render)}"

    cyclic = sweep("tensor-cyclic-closure", AXIOM_STATEMENT, label, itertools.product(names, repeat=3),
                   closure, lambda ijl: f"indices ({','.join(ijl)})")
    return [homogeneity, symmetry, cyclic]


# -- instance assembly --------------------------------------------------------


@dataclass
class Instance:
    """A built algebra plus its structure-specific invariant checks."""

    algebra: AbAlgebra
    params: dict
    extra_checks: Callable[[], list[CheckRecord]] = lambda: []

    def check_structure(self) -> list[CheckRecord]:
        """The instance's own checks, the ``degree-homogeneity`` record and
        the structure axioms, in that order, as records on the algebra."""
        checks = self.extra_checks()
        axioms = check_ab_axioms(self.algebra)
        # the axiom sweep populates the structure maps, so degree violations
        # are known by now; with nothing evaluable the degree check is moot
        degree = degree_homogeneity([self.algebra], checked=any(c.status != "skip" for c in axioms))
        return checks + [degree] + axioms


def _mono_basis(p: int, q: int, max_degree: int) -> list[SMono]:
    """The monomials of R^{p|q} of degree at most ``max_degree``, with
    |x| = 2 and |xi| = 1."""
    monos = []
    for odd_count in range(q + 1):
        for odd in itertools.combinations(range(1, q + 1), odd_count):
            budget = max_degree - odd_count
            if budget < 0:
                continue
            for even in _even_exponents(p, budget // 2):
                monos.append(SMono(even, odd))
    return monos


def _even_exponents(p: int, max_total: int):
    """The exponent tuples of ``p`` variables with sum at most ``max_total``."""
    return (e for e in itertools.product(range(max_total + 1), repeat=p) if sum(e) <= max_total)


def _assemble(name: str, a: int, T: PoissonTensor, basis: list[SMono], hamiltonian: Element) -> AbAlgebra:
    """The algebra on the monomials of ``basis``: their graded product,
    the Poisson bracket of ``T`` (so b = T.m) and the differential
    {hamiltonian, .}.

    Generator ids are the rendered monomials, ordered by degree and then
    by id.  A result leaving the basis raises
    :class:`TruncationOverflow`, which the identity checks count as a skip.
    """
    V = T.variables
    basis = sorted(basis, key=lambda m: (smono_degree(V, m), smono_str(V, m)))
    gen = {m: Generator(smono_str(V, m), smono_degree(V, m) + a - 1) for m in basis}
    by_id = {g.gid: m for m, g in gen.items()}

    def embed(e: Element, op: str, *gids: str) -> Element:
        out = []
        for m, c in e.items():
            g = gen.get(m)
            if g is None:
                raise TruncationOverflow(
                    f"{op}({','.join(gids)}) of {name} leaves the basis: {smono_str(V, m)}"
                )
            out.append((g, c))
        return Element.from_terms(out)

    return AbAlgebra(
        name=name,
        a=a,
        b=T.m,
        generators=tuple(gen.values()),
        unshifted={g.gid: g.deg - a + 1 for g in gen.values()},
        product_fn=lambda g1, g2: embed(_term(smono_mul(by_id[g1], by_id[g2])), "product", g1, g2),
        bracket_fn=lambda g1, g2: embed(
            poisson_bracket_mono(T, by_id[g1], by_id[g2]), "bracket", g1, g2
        ),
        diff_fn=lambda g: embed(poisson_bracket(T, hamiltonian, Element.of(by_id[g])), "d", g),
    )


def _super_polynomials(
    name: str, p: int, q: int, m: int, omega: dict, max_degree: int
) -> Instance:
    """Super polynomials on R^{p|q} with the bracket of the degree-m tensor
    ``omega``, given as config input (see ``_omega_from_param``); (a, b) = (0, m)."""
    V = variables(p, q, SUPER)
    T = PoissonTensor(V, m, _omega_from_param(omega, V, name))
    algebra = _assemble(name, 0, T, _mono_basis(p, q, max_degree), Element.zero())
    params = {"p": p, "q": q, "m": m, "max_degree": max_degree}
    return Instance(algebra, params, extra_checks=lambda: check_poisson_tensor(T, name))


def _polyvectors(
    name: str, p: int, q: int, max_coef_degree: int, max_rank: int, grading: str, differential: str
) -> Instance:
    """Polyvector fields on R^{p|q}, with the wedge and the Schouten
    bracket, in one of ``GRADINGS``.

    Coefficients are the monomials of R^{p|q} of degree at most
    ``max_coef_degree``, and fiber factors number at most ``max_rank``.
    ``differential="poisson"`` installs d = [dx1^dx2, .] (gerstenhaber-toy:
    the rank grading, p >= 2); the constant bivector is its own cocycle,
    so d^2 = 0.
    """
    degrees, a, b = GRADINGS[grading]
    V = variables(p, q, degrees)
    if differential == "zero":
        hamiltonian = Element.zero()
    elif differential == "poisson":
        hamiltonian = parse_poly("dx1*dx2", V)
    else:
        raise ValueError(f"unknown differential {differential!r}")
    # in V's order the fibers dxi_j follow x1..xp and the fibers dx_i follow xi1..xiq
    basis = [
        SMono(coef.even + dxi, coef.odd + tuple(q + i for i in dx))
        for coef in _mono_basis(p, q, max_coef_degree)
        for rank in range(max_rank + 1)
        for dx in itertools.combinations(range(1, p + 1), rank)
        for dxi in _even_exponents(q, max_rank - rank)
    ]
    algebra = _assemble(name, a, canonical_tensor(V, b), basis, hamiltonian)
    params = {
        "p": p,
        "q": q,
        "max_coef_degree": max_coef_degree,
        "max_rank": max_rank,
        "grading": grading,
        "differential": differential,
    }
    return Instance(algebra, params)


# -- builtin registry ---------------------------------------------------------


def _at_least(params: dict, key: str, low: int, instance: str, why: str = "") -> None:
    """Refuse a parameter below ``low``, naming it and the instance."""
    if params[key] < low:
        raise ValueError(
            f"parameter {key!r} of instance {instance!r} must be at least {low}{why}, "
            f"got {params[key]}"
        )


def _omega_from_param(value, V: Variables, instance: str) -> dict[tuple[str, str], Element]:
    """Accept {"x1,x2": "x1*x2", "x2,x1": -1, ...} from config input: each key
    names two coordinates of ``V``, each value is a polynomial string or an
    integer.  A polynomial's coefficients are integers or
    ``integer/integer``, as :func:`parse_poly` reads them.  Anything
    else, and two keys naming one entry (``"x1,x2"`` and ``"x1, x2"``),
    is a ``ValueError`` naming the parameter and the instance."""
    what = f"parameter 'omega' of instance {instance!r}"
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object mapping 'i,j' to a polynomial, got {value!r}")
    symbols = list(V.degrees)
    out = {}
    key_of = {}
    for key, entry in value.items():
        pair = tuple(s.strip() for s in key.split(","))
        if len(pair) != 2 or not set(pair) <= set(symbols):
            raise ValueError(f"{what}: key {key!r} is not 'i,j' with i, j among {symbols}")
        if pair in key_of:
            raise ValueError(f"{what}: keys {key_of[pair]!r} and {key!r} both name omega[{','.join(pair)}]")
        key_of[pair] = key
        if type(entry) is int:  # a float or a bool is not an exact coefficient
            out[pair] = Element.of(smono_one(len(V.even)), entry)
        elif isinstance(entry, str):
            try:
                out[pair] = parse_poly(entry, V)
            except ValueError as exc:
                raise ValueError(f"{what}: entry {key!r}: {exc}") from None
        else:
            raise ValueError(
                f"{what}: entry {key!r} must be a polynomial string or an integer, got {entry!r}"
            )
    return out


def _build_polyvector_even(params: dict) -> Instance:
    return _polyvectors(
        "polyvector-even", params["d"], 0, params["max_coef_degree"], params["max_rank"],
        "double", "zero",
    )


def _build_poisson_polynomial(params: dict) -> Instance:
    d = params["d"]
    m = params["m"]
    omega = params.get("omega")
    if omega is None:
        # default: omega^{12} = x1*x2 when m = 2, else a power of x1 of the right degree
        _at_least(params, "d", 2, "poisson-polynomial", " for the default tensor")
        _at_least(params, "m", 0, "poisson-polynomial", " for the default tensor")
        text = "x1*x2" if m == 2 else ("1" if m == 0 else f"x1^{m}")
        omega = {"x1,x2": text, "x2,x1": f"-{text}"}
    instance = _super_polynomials(
        "poisson-polynomial", d, 0, 2 * m - 4, omega, params["max_degree"]
    )
    instance.params["m"] = m  # the label echoes the m given, not the bracket degree 2m - 4
    return instance


def _build_schouten_super(params: dict) -> Instance:
    return _polyvectors(
        "schouten-super", params["p"], params["q"], params["max_coef_degree"],
        params["max_rank"], "tpoly", "zero",
    )


def _build_poisson_super(params: dict) -> Instance:
    omega = params.get("omega")
    if omega is None:
        _at_least(params, "p", 2, "poisson-super", " for the default tensor")
        omega = {"x1,x2": 1, "x2,x1": -1}
    return _super_polynomials(
        "poisson-super", params["p"], params["q"], params["m"], omega, params["max_degree"]
    )


def _build_gerstenhaber_toy(params: dict) -> Instance:
    differential = params.get("differential", "poisson")
    if differential == "poisson":
        _at_least(params, "d", 2, "gerstenhaber-toy", " for the bivector differential")
    return _polyvectors(
        "gerstenhaber-toy", params["d"], 0, params["max_coef_degree"], params["max_rank"],
        "rank", differential,
    )


BUILTINS: dict[str, tuple[Callable[[dict], Instance], dict]] = {
    "polyvector-even": (_build_polyvector_even, {"d": 2, "max_coef_degree": 2, "max_rank": 2}),
    "poisson-polynomial": (_build_poisson_polynomial, {"d": 2, "m": 2, "omega": None, "max_degree": 8}),
    "schouten-super": (_build_schouten_super, {"p": 1, "q": 1, "max_coef_degree": 4, "max_rank": 2}),
    "poisson-super": (_build_poisson_super, {"p": 2, "q": 1, "m": -4, "omega": None, "max_degree": 4}),
    "gerstenhaber-toy": (
        _build_gerstenhaber_toy,
        {"d": 2, "max_coef_degree": 2, "max_rank": 2, "differential": "poisson"},
    ),
}


# sizes of the variable sets and of the truncation, never negative; ``m``
# is a bracket degree, bounded only by poisson-polynomial's default tensor
_SIZES = ("d", "p", "q", "max_degree", "max_coef_degree", "max_rank")


def builtin_instance(name: str, params: dict | None = None) -> Instance:
    """Build a named instance; unknown parameter keys, parameters with an
    integer default given anything but an integer, and negative sizes are
    rejected."""
    if name not in BUILTINS:
        raise KeyError(f"unknown builtin instance {name!r}; have {sorted(BUILTINS)}")
    builder, defaults = BUILTINS[name]
    merged = dict(defaults)
    for k, v in (params or {}).items():
        if k not in defaults:
            raise ValueError(f"instance {name!r} takes no parameter {k!r}")
        if type(defaults[k]) is int:  # a size or degree: never truncated
            v = _integer(v, f"parameter {k!r} of instance {name!r}")
        merged[k] = v
        if k in _SIZES:
            _at_least(merged, k, 0, name)
    return builder(merged)
