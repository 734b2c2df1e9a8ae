"""Builtin truncated instances: super polynomials and polyvector fields.

An instance supplies what an (a,b)-algebra needs: a product, a bracket
and a differential on basis monomials.  Both families go through one
assembly, ``_monomial_algebra``, which makes the monomials within the
truncation the generators and raises ``TruncationOverflow`` for a result
outside them.  Maps on Elements are ``bilinear``/``map_basis`` extensions
of the monomial maps.

Super polynomial functions on R^{p|q} have basis monomials
x_1^{e_1}..x_p^{e_p} xi_{j_1}..xi_{j_r} with j_1 < ... < j_r; the xi's
square to zero.  Degrees: |x_i| = 2, |xi_j| = 1, so |m| = 2*sum(e) + r.
The partial derivative d/dxi_j moves xi_j to the front (one sign flip
per odd letter crossed) and drops it; that makes it a graded derivation
of degree -1.  d/dx_i is the usual one, degree -2.

Polyvector monomials are (coefficient monomial) * dx_I ^ dxi_J with
I strictly increasing (dx is odd, squares vanish) and J weakly
increasing (dxi is even, repeats allowed).  The natural grading is

    |x| = 2,  |xi| = 1,  |dx| = -3,  |dxi| = -2,

so the wedge has degree 0 and the Schouten bracket degree +1.  The same
monomials support two more gradings used by other instances: the
"double" grading 2*(coefficient degree) + (number of dx), under which
the Schouten bracket has degree -3, and the bare rank grading (number
of dx), the classical multivector grading with bracket degree -1.  All
three give every monomial the same parity when q = 0, so one signed
wedge/Schouten implementation serves all of them.

The Schouten bracket is computed from the one-sided contraction

    contract(v1, v2) = sum over derivative slots s of v1 of
        (-1)^{|v1|+1 + |d_s|(|d_1|+...+|d_{s-1}|) + (|f_2|+1)(|D_1| - |d_s|)}
        f_1 * d_s(f_2) * (remaining block of v1) ^ (block of v2)

as [v1, v2] = (-1)^{|v1|+1} contract(v1, v2)
              - (-1)^{|v1|(|v2|+1)} contract(v2, v1);

``vf_bracket_oracle`` is the independent composition formula for plain
vector fields that pins down the overall sign convention.

A degree-m Poisson bracket on super polynomials is given by a tensor
omega^{ij} over the derivative symbols (here named "x1".."xp",
"xi1".."xiq", with |d/dx| = -2 and |d/dxi| = -1):

    {f, g} = (-1)^{m|f|} sum_{i,j} (-1)^{|d_j|(|f|+|d_i|)}
             omega^{ij} d_i(f) d_j(g),

subject to the homogeneity / graded symmetry / cyclic closure
conditions checked by :func:`check_poisson_tensor`.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

from .ab_core import AbAlgebra, AxiomCheck, TruncationOverflow, _integer, check_ab_axioms
from .freemodule import Element, add_term, bilinear, format_element
from .signs import sign
from .tensor_coalgebra import Generator


# -- super polynomial monomials -------------------------------------------


class SMono(NamedTuple):
    even: tuple[int, ...]  # exponents of x_1..x_p
    odd: tuple[int, ...]  # strictly increasing xi indices, 1-based

    def __repr__(self) -> str:
        return smono_str(self)


def smono_one(p: int) -> SMono:
    return SMono((0,) * p, ())


def smono_degree(m: SMono) -> int:
    return 2 * sum(m.even) + len(m.odd)


def smono_str(m: SMono) -> str:
    parts = []
    for i, e in enumerate(m.even, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    parts.extend(f"xi{j}" for j in m.odd)
    return "*".join(parts) if parts else "1"


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


def sderiv(var: tuple[str, int], m: SMono):
    """Partial derivative of a monomial: (coefficient, monomial) or (0, None).

    ``var`` is ('x', i) or ('xi', j), 1-based.
    """
    kind, idx = var
    if kind == "x":
        e = m.even[idx - 1]
        if e == 0:
            return 0, None
        even = m.even[: idx - 1] + (e - 1,) + m.even[idx:]
        return e, SMono(even, m.odd)
    if idx not in m.odd:
        return 0, None
    crossed = sum(1 for t in m.odd if t < idx)
    return sign(crossed), SMono(m.even, tuple(t for t in m.odd if t != idx))


def _term(pair) -> Element:
    """The Element of a monomial-level ``(coefficient, monomial)`` result;
    ``(0, None)`` gives zero."""
    c, m = pair
    return Element.of(m, c)


def poly_mul(e1: Element, e2: Element) -> Element:
    return bilinear(lambda m1, m2: _term(smono_mul(m1, m2)), e1, e2)


def poly_deriv(var: tuple[str, int], e: Element) -> Element:
    return e.map_basis(lambda m: _term(sderiv(var, m)))


_FACTOR_RE = re.compile(r"^(xi|x)(\d+)(?:\^(\d+))?$")


def parse_poly(text: str, p: int, q: int) -> Element:
    """Parse expressions like ``'x1*x2 - 2*xi1'`` into super polynomials.

    Factors are rationals or (powers of) variables ``x<i>`` / ``xi<j>``;
    written order of xi factors matters and is normalized with signs.
    """
    s = text.replace(" ", "")
    if not s:
        return Element.zero()
    terms = re.findall(r"[+-]?[^+-]+", s)
    acc = Element.zero()
    for term in terms:
        sign = Fraction(1)
        if term.startswith("-"):
            sign, term = Fraction(-1), term[1:]
        elif term.startswith("+"):
            term = term[1:]
        coeff = sign
        mono = Element.of(smono_one(p))
        for factor in term.split("*"):
            m = _FACTOR_RE.match(factor)
            if m:
                kind, idx, power = m.group(1), int(m.group(2)), int(m.group(3) or 1)
                bound = q if kind == "xi" else p
                if not 1 <= idx <= bound:
                    raise ValueError(f"variable {factor!r} out of range for R^({p}|{q})")
                if kind == "x":
                    even = tuple(power if i == idx else 0 for i in range(1, p + 1))
                    step = SMono(even, ())
                else:
                    if power > 1:
                        raise ValueError(f"odd variable squared in {factor!r}")
                    step = SMono((0,) * p, (idx,))
                mono = poly_mul(mono, Element.of(step))
            else:
                coeff *= Fraction(factor)
        acc = acc + mono.scale(coeff)
    return acc


# -- polyvector monomials ---------------------------------------------------


class PVMono(NamedTuple):
    coef: SMono
    dx: tuple[int, ...]  # strictly increasing, odd letters of degree -3
    dxi: tuple[int, ...]  # weakly increasing, even letters of degree -2

    def __repr__(self) -> str:
        return pv_str(self)


def pv_str(v: PVMono) -> str:
    parts = [] if v.coef == smono_one(len(v.coef.even)) else [smono_str(v.coef)]
    parts.extend(f"dx{i}" for i in v.dx)
    parts.extend(f"dxi{j}" for j in v.dxi)
    return "^".join(parts) if parts else "1"


def pv_degree(v: PVMono) -> int:
    """T_poly grading: 2#S + #T - 3#I - 2#J."""
    return smono_degree(v.coef) - 3 * len(v.dx) - 2 * len(v.dxi)


def pv_degree_double(v: PVMono) -> int:
    """Doubled grading 2m + k (coefficient degree m, rank k); q = 0 only."""
    return 2 * sum(v.coef.even) + len(v.dx)


def pv_degree_rank(v: PVMono) -> int:
    """Classical multivector grading: the number of dx factors."""
    return len(v.dx)


def pv_wedge(v1: PVMono, v2: PVMono):
    """Graded-commutative wedge of monomials: (sign, monomial) or (0, None)."""
    s0, coef = smono_mul(v1.coef, v2.coef)
    if coef is None:
        return 0, None
    # v2's xi letters cross v1's dx letters (both odd)
    s0 *= sign(len(v2.coef.odd) * len(v1.dx))
    s1, dx = _merge_strict(v1.dx, v2.dx)
    if dx is None:
        return 0, None
    dxi = tuple(sorted(v1.dxi + v2.dxi))
    return s0 * s1, PVMono(coef, dx, dxi)


def pv_wedge_elem(e1: Element, e2: Element) -> Element:
    return bilinear(lambda v1, v2: _term(pv_wedge(v1, v2)), e1, e2)


def _deriv_slots(v: PVMono) -> list[tuple[str, int]]:
    return [("x", i) for i in v.dx] + [("xi", j) for j in v.dxi]


_TDEG = {"x": -3, "xi": -2}


def pv_contract(v1: PVMono, v2: PVMono) -> Element:
    """One-sided Schouten contraction: each derivative of v1 hits v2's coefficient."""
    d1 = pv_degree(v1)
    f2deg = smono_degree(v2.coef)
    slots = _deriv_slots(v1)
    block_deg = sum(_TDEG[k] for k, _ in slots)
    acc: dict = {}
    prefix = 0
    for kind, idx in slots:
        td = _TDEG[kind]
        exponent = (d1 + 1) + td * prefix + (f2deg + 1) * (block_deg - td)
        prefix += td
        c, dmono = sderiv((kind, idx), v2.coef)
        if dmono is None:
            continue
        sf, coef = smono_mul(v1.coef, dmono)
        if coef is None:
            continue
        dx1 = tuple(i for i in v1.dx if not (kind == "x" and i == idx))
        dxi1 = list(v1.dxi)
        if kind == "xi":
            dxi1.remove(idx)
        sb, dx = _merge_strict(dx1, v2.dx)
        if dx is None:
            continue
        dxi = tuple(sorted(tuple(dxi1) + v2.dxi))
        add_term(acc, PVMono(coef, dx, dxi), c * sf * sb * sign(exponent))
    return Element(acc)


def pv_schouten(v1: PVMono, v2: PVMono) -> Element:
    """Schouten bracket of monomials, degree +1 in the T_poly grading."""
    d1, d2 = pv_degree(v1), pv_degree(v2)
    return pv_contract(v1, v2).scale(sign(d1 + 1)) - pv_contract(v2, v1).scale(
        sign(d1 * (d2 + 1))
    )


def pv_schouten_elem(e1: Element, e2: Element) -> Element:
    return bilinear(pv_schouten, e1, e2)


def vf_bracket_oracle(v1: PVMono, v2: PVMono) -> Element:
    """Composition-formula bracket for two single-derivative monomials.

    Independent of :func:`pv_contract`; arbitrates the Schouten sign
    convention on vector fields.
    """
    s1, s2 = _deriv_slots(v1), _deriv_slots(v2)
    if len(s1) != 1 or len(s2) != 1:
        raise ValueError("oracle only covers plain vector fields")
    out = Element.zero()
    c, dmono = sderiv(s1[0], v2.coef)
    if dmono is not None:
        sf, coef = smono_mul(v1.coef, dmono)
        if coef is not None:
            out = out + Element.of(_pv_from_slot(coef, s2[0]), Fraction(c) * sf)
    cross = (pv_degree(v1) + 1) * (pv_degree(v2) + 1)
    c, dmono = sderiv(s2[0], v1.coef)
    if dmono is not None:
        sf, coef = smono_mul(v2.coef, dmono)
        if coef is not None:
            out = out - Element.of(_pv_from_slot(coef, s1[0]), Fraction(c) * sf * sign(cross))
    return out


def _pv_from_slot(coef: SMono, slot: tuple[str, int]) -> PVMono:
    kind, idx = slot
    if kind == "x":
        return PVMono(coef, (idx,), ())
    return PVMono(coef, (), (idx,))


# -- Poisson tensors ---------------------------------------------------------


def _dvar(name: str) -> tuple[str, int]:
    m = _FACTOR_RE.match(name)
    if not m or m.group(3):
        raise ValueError(f"bad derivative symbol {name!r}")
    return m.group(1), int(m.group(2))


def _ddeg(name: str) -> int:
    kind, _ = _dvar(name)
    return -2 if kind == "x" else -1


@dataclass
class PoissonTensor:
    p: int
    q: int
    m: int  # bracket degree
    omega: dict[tuple[str, str], Element] = field(default_factory=dict)

    def names(self) -> list[str]:
        return [f"x{i}" for i in range(1, self.p + 1)] + [
            f"xi{j}" for j in range(1, self.q + 1)
        ]

    def entry(self, i: str, j: str) -> Element:
        return self.omega.get((i, j), Element.zero())


def poisson_bracket_mono(T: PoissonTensor, m1: SMono, m2: SMono) -> Element:
    fdeg = smono_degree(m1)
    acc: dict = {}
    for (i, j), w in T.omega.items():
        if w.is_zero():
            continue
        c1, d1 = sderiv(_dvar(i), m1)
        if d1 is None:
            continue
        c2, d2 = sderiv(_dvar(j), m2)
        if d2 is None:
            continue
        sgn = sign(T.m * fdeg + _ddeg(j) * (fdeg + _ddeg(i)))
        for m, c in poly_mul(poly_mul(w, Element.of(d1, c1)), Element.of(d2, c2)).items():
            add_term(acc, m, c * sgn)
    return Element(acc)


def poisson_bracket(T: PoissonTensor, f: Element, g: Element) -> Element:
    """Bilinear degree-m bracket of super polynomials (f homogeneous termwise)."""
    return bilinear(lambda m1, m2: poisson_bracket_mono(T, m1, m2), f, g)


def check_poisson_tensor(T: PoissonTensor) -> list[AxiomCheck]:
    """Evaluate the tensor conditions exactly: homogeneity of every entry,
    graded symmetry, and the cyclic closure identity for all index triples."""
    checks: list[AxiomCheck] = []
    names = T.names()

    bad = []
    for (i, j), w in T.omega.items():
        want = T.m - _ddeg(i) - _ddeg(j)
        for mono, _ in w.items():
            if smono_degree(mono) != want:
                bad.append(f"omega[{i},{j}] term {smono_str(mono)} has degree {smono_degree(mono)}, expected {want}")
    checks.append(
        AxiomCheck("tensor-homogeneity", "fail" if bad else "pass", "; ".join(bad))
    )

    bad = []
    for i in names:
        for j in names:
            lhs = T.entry(i, j)
            rhs = T.entry(j, i).scale(sign(_ddeg(i) * _ddeg(j) + T.m + 1))
            if lhs != rhs:
                bad.append(f"omega[{i},{j}] vs omega[{j},{i}]")
    checks.append(
        AxiomCheck("tensor-graded-symmetry", "fail" if bad else "pass", "; ".join(bad))
    )

    witness = ""
    for i in names:
        for j in names:
            for l in names:
                total = Element.zero()
                for u, v, w in ((l, j, i), (j, i, l), (i, l, j)):
                    s = sign(_ddeg(u) * (T.m + _ddeg(w)))
                    for k in names:
                        term = poly_mul(T.entry(u, k), poly_deriv(_dvar(k), T.entry(v, w)))
                        total = total + term.scale(Fraction(s))
                if not total.is_zero():
                    witness = (
                        f"cyclic closure fails at indices ({i},{j},{l}): "
                        f"{format_element(total, render=smono_str)}"
                    )
                    break
            if witness:
                break
        if witness:
            break
    checks.append(AxiomCheck("tensor-cyclic-closure", "fail" if witness else "pass", witness))
    return checks


# -- instance assembly --------------------------------------------------------


@dataclass
class Instance:
    """A built algebra plus its structure-specific invariant checks."""

    algebra: AbAlgebra
    params: dict
    extra_checks: Callable[[], list[AxiomCheck]] = lambda: []

    def check_structure(self) -> list[AxiomCheck]:
        checks = list(self.extra_checks())
        axioms = check_ab_axioms(self.algebra)
        # the axiom sweep populates the structure maps, so degree violations
        # are known by now; with nothing evaluable the degree check is moot
        if self.algebra.degree_violations:
            degree = AxiomCheck(
                "degree-homogeneity", "fail", "; ".join(self.algebra.degree_violations)
            )
        elif all(c.status == "skip" for c in axioms):
            degree = AxiomCheck("degree-homogeneity", "skip", "nothing evaluable at this truncation")
        else:
            degree = AxiomCheck("degree-homogeneity", "pass")
        return checks + [degree] + axioms


def _mono_basis(p: int, q: int, max_degree: int) -> list[SMono]:
    monos = []
    for odd_count in range(q + 1):
        for odd in itertools.combinations(range(1, q + 1), odd_count):
            budget = max_degree - odd_count
            if budget < 0:
                continue
            for even in _even_exponents(p, budget // 2):
                monos.append(SMono(even, odd))
    monos.sort(key=lambda m: (smono_degree(m), smono_str(m)))
    return monos


def _even_exponents(p: int, max_total: int):
    if p == 0:
        yield ()
        return
    for head in range(max_total + 1):
        for tail in _even_exponents(p - 1, max_total - head):
            yield (head,) + tail


def _monomial_algebra(
    name: str, a: int, b: int, basis: list, degree: Callable, render: Callable,
    product: Callable, bracket: Callable, differential: Callable, description: str,
) -> AbAlgebra:
    """The algebra on a sorted monomial basis, from monomial-level maps.

    ``product``/``bracket`` take two monomials and ``differential`` one,
    each returning an Element over monomials.  Generator ids are the
    rendered monomials; ``degree`` is the unshifted grading.  A result
    leaving the basis raises :class:`TruncationOverflow`, which the
    identity checks count as a skip.
    """
    by_id = {render(m): m for m in basis}
    unshifted = {gid: degree(m) for gid, m in by_id.items()}
    gens = tuple(Generator(gid, d + a - 1) for gid, d in unshifted.items())
    gen = {g.gid: g for g in gens}

    def embed(e: Element, op: str, *gids: str) -> Element:
        out = []
        for m, c in e.items():
            gid = render(m)
            if gid not in gen:
                raise TruncationOverflow(f"{op}({','.join(gids)}) of {name} leaves the basis: {gid}")
            out.append((gen[gid], c))
        return Element.from_terms(out)

    return AbAlgebra(
        name=name,
        a=a,
        b=b,
        generators=gens,
        unshifted=unshifted,
        product_fn=lambda g1, g2: embed(product(by_id[g1], by_id[g2]), "product", g1, g2),
        bracket_fn=lambda g1, g2: embed(bracket(by_id[g1], by_id[g2]), "bracket", g1, g2),
        diff_fn=lambda g: embed(differential(by_id[g]), "d", g),
        description=description,
    )


def build_poisson_instance(
    p: int,
    q: int,
    bracket_degree: int,
    omega: dict[tuple[str, str], Element],
    max_degree: int,
    name: str = "poisson-super",
) -> Instance:
    """Super polynomials on R^{p|q} with an omega-defined bracket; a = 0, b = bracket degree."""
    T = PoissonTensor(p, q, bracket_degree, omega)
    algebra = _monomial_algebra(
        name, 0, bracket_degree, _mono_basis(p, q, max_degree), smono_degree, smono_str,
        product=lambda m1, m2: _term(smono_mul(m1, m2)),
        bracket=lambda m1, m2: poisson_bracket_mono(T, m1, m2),
        differential=lambda _: Element.zero(),
        description=f"super polynomials on R^({p}|{q}), bracket degree {bracket_degree}, degrees <= {max_degree}",
    )
    params = {"p": p, "q": q, "m": bracket_degree, "max_degree": max_degree}
    return Instance(algebra, params, extra_checks=lambda: check_poisson_tensor(T))


_GRADINGS = {
    "tpoly": (pv_degree, 0, 1),
    "double": (pv_degree_double, 0, -3),
    "rank": (pv_degree_rank, 0, -1),
}


def build_schouten_instance(
    p: int,
    q: int,
    max_coef_degree: int,
    max_rank: int,
    grading: str = "tpoly",
    differential: str = "zero",
    name: str = "schouten-super",
) -> Instance:
    """Polyvector fields on R^{p|q} with wedge and the Schouten bracket.

    grading "tpoly" gives the (0, 1) algebra; "double" the (0, -3) even
    polyvector algebra; "rank" the classical (0, -1) Gerstenhaber case.
    ``differential="poisson"`` installs d = [dx1^dx2, .] (rank grading
    only, needs p >= 2); the constant bivector is its own cocycle so
    d^2 = 0.
    """
    degree_fn, a, b = _GRADINGS[grading]
    if grading in ("double", "rank") and q != 0:
        raise ValueError(f"grading {grading!r} is defined for q = 0 only")
    basis = []
    for coef in _mono_basis(p, q, max_coef_degree):
        for r_dx in range(min(p, max_rank) + 1):
            for dx in itertools.combinations(range(1, p + 1), r_dx):
                for r_dxi in range(max_rank - r_dx + 1):
                    for dxi in itertools.combinations_with_replacement(
                        range(1, q + 1), r_dxi
                    ):
                        if r_dxi and q == 0:
                            continue
                        basis.append(PVMono(coef, dx, dxi))
    basis.sort(key=lambda v: (degree_fn(v), pv_str(v)))

    if differential == "zero":
        diff = lambda _: Element.zero()
    elif differential == "poisson":
        if grading != "rank" or p < 2:
            raise ValueError("the bivector differential needs the rank grading and p >= 2")
        pi = PVMono(smono_one(p), (1, 2), ())
        diff = lambda v: pv_schouten(pi, v)
    else:
        raise ValueError(f"unknown differential {differential!r}")

    algebra = _monomial_algebra(
        name, a, b, basis, degree_fn, pv_str,
        product=lambda v1, v2: _term(pv_wedge(v1, v2)),
        bracket=pv_schouten,
        differential=diff,
        description=(
            f"polyvectors on R^({p}|{q}), grading {grading!r}, coefficient degree <= "
            f"{max_coef_degree}, rank <= {max_rank}, differential {differential!r}"
        ),
    )
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


def _omega_from_param(value, p: int, q: int, instance: str) -> dict[tuple[str, str], Element]:
    """Accept {"x1,x2": "x1*x2", "x2,x1": -1, ...} from config input: each key
    names two derivative symbols of R^(p|q), each value is a polynomial
    string or an integer.  Anything else is a ``ValueError`` naming the
    parameter and the instance."""
    what = f"parameter 'omega' of instance {instance!r}"
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object mapping 'i,j' to a polynomial, got {value!r}")
    symbols = PoissonTensor(p, q, 0).names()
    out = {}
    for key, entry in value.items():
        pair = tuple(s.strip() for s in key.split(","))
        if len(pair) != 2 or not set(pair) <= set(symbols):
            raise ValueError(f"{what}: key {key!r} is not 'i,j' with i, j among {symbols}")
        if type(entry) is int:  # a float or a bool is not an exact coefficient
            out[pair] = Element.of(smono_one(p), entry)
        elif isinstance(entry, str):
            try:
                out[pair] = parse_poly(entry, p, q)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{what}: entry {key!r}: {exc}") from None
        else:
            raise ValueError(
                f"{what}: entry {key!r} must be a polynomial string or an integer, got {entry!r}"
            )
    return out


def _build_polyvector_even(params: dict) -> Instance:
    return build_schouten_instance(
        p=params["d"],
        q=0,
        max_coef_degree=params["max_coef_degree"],
        max_rank=params["max_rank"],
        grading="double",
        name="polyvector-even",
    )


def _build_poisson_polynomial(params: dict) -> Instance:
    d = params["d"]
    m = params["m"]
    if params.get("omega") is not None:
        omega = _omega_from_param(params["omega"], d, 0, "poisson-polynomial")
    else:
        # default: omega^{12} = x1*x2 when m = 2, else a power of x1 of the right degree
        _at_least(params, "d", 2, "poisson-polynomial", " for the default tensor")
        _at_least(params, "m", 0, "poisson-polynomial", " for the default tensor")
        text = "x1*x2" if m == 2 else ("1" if m == 0 else f"x1^{m}")
        w = parse_poly(text, d, 0)
        omega = {("x1", "x2"): w, ("x2", "x1"): w.scale(-1)}
    instance = build_poisson_instance(
        p=d,
        q=0,
        bracket_degree=2 * m - 4,
        omega=omega,
        max_degree=params["max_degree"],
        name="poisson-polynomial",
    )
    instance.params["m"] = m  # the label echoes the m given, not the bracket degree 2m - 4
    return instance


def _build_schouten_super(params: dict) -> Instance:
    return build_schouten_instance(
        p=params["p"],
        q=params["q"],
        max_coef_degree=params["max_coef_degree"],
        max_rank=params["max_rank"],
        grading="tpoly",
        name="schouten-super",
    )


def _build_poisson_super(params: dict) -> Instance:
    p, q = params["p"], params["q"]
    if params.get("omega") is not None:
        omega = _omega_from_param(params["omega"], p, q, "poisson-super")
    else:
        _at_least(params, "p", 2, "poisson-super", " for the default tensor")
        one = Element.of(smono_one(p) if q == 0 else SMono((0,) * p, ()))
        omega = {("x1", "x2"): one, ("x2", "x1"): one.scale(-1)}
    return build_poisson_instance(
        p=p,
        q=q,
        bracket_degree=params["m"],
        omega=omega,
        max_degree=params["max_degree"],
        name="poisson-super",
    )


def _build_gerstenhaber_toy(params: dict) -> Instance:
    differential = params.get("differential", "poisson")
    if differential == "poisson":
        _at_least(params, "d", 2, "gerstenhaber-toy", " for the bivector differential")
    return build_schouten_instance(
        p=params["d"],
        q=0,
        max_coef_degree=params["max_coef_degree"],
        max_rank=params["max_rank"],
        grading="rank",
        differential=differential,
        name="gerstenhaber-toy",
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
