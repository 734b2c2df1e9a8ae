import itertools
import random
import re
from fractions import Fraction

import pytest

from abhomotopy.ab_core import TruncationOverflow
from abhomotopy.freemodule import Element
from abhomotopy.instances import (
    BUILTINS,
    GRADINGS,
    SUPER,
    PoissonTensor,
    SMono,
    builtin_instance,
    canonical_tensor,
    check_poisson_tensor,
    parse_poly,
    poisson_bracket,
    poisson_bracket_mono,
    poly_mul,
    sderiv,
    smono_degree,
    smono_mul,
    smono_one,
    smono_str,
    variables,
    vf_bracket_oracle,
)


def m(p, q, even=(), odd=()):
    e = [0] * p
    for i, k in even:
        e[i - 1] = k
    return SMono(tuple(e), tuple(sorted(odd)))


def test_monomial_basics():
    V = variables(2, 1, SUPER)
    f = m(2, 1, even=[(1, 2)], odd=[1])
    assert smono_degree(V, f) == 5
    assert smono_str(V, f) == "x1^2*xi1"
    assert smono_str(V, smono_one(2)) == "1"


def test_monomial_product_signs():
    xi1 = m(1, 2, odd=[1])
    xi2 = m(1, 2, odd=[2])
    s, prod = smono_mul(xi2, xi1)
    assert (s, prod.odd) == (-1, (1, 2))
    assert smono_mul(xi1, xi1) == (0, None)
    s, _ = smono_mul(xi1, xi2)
    assert s == 1


def test_odd_derivative_moves_to_front():
    slot = variables(0, 3, SUPER).slot
    f = m(0, 3, odd=[1, 3])
    c, df = sderiv(slot["xi3"], f)
    assert (c, df.odd) == (-1, (1,))
    c, df = sderiv(slot["xi1"], f)
    assert (c, df.odd) == (1, (3,))
    assert sderiv(slot["xi2"], f) == (0, None)


@pytest.mark.parametrize("var", [("x", 1), ("xi", 1), ("xi", 2)])
def test_derivative_graded_leibniz(var):
    # d(fg) = d(f) g + (-1)^(|d| |f|) f d(g), exhaustive over small monomials
    p, q = 1, 2
    V = variables(p, q, SUPER)
    name = f"{var[0]}{var[1]}"
    slot, ddeg = V.slot[name], -V.degrees[name]
    monos = []
    for e in range(3):
        for odd in ([], [1], [2], [1, 2]):
            cand = m(p, q, even=[(1, e)], odd=odd)
            if smono_degree(V, cand) <= 6:
                monos.append(cand)
    for f in monos:
        for g in monos:
            fg = poly_mul(Element.of(f), Element.of(g))
            lhs = Element.zero()
            for mono, c in fg.items():
                k, dm = sderiv(slot, mono)
                if dm is not None:
                    lhs = lhs + Element.of(dm, c * k)
            rhs = Element.zero()
            k, dm = sderiv(slot, f)
            if dm is not None:
                rhs = rhs + poly_mul(Element.of(dm, k), Element.of(g))
            k, dm = sderiv(slot, g)
            if dm is not None:
                sign = -1 if (ddeg * smono_degree(V, f)) % 2 else 1
                rhs = rhs + poly_mul(Element.of(f), Element.of(dm, k)).scale(sign)
            assert lhs == rhs, (f, g, name)


def test_parse_poly():
    p = parse_poly("x1*x2 - 2*xi1", variables(2, 1, SUPER))
    assert p.coefficient(m(2, 1, even=[(1, 1), (2, 1)])) == 1
    assert p.coefficient(m(2, 1, odd=[1])) == -2
    assert parse_poly("xi2*xi1", variables(1, 2, SUPER)) == Element.of(m(1, 2, odd=[1, 2]), -1)
    assert parse_poly("3/2", variables(1, 0, SUPER)) == Element.of(smono_one(1), Fraction(3, 2))
    # an odd variable to the power 0 is 1, not the variable
    V = variables(1, 1, SUPER)
    assert parse_poly("xi1^0*x1", V) == parse_poly("x1", V)
    with pytest.raises(ValueError):
        parse_poly("x9", variables(2, 1, SUPER))
    # every sign starts a term: a stray one is refused, not read as another polynomial
    V2 = variables(2, 0, SUPER)
    assert parse_poly("+x1 - x2", V2) == parse_poly("x1", V2) - parse_poly("x2", V2)
    for text in ("x1 - -x2", "x1-+x2", "x1+", "-"):
        with pytest.raises(ValueError, match=f"a sign starts no term in '{re.escape(text)}'"):
            parse_poly(text, V2)
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        parse_poly("x1*1/0", V2)
    # whitespace stands only around +, - and * and at the ends: inside a
    # factor it used to vanish ('1 2' read as 12, 'x 1' as x1)
    assert parse_poly(" x1 *x2\t+ 1 ", V2) == parse_poly("x1*x2+1", V2)
    for text in ("1 2", "x 1", "x1*x 2", "1 / 2"):
        with pytest.raises(ValueError, match=f"whitespace inside a factor in '{re.escape(text)}'"):
            parse_poly(text, V2)
    # an empty or unreadable factor names itself and the text
    for text in ("x1*-x2", "*x1", "x1**x2", "x1*"):
        with pytest.raises(ValueError, match=f"empty factor in '{re.escape(text)}'"):
            parse_poly(text, V2)
    # a coefficient is an integer or integer/integer: decimals, exponents and
    # digit separators, which Fraction would read, are refused too
    assert parse_poly("x1*007/2*2", V2) == parse_poly("7*x1", V2)
    for text, factor in (
        ("x1^", "x1^"), ("x1*1e-1", "1e"), ("3*x", "x"),
        ("x1*0.5", "0.5"), ("x1*.5", ".5"), ("x1*1e5", "1e5"), ("x1*1E2", "1E2"),
        ("x1*1_000", "1_000"), ("x1*1e-5", "1e"), ("x1*1/2/3", "1/2/3"), ("x1*\u0663", "\u0663"),
    ):
        named = f"factor '{re.escape(factor)}' is neither a coordinate power nor a rational in"
        with pytest.raises(ValueError, match=f"{named} '{re.escape(text)}'"):
            parse_poly(text, V2)


# polyvectors are functions on T*[1]R^{p|q}: the even coordinates are
# x1..xp, dxi1..dxiq and the odd ones xi1..xiq, dx1..dxp


def pv(p, q, coef=None, dx=(), dxi=()):
    """The polyvector coef ^ dx_I ^ dxi_J on R^{p|q}."""
    coef = coef if coef is not None else smono_one(p)
    dxi_exponents = tuple(list(dxi).count(j) for j in range(1, q + 1))
    return SMono(coef.even + dxi_exponents, coef.odd + tuple(q + i for i in dx))


def tpoly(p, q):
    """The canonical tensor on T*[1]R^{p|q} in the T_poly grading."""
    degrees, _, b = GRADINGS["tpoly"]
    return canonical_tensor(variables(p, q, degrees), b)


def test_wedge_examples():
    dx1 = pv(2, 0, dx=[1])
    assert smono_mul(dx1, dx1) == (0, None)
    x1 = pv(2, 0, coef=m(2, 0, even=[(1, 1)]))
    x2 = pv(2, 0, coef=m(2, 0, even=[(2, 1)]))
    s1, v1 = smono_mul(x1, x2)
    s2, v2 = smono_mul(x2, x1)
    assert (s1, v1) == (s2, v2) == (1, pv(2, 0, coef=m(2, 0, even=[(1, 1), (2, 1)])))
    xi1 = pv(0, 2, coef=m(0, 2, odd=[1]))
    xi2 = pv(0, 2, coef=m(0, 2, odd=[2]))
    sa, va = smono_mul(xi1, xi2)
    sb, vb = smono_mul(xi2, xi1)
    assert va == vb and sa == -sb


def test_wedge_is_graded_commutative_and_associative():
    V = tpoly(1, 1).variables
    monos = [
        pv(1, 1),
        pv(1, 1, coef=m(1, 1, even=[(1, 1)])),
        pv(1, 1, coef=m(1, 1, odd=[1])),
        pv(1, 1, dx=[1]),
        pv(1, 1, dxi=[1]),
        pv(1, 1, coef=m(1, 1, odd=[1]), dx=[1]),
    ]
    for v1 in monos:
        for v2 in monos:
            lhs = poly_mul(Element.of(v1), Element.of(v2))
            sign = -1 if (smono_degree(V, v1) * smono_degree(V, v2)) % 2 else 1
            rhs = poly_mul(Element.of(v2), Element.of(v1)).scale(sign)
            assert lhs == rhs, (v1, v2)
            for v3 in monos:
                a = poly_mul(lhs, Element.of(v3))
                b = poly_mul(Element.of(v1), poly_mul(Element.of(v2), Element.of(v3)))
                assert a == b


def test_schouten_examples():
    T = tpoly(2, 0)
    # constant-coefficient fields commute; functions bracket to zero
    assert poisson_bracket_mono(T, pv(2, 0, dx=[1]), pv(2, 0, dx=[2])).is_zero()
    f1 = pv(2, 0, coef=m(2, 0, even=[(1, 1)]))
    f2 = pv(2, 0, coef=m(2, 0, even=[(2, 1)]))
    assert poisson_bracket_mono(T, f1, f2).is_zero()
    # [dx1, x1^2 dx2] = 2 x1 dx2 with this sign convention
    got = poisson_bracket_mono(T, pv(2, 0, dx=[1]), pv(2, 0, coef=m(2, 0, even=[(1, 2)]), dx=[2]))
    want = Element.of(pv(2, 0, coef=m(2, 0, even=[(1, 1)]), dx=[2]), 2)
    assert got == want
    # [dxi1, xi1 dxi2] = dxi2: the even fiber dxi1 acts as d/dxi1 too, which
    # pins omega^{xi,dxi} = +1 where omega^{x,dx} = -1
    xi1_dxi2 = pv(0, 2, coef=m(0, 2, odd=[1]), dxi=[2])
    got = poisson_bracket_mono(tpoly(0, 2), pv(0, 2, dxi=[1]), xi1_dxi2)
    assert got == Element.of(pv(0, 2, dxi=[2]))


def vector_fields(p, q, max_coef_degree):
    coefs = []
    for e1 in range(max_coef_degree + 1):
        for e2 in range(max_coef_degree + 1):
            for odd in ([], [1]) if q else ([],):
                cand = m(p, q, even=[(1, e1)] + ([(2, e2)] if p > 1 else []), odd=odd)
                if sum(cand.even) <= max_coef_degree:
                    coefs.append(cand)
    slots = [((i,), ()) for i in range(1, p + 1)] + [((), (j,)) for j in range(1, q + 1)]
    return [pv(p, q, coef=c, dx=dx, dxi=dxi) for c in coefs for dx, dxi in slots]


def test_schouten_matches_vector_field_oracle():
    T = tpoly(2, 1)
    fields = vector_fields(2, 1, 2)
    for v1 in fields:
        for v2 in fields:
            want = vf_bracket_oracle(T.variables, v1, v2)
            assert poisson_bracket_mono(T, v1, v2) == want, (v1, v2)


def random_homogeneous_polyvector(rng, pool, T):
    degree = rng.choice(sorted({smono_degree(T.variables, v) for v in pool}))
    bucket = [v for v in pool if smono_degree(T.variables, v) == degree]
    terms = rng.randint(1, 3)
    out = Element.zero()
    for _ in range(terms):
        out = out + Element.of(rng.choice(bucket), rng.choice([-2, -1, 1, 2]))
    return out, degree


def polyvector_pool(p, q, max_coef_degree, max_rank):
    pool = []
    for e1 in range(max_coef_degree + 1):
        for odd in ([], [1]) if q else ([],):
            coef = m(p, q, even=[(1, e1)], odd=odd)
            for r_dx in range(min(p, max_rank) + 1):
                for dx in itertools.combinations(range(1, p + 1), r_dx):
                    for r_dxi in range(max_rank - r_dx + 1):
                        for dxi in itertools.combinations_with_replacement(range(1, q + 1), r_dxi):
                            pool.append(pv(p, q, coef=coef, dx=dx, dxi=dxi))
    return pool


def test_schouten_graded_properties_random():
    rng = random.Random(11)
    T = tpoly(2, 1)
    pool = polyvector_pool(2, 1, 2, 2)
    for _ in range(60):
        x, dx_ = random_homogeneous_polyvector(rng, pool, T)
        y, dy = random_homogeneous_polyvector(rng, pool, T)
        z, dz = random_homogeneous_polyvector(rng, pool, T)
        # antisymmetry on the degree-(+1) bracket: [x,y] = -(-1)^((dx+1)(dy+1)) [y,x]
        sign = -1 if ((dx_ + 1) * (dy + 1)) % 2 else 1
        assert (poisson_bracket(T, x, y) + poisson_bracket(T, y, x).scale(sign)).is_zero()
        # graded Jacobi
        total = Element.zero()
        for (u, du), (v, dv), (w, dw) in (
            ((x, dx_), (y, dy), (z, dz)),
            ((y, dy), (z, dz), (x, dx_)),
            ((z, dz), (x, dx_), (y, dy)),
        ):
            sign = -1 if ((du + 1) * (dw + 1)) % 2 else 1
            total = total + poisson_bracket(T, poisson_bracket(T, u, v), w).scale(sign)
        assert total.is_zero()
        # Leibniz with the wedge
        lhs = poisson_bracket(T, x, poly_mul(y, z))
        rhs = poly_mul(poisson_bracket(T, x, y), z) + poly_mul(
            y, poisson_bracket(T, x, z)
        ).scale(-1 if (dy * (dx_ + 1)) % 2 else 1)
        assert lhs == rhs


def constant_tensor(p, m_deg=-4):
    one = Element.of(smono_one(p))
    omega = {("x1", "x2"): one, ("x2", "x1"): one.scale(-1)}
    return PoissonTensor(variables(p, 0, SUPER), m_deg, omega)


def test_poisson_bracket_examples():
    T = constant_tensor(2)
    x1 = Element.of(m(2, 0, even=[(1, 1)]))
    x2 = Element.of(m(2, 0, even=[(2, 1)]))
    assert poisson_bracket(T, x1, x2) == Element.of(smono_one(2))
    assert poisson_bracket(T, Element.of(smono_one(2)), x2).is_zero()


def test_poisson_bracket_antisymmetry_random():
    T = constant_tensor(2)
    rng = random.Random(3)
    monos = [m(2, 0, even=[(1, e1), (2, e2)]) for e1 in range(3) for e2 in range(3)]
    for _ in range(50):
        f = Element.of(rng.choice(monos), rng.choice([-2, -1, 1, 2]))
        g = Element.of(rng.choice(monos), rng.choice([-2, -1, 1, 2]))
        df = smono_degree(T.variables, next(iter(f.items()))[0])
        dg = smono_degree(T.variables, next(iter(g.items()))[0])
        sign = -1 if ((df + T.m) * (dg + T.m)) % 2 else 1
        assert (poisson_bracket(T, f, g) + poisson_bracket(T, g, f).scale(sign)).is_zero()


def test_tensor_condition_checks():
    records = check_poisson_tensor(constant_tensor(2), "tensor")
    assert all(c.status == "pass" for c in records)
    assert [(c.check, c.instance) for c in records] == [
        ("tensor-homogeneity", "tensor"), ("tensor-graded-symmetry", "tensor"), ("tensor-cyclic-closure", "tensor")
    ]
    assert records[2].evaluated == 2**3  # the cyclic closure sweeps every index triple
    one = Element.of(smono_one(2))
    V = variables(2, 0, SUPER)
    symmetric = PoissonTensor(V, -4, {("x1", "x2"): one, ("x2", "x1"): one})
    bad = {c.check: c.status for c in check_poisson_tensor(symmetric, "tensor")}
    assert bad["tensor-graded-symmetry"] == "fail"
    assert all(c.status == "pass" for c in check_poisson_tensor(PoissonTensor(V, -4, {}), "tensor"))


@pytest.mark.parametrize("name", ["polyvector-even", "schouten-super", "gerstenhaber-toy"])
def test_canonical_tensor_passes_the_tensor_checks(name):
    """The Schouten bracket is the Poisson bracket of the canonical tensor,
    which is a Poisson tensor at each polyvector builtin's own grading;
    negating one entry of a pair breaks its graded symmetry."""
    inst = builtin_instance(name)
    p, q, grading = inst.params["p"], inst.params["q"], inst.params["grading"]
    degrees, a, b = GRADINGS[grading]
    assert (a, b) == (inst.algebra.a, inst.algebra.b)
    T = canonical_tensor(variables(p, q, degrees), b)
    assert [c.status for c in check_poisson_tensor(T, "tensor")] == ["pass"] * 3
    flipped = dict(T.omega)
    flipped["x1", "dx1"] = flipped["x1", "dx1"].scale(-1)
    by_name = {c.check: c for c in check_poisson_tensor(PoissonTensor(T.variables, b, flipped), "tensor")}
    assert by_name["tensor-graded-symmetry"].status == "fail"
    assert "omega[x1,dx1] vs omega[dx1,x1]" in by_name["tensor-graded-symmetry"].witness


def test_builtin_degree_bookkeeping():
    even = builtin_instance("polyvector-even", {"max_coef_degree": 4})
    A = even.algebra
    assert (A.a, A.b) == (0, -3)
    assert A.unshifted["dx1^dx2"] == 2  # rank two, constant coefficient
    assert A.unshifted["x1^2^dx1"] == 5  # 2m + k with m = 2, k = 1
    tpoly = builtin_instance("schouten-super").algebra
    assert (tpoly.a, tpoly.b) == (0, 1)
    assert tpoly.unshifted["x1"] == 2 and tpoly.unshifted["xi1"] == 1
    assert tpoly.unshifted["dx1"] == -3 and tpoly.unshifted["dxi1"] == -2
    poisson = builtin_instance("poisson-polynomial").algebra
    assert (poisson.a, poisson.b) == (0, 0)  # 2m - 4 with m = 2
    super4 = builtin_instance("poisson-super").algebra
    assert (super4.a, super4.b) == (0, -4)


def test_bracket_degree_laws_on_builders():
    even = builtin_instance("polyvector-even").algebra
    g1 = even.gen("x1^dx1")
    g2 = even.gen("dx1^dx2")
    out = even.bracket(g1, g2)
    for g, _ in out.items():
        assert even.unshifted[g.gid] == even.unshifted[g1.gid] + even.unshifted[g2.gid] - 3


def test_every_builtin_passes_structure_checks():
    for name in sorted(BUILTINS):
        inst = builtin_instance(name)
        for c in inst.check_structure():
            assert c.status != "fail", (name, c.check, c.witness)


def test_truncation_overflow_is_raised():
    inst = builtin_instance("poisson-super", {"max_degree": 2})
    A = inst.algebra
    x1 = A.gen("x1")
    with pytest.raises(TruncationOverflow):
        A.product(x1, x1)


def test_unknown_builtin_and_params_rejected():
    with pytest.raises(KeyError):
        builtin_instance("mystery")
    with pytest.raises(ValueError):
        builtin_instance("poisson-super", {"nope": 1})
