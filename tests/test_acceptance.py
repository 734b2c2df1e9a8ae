"""Acceptance suite: one test per criterion, each printing a pass line.

Everything is exact rational arithmetic, so every tolerance is zero;
the stated wall-clock budgets are asserted as well.  Run with
``pytest -v tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from abhomotopy.freemodule import Element
from abhomotopy.instances import (
    GRADINGS,
    SUPER,
    PoissonTensor,
    SMono,
    builtin_instance,
    canonical_tensor,
    check_poisson_tensor,
    parse_poly,
    poisson_bracket,
    poly_mul,
    smono_degree,
    smono_one,
    variables,
)
from abhomotopy.signs import koszul_sign, koszul_sign_by_swaps
from abhomotopy.suites import RunContext, SuiteConfig, check_identity, run_mutation

INSTANCE_NAMES = ("poisson-polynomial", "schouten-super", "poisson-super")


@contextmanager
def budget(criterion: str, seconds: float):
    start = time.monotonic()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.monotonic() - start
        verdict = "FAIL" if failed else "PASS"
        print(f"acceptance {criterion}: {verdict} ({elapsed:.1f}s of {seconds:.0f}s budget)")
        if not failed:
            assert elapsed < seconds, f"{criterion} exceeded its {seconds}s budget"


@pytest.fixture(scope="module")
def contexts():
    cfg = SuiteConfig(max_word_len=3, max_sym_factors=3, max_total_letters=4, probe_gens=3)
    return {name: RunContext(builtin_instance(name), cfg) for name in INSTANCE_NAMES}


def assert_pass(record):
    assert record.status == "pass", (record.check, record.instance, record.witness)


def test_criterion_01_sign_oracle_equivalence():
    with budget("01 sign-oracle-equivalence", 10):
        for n in range(1, 6):
            for sigma in itertools.permutations(range(n)):
                for degs in itertools.product((0, 1), repeat=n):
                    assert koszul_sign(degs, sigma) == koszul_sign_by_swaps(degs, sigma)


def test_criterion_02_shuffle_laws(contexts):
    ctx = contexts["poisson-super"]  # generic letters: the instance is not read
    with budget("02 shuffle-laws", 60):
        assert_pass(check_identity("shuffle-commutativity", ctx))
        assert_pass(check_identity("shuffle-associativity", ctx))


def test_criterion_03_cobracket_laws(contexts):
    ctx = contexts["poisson-super"]  # generic letters: the instance is not read
    with budget("03 cobracket-laws", 60):
        assert_pass(check_identity("cobracket-coantisymmetry", ctx))
        assert_pass(check_identity("cobracket-cojacobi", ctx))


def test_criterion_04_codifferential_laws(contexts):
    with budget("04 codifferential-laws", 120 * len(INSTANCE_NAMES)):
        for name in INSTANCE_NAMES:
            assert_pass(check_identity("codifferential-squared", contexts[name]))
            assert_pass(check_identity("codifferential-coderivation", contexts[name]))


def test_criterion_05_bracket_extension_compatibility(contexts):
    with budget("05 bracket-extension-compatibility", 120):
        for name in INSTANCE_NAMES:
            assert_pass(check_identity("bracket-extension-oracle", contexts[name]))
            assert_pass(check_identity("bracket-extension-compatibility", contexts[name]))


def test_criterion_06_lie_suites(contexts):
    with budget("06 lie-suites", 120):
        for name in INSTANCE_NAMES:
            ctx = contexts[name]
            assert_pass(check_identity("lie-bracket-antisymmetry", ctx))
            assert_pass(check_identity("lie-bracket-jacobi", ctx))
            assert_pass(check_identity("lie-bracket-differential", ctx))
            assert_pass(check_identity("sym-bracket-symmetry", ctx))
            assert_pass(check_identity("sym-bracket-jacobi", ctx))
            assert_pass(check_identity("sym-bracket-differential", ctx))


def test_criterion_07_envelope_codifferential(contexts):
    with budget("07 envelope-codifferential", 600):
        for name in INSTANCE_NAMES:
            assert_pass(check_identity("codifferential-q-squared", contexts[name]))
            assert_pass(check_identity("codifferential-q-coderivation", contexts[name]))


def test_criterion_08_sym_cobracket_suite(contexts):
    with budget("08 sym-cobracket-suite", 600):
        for name in INSTANCE_NAMES:
            ctx = contexts[name]
            assert_pass(check_identity("sym-cobracket-coantisymmetry", ctx))
            assert_pass(check_identity("sym-cobracket-cojacobi", ctx))
            assert_pass(check_identity("sym-cobracket-coleibniz", ctx))
            assert_pass(check_identity("sym-cobracket-m-twist", ctx))
            assert_pass(check_identity("sym-cobracket-ell-twist", ctx))


def test_criterion_09_specializations():
    with budget("09 specializations", 120):
        cfg = SuiteConfig(max_word_len=2, probe_gens=3)
        toy = RunContext(builtin_instance("gerstenhaber-toy"), cfg)
        assert toy.algebra.a - toy.algebra.b == 1
        assert_pass(check_identity("specialization-gerstenhaber", toy))
        pois = RunContext(builtin_instance("poisson-polynomial"), cfg)
        assert pois.algebra.a - pois.algebra.b == 0
        assert_pass(check_identity("specialization-poisson", pois))


def test_criterion_10_tensor_conditions():
    with budget("10 tensor-conditions", 60):
        one = Element.of(smono_one(2))
        V2 = variables(2, 0, SUPER)
        valid = PoissonTensor(V2, -4, {("x1", "x2"): one, ("x2", "x1"): one.scale(-1)})
        assert all(c.status == "pass" for c in check_poisson_tensor(valid, "tensor"))

        symmetric = PoissonTensor(V2, -4, {("x1", "x2"): one, ("x2", "x1"): one})
        by_name = {c.check: c for c in check_poisson_tensor(symmetric, "tensor")}
        assert by_name["tensor-graded-symmetry"].status == "fail"

        V3 = variables(3, 0, SUPER)
        w12, w13 = parse_poly("x1", V3), parse_poly("x2", V3)
        crooked = PoissonTensor(
            V3,
            -2,
            {
                ("x1", "x2"): w12,
                ("x2", "x1"): w12.scale(-1),
                ("x1", "x3"): w13,
                ("x3", "x1"): w13.scale(-1),
            },
        )
        by_name = {c.check: c for c in check_poisson_tensor(crooked, "tensor")}
        record = by_name["tensor-cyclic-closure"]
        assert record.status == "fail"
        assert "(x1,x2,x3)" in record.witness  # concrete index-triple witness


# polyvectors on R^{2|1} as functions on T*[1]R^{2|1}: the even coordinates
# are x1, x2, dxi1 and the odd ones xi1, dx1, dx2
SCHOUTEN = canonical_tensor(variables(2, 1, GRADINGS["tpoly"][0]), GRADINGS["tpoly"][2])


def _schouten_pool():
    pool = []
    for e1 in range(3):
        for e2 in range(3 - e1):
            for odd in ((), (1,)):
                for dx in ((), (1,), (2,), (1, 2)):
                    for dxi in ((), (1,), (1, 1)):
                        if len(dx) + len(dxi) <= 2:
                            pool.append(SMono((e1, e2, len(dxi)), odd + tuple(1 + i for i in dx)))
    return pool


def _tpoly_degree(v):
    return smono_degree(SCHOUTEN.variables, v)


def _schouten(x, y):
    return poisson_bracket(SCHOUTEN, x, y)


def _random_homogeneous(rng, pool):
    degree = rng.choice(sorted({_tpoly_degree(v) for v in pool}))
    bucket = [v for v in pool if _tpoly_degree(v) == degree]
    out = Element.zero()
    for _ in range(rng.randint(1, 3)):
        out = out + Element.of(rng.choice(bucket), rng.choice([-2, -1, 1, 2]))
    return out, degree


def test_criterion_11_schouten_properties():
    with budget("11 schouten-properties", 300):
        rng = random.Random(2024)
        pool = _schouten_pool()
        for _ in range(200):
            x, dx = _random_homogeneous(rng, pool)
            y, dy = _random_homogeneous(rng, pool)
            z, dz = _random_homogeneous(rng, pool)
            sign = -1 if ((dx + 1) * (dy + 1)) % 2 else 1
            assert (_schouten(x, y) + _schouten(y, x).scale(sign)).is_zero()
            total = Element.zero()
            for (u, du), (v, dv), (w, dw) in (
                ((x, dx), (y, dy), (z, dz)),
                ((y, dy), (z, dz), (x, dx)),
                ((z, dz), (x, dx), (y, dy)),
            ):
                jac_sign = -1 if ((du + 1) * (dw + 1)) % 2 else 1
                total = total + _schouten(_schouten(u, v), w).scale(jac_sign)
            assert total.is_zero()
            lhs = _schouten(x, poly_mul(y, z))
            rhs = poly_mul(_schouten(x, y), z) + poly_mul(
                y, _schouten(x, z)
            ).scale(-1 if (dy * (dx + 1)) % 2 else 1)
            assert lhs == rhs


def test_criterion_12_mutation_sensitivity():
    with budget("12 mutation-sensitivity", 600):
        cfg = SuiteConfig(
            algebra="poisson-super",
            seed=7,
            max_word_len=2,
            max_sym_factors=2,
            max_total_letters=3,
        )
        report = run_mutation(cfg, rounds=10)
        for record in report.records:
            assert record.status == "pass", (record.instance, record.witness)
            assert "detected by" in record.witness
        assert report.status == "pass"
