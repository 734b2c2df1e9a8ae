"""Regrading by a shift changes no report.

The map (a, b, |x|) -> (a + s, b + s, |x| - s) keeps every shifted
degree dg = |x| + a - 1 and the difference a - b, so it keeps every
generator and the whole envelope.  The kernels read a and b only through
dg and a - b, and the probe choice reads |x| + a = dg + 1, so the
``verify-envelope`` (core and envelope suites) and ``mutation`` reports
of a regraded builtin must be byte-identical to its own.  The regraded
algebra keeps its name, so the reports carry the same labels.

Relabeling changes no count either.  Renaming every generator so that
the id order reverses gives an isomorphic algebra, so with the images of
the parent's probes as its probes, every CORE and ENVELOPE row keeps its
status and its evaluated and skipped counts.  Letters order by (id,
degree), so the reversal reorders the canonical syms and the Koszul
signs of their representatives: a sign that follows the id order, not
the degrees, shows here.

Rescaling changes no count either.  Moving the structure along the
linear isomorphism g -> lambda_g g, lambda_g nonzero, gives an isomorphic
algebra whose structure constants are the parent's times lambda_k /
(lambda_g lambda_h) (lambda_k / lambda_g for the differential), so with
the same probes forced on both, every CORE and ENVELOPE row keeps its
status and its evaluated and skipped counts.  A uniform factor 2 halves every
product and bracket, so the kernels run in ``Fraction`` arithmetic
throughout.
"""

import dataclasses
import functools
import math
from fractions import Fraction

import pytest

from abhomotopy import suites
from abhomotopy.ab_core import AbAlgebra, TruncationOverflow
from abhomotopy.freemodule import Element
from abhomotopy.instances import BUILTINS, builtin_instance
from abhomotopy.suites import (
    CORE,
    ENVELOPE,
    RunContext,
    SuiteConfig,
    check_identity,
    run_mutation,
    run_verify_envelope,
)
from abhomotopy.tensor_coalgebra import Generator
from test_slot_memo import FORCED

FAST = dict(max_word_len=2, max_sym_factors=2, max_total_letters=3, probe_gens=2)


def regraded(instance, s):
    """``instance`` with a, b raised by ``s`` and every |x| lowered by ``s``."""
    A = instance.algebra
    unshifted = {gid: d - s for gid, d in A.unshifted.items()}
    algebra = dataclasses.replace(A, a=A.a + s, b=A.b + s, unshifted=unshifted)
    return dataclasses.replace(instance, algebra=algebra)


@functools.cache
def reports(builtin, s):
    """The verify-envelope and mutation reports of ``builtin`` regraded by ``s``."""
    config = SuiteConfig(algebra=builtin, suites=("core", "envelope"), seed=1, **FAST)
    envelope = run_verify_envelope(config, regraded(builtin_instance(builtin), s))
    mutation = run_mutation(config, 2, regraded(builtin_instance(builtin), s))
    return envelope.to_json(), mutation.to_json()


@pytest.mark.parametrize("s", [-1, 1, 2])
@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_regrading_changes_no_report(builtin, s):
    A = regraded(builtin_instance(builtin), s).algebra
    assert [g.deg for g in A.generators] == [g.deg for g in builtin_instance(builtin).algebra.generators]
    assert all(g.deg == A.unshifted[g.gid] + A.a - 1 for g in A.generators)
    assert reports(builtin, s) == reports(builtin, 0)


def relabeled(instance):
    """``instance`` with its generator ids renamed so that their order
    reverses, and the renaming old id -> new id."""
    A = instance.algebra
    ids = sorted(A.unshifted)
    new = {gid: f"r{len(ids) - 1 - i:03d}" for i, gid in enumerate(ids)}
    old = {v: k for k, v in new.items()}
    letter = {g.gid: Generator(new[g.gid], g.deg) for g in A.generators}

    def renamed(fn):
        return lambda *gids: Element({letter[g.gid]: c for g, c in fn(*(old[x] for x in gids)).terms.items()})

    algebra = AbAlgebra(
        A.name, A.a, A.b,
        tuple(letter[g.gid] for g in A.generators),
        {new[gid]: d for gid, d in A.unshifted.items()},
        renamed(A.product_fn), renamed(A.bracket_fn), renamed(A.diff_fn),
    )
    return dataclasses.replace(instance, algebra=algebra), new


def rescaled(instance, factors):
    """``instance`` moved along g -> lambda_g g, where generator i (in the
    algebra's order) has lambda = ``factors[i % len(factors)]``; ids stay."""
    A = instance.algebra
    lam = {g.gid: Fraction(factors[i % len(factors)]) for i, g in enumerate(A.generators)}

    def moved(fn):
        def image(*gids):
            k = math.prod(lam[gid] for gid in gids)
            return Element.from_terms((g, c * lam[g.gid] / k) for g, c in fn(*gids).terms.items())

        return image

    algebra = AbAlgebra(
        A.name, A.a, A.b, A.generators, dict(A.unshifted),
        moved(A.product_fn), moved(A.bracket_fn), moved(A.diff_fn),
    )
    return dataclasses.replace(instance, algebra=algebra)


def constants(A):
    """Every product and bracket of two generators that stays inside the truncation."""
    out = []
    for op in (A.product, A.bracket):
        for g in A.generators:
            for h in A.generators:
                try:
                    out.append(op(g, h))
                except TruncationOverflow:
                    pass
    return out


def row_counts(instance, probes, monkeypatch):
    """(row, status, evaluated, skipped) of every CORE and ENVELOPE row,
    with exactly ``probes`` (ids, in order) as the probe generators."""
    monkeypatch.setattr(suites, "probe_generators", lambda A, count: [A.gen(gid) for gid in probes])
    ctx = RunContext(instance, SuiteConfig(algebra=instance.algebra.name, **FAST))
    records = [check_identity(name, ctx) for name in {**CORE, **ENVELOPE}]
    return [(r.check, r.status, r.evaluated, r.skipped) for r in records]


@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_relabeling_in_reverse_id_order_changes_no_count(builtin, monkeypatch):
    parent = builtin_instance(builtin)
    image, new = relabeled(parent)
    assert sorted(new, key=new.get) == sorted(new, reverse=True)
    probes = [g.gid for g in suites.probe_generators(parent.algebra, FAST["probe_gens"])]
    want = row_counts(parent, probes, monkeypatch)
    assert row_counts(image, [new[gid] for gid in probes], monkeypatch) == want
    assert all(status == "pass" for _, status, _, _ in want)


@pytest.mark.parametrize(
    "factors", [(2,), (-1,), (3,), (-2,), (2, -1, 3, -2)], ids=["2", "-1", "3", "-2", "cycle"]
)
@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_rescaling_changes_no_count(builtin, factors, monkeypatch):
    """Every generator rescaled by 2, -1, 3 and -2 in turn, and the
    generators by those four factors in cycle.  The probes are forced to
    two generators whose brackets are nonzero, so fractional constants
    reach the bracket extension and the Jacobi rows."""
    parent = builtin_instance(builtin)
    image = rescaled(parent, factors)
    if factors != (-1,):
        assert any(type(c) is Fraction for v in constants(image.algebra) for c in v.terms.values())
    probes = FORCED[builtin]
    want = row_counts(parent, probes, monkeypatch)
    assert row_counts(image, probes, monkeypatch) == want


@pytest.mark.parametrize("s", [-1, 1])
@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_regrading_with_forced_probes_changes_no_count(builtin, s, monkeypatch):
    """Regrading by an odd shift, with the probes forced to two generators
    whose brackets are nonzero, keeps every CORE and ENVELOPE row's status
    and counts.  An odd shift flips the parities of a and b but not of
    a - b, so a kernel sign that reads a or b apart from a - b flips with
    it; the forced probes make the bracket extension's terms reach the
    rows on every builtin, not only where the default probes have a
    nonzero bracket."""
    parent = builtin_instance(builtin)
    probes = FORCED[builtin]
    want = row_counts(parent, probes, monkeypatch)
    assert row_counts(regraded(parent, s), probes, monkeypatch) == want
