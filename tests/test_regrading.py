"""Regrading by a shift changes no report.

The map (a, b, |x|) -> (a + s, b + s, |x| - s) keeps every shifted
degree dg = |x| + a - 1 and the difference a - b, so it keeps every
generator and the whole envelope.  The kernels read a and b only through
dg and a - b, and the probe choice reads |x| + a = dg + 1, so the
``verify-envelope`` (core and envelope suites) and ``mutation`` reports
of a regraded builtin must be byte-identical to its own.  The regraded
algebra keeps its name, so the reports carry the same labels.
"""

import dataclasses
import functools

import pytest

from abhomotopy.instances import BUILTINS, builtin_instance
from abhomotopy.suites import SuiteConfig, run_mutation, run_verify_envelope

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
