"""Byte-for-byte comparison of CLI reports with stored goldens.

``tests/golden/<builtin>.json`` is the stdout of

    abhomotopy verify-envelope --algebra <builtin> --suites axioms,core,envelope \
        --max-word-len 2 --max-sym-factors 2 --max-total-letters 3 --probe-gens 2 \
        --format json

(the ``FAST`` sizes of ``test_suites_cli.py``); ``half-constant.json`` is
the same command run inside ``tests/golden`` on
``half-constant-algebra.json``, a file algebra with "1/2" constants
whose report carries a fractional witness.  ``mutation-<builtin>.json``
is the stdout of

    abhomotopy mutation --algebra <builtin> --seed 1 --rounds 2 \
        --max-word-len 2 --max-sym-factors 2 --max-total-letters 3 --probe-gens 2 \
        --format json

Three of those ten rounds climb the whole mutation ladder undetected and
the other seven name the first check that fails, so the mutation files
pin the ladder's order, which the verify-envelope files cannot.
``coalgebra.json`` is the stdout of

    abhomotopy verify-envelope --suites coalgebra --format json

at the default sizes: the generic-letter rows, which no other golden runs.
``default-<builtin>.json`` is the stdout of

    abhomotopy verify-envelope --algebra <builtin> --suites core,envelope \
        --format json

at the default sizes, so the instance rows of the default report are
pinned at the sizes a user runs, not only at the ``FAST`` ones.
``four-factors-<builtin>.json`` is the stdout of

    abhomotopy verify-envelope --algebra <builtin> --suites envelope \
        --max-sym-factors 4 --probe-gens 2 --format json

the one golden that runs delta'' and the symmetric-coalgebra rows on
syms of four factors (66 of them on gerstenhaber-toy).

A kernel change that alters any verdict, count or witness text changes
these bytes; the determinism test in ``test_suites_cli.py`` only
compares two runs of the same code and cannot see that.  Regenerate a
golden only for a change that is meant to alter the report, and say
why in CHANGES.md.
"""

from pathlib import Path

import pytest

from fractions import Fraction

from abhomotopy.ab_core import load_algebra
from abhomotopy.cli import main
from abhomotopy.instances import BUILTINS

GOLDEN = Path(__file__).parent / "golden"
FAST_ARGS = [
    "--max-word-len", "2",
    "--max-sym-factors", "2",
    "--max-total-letters", "3",
    "--probe-gens", "2",
]


@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_report_matches_golden(builtin, capsys):
    code = main(
        ["verify-envelope", "--algebra", builtin, "--suites", "axioms,core,envelope",
         *FAST_ARGS, "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{builtin}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_mutation_report_matches_golden(builtin, capsys):
    code = main(
        ["mutation", "--algebra", builtin, "--seed", "1", "--rounds", "2",
         *FAST_ARGS, "--format", "json"]
    )
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"mutation-{builtin}.json").read_text(encoding="utf-8")
    assert code == (1 if "no identity failed on the mutant" in out else 0)


def test_coalgebra_report_matches_golden(capsys):
    code = main(["verify-envelope", "--suites", "coalgebra", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "coalgebra.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_default_report_matches_golden(builtin, capsys):
    code = main(["verify-envelope", "--algebra", builtin, "--suites", "core,envelope",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"default-{builtin}.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("builtin", sorted(BUILTINS))
def test_four_factor_report_matches_golden(builtin, capsys):
    code = main(["verify-envelope", "--algebra", builtin, "--suites", "envelope",
                 "--max-sym-factors", "4", "--probe-gens", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"four-factors-{builtin}.json").read_text(encoding="utf-8")


def test_fractional_constants_report_matches_golden(capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main(
        ["verify-envelope", "--algebra", "half-constant-algebra.json",
         "--suites", "axioms,core,envelope", *FAST_ARGS, "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "lhs = 1/2*w; rhs = -1/2*w" in out
    assert out == (GOLDEN / "half-constant.json").read_text(encoding="utf-8")


def test_fractional_constants_stay_fractions():
    A = load_algebra(str(GOLDEN / "half-constant-algebra.json"))
    u, v = A.gen("u"), A.gen("v")
    for value in (A.product(u, u), A.bracket(u, v), A.mu(u, u)):
        (c,) = (c for _, c in value.items())
        assert type(c) is Fraction and abs(c) == Fraction(1, 2)
