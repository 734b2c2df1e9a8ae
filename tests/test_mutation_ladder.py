"""The mutation ladder holds only rows that can fail first on a mutant.

Four rows of ``CORE`` are not on the ladder (``MUTATION_ORDER``), and
these tests pin the reasons its comment gives:

- The table builds ell2'' as ell2' times (-1)^deg_s(x), so each
  symmetric-bracket row is its Lie twin times a sign, input for input, on
  degree-homogeneous maps.  On every builtin, with a probe set that makes
  the bracket nonzero, and on a bracket mutant that breaks Jacobi, each
  twin pair gives the same status, counts and failing input.
- bracket-extension-compatibility holds for every degree-homogeneous
  bracket, since ell2 is built to satisfy it: every single-constant
  mutant of poisson-super passes it.
"""

import pytest

from abhomotopy.instances import Instance
from abhomotopy.suites import RunContext, check_identity, perturb_algebra, perturbation_candidates
from test_slot_memo import FORCED, MUTANT
from test_structure_maps import forced_context

TWINS = {
    "lie-bracket-antisymmetry": "sym-bracket-symmetry",
    "lie-bracket-jacobi": "sym-bracket-jacobi",
    "lie-bracket-differential": "sym-bracket-differential",
}


def mutant_context(parent, choice):
    """The mutant of ``parent``'s algebra by ``choice``, its perturbed
    inputs forced into the probe set as ``run_mutation`` forces them."""
    mutant = Instance(perturb_algebra(parent.algebra, choice), dict(parent.instance.params))
    return RunContext(mutant, parent.config, forced_gens=tuple(dict.fromkeys(choice[1:-1])))


def outcome(record):
    """Status, counts and failing input: the witness without the law's own text."""
    return record.status, record.evaluated, record.skipped, record.witness.rpartition(": ")[0]


@pytest.mark.parametrize("builtin", sorted(FORCED) + ["poisson-super-mutant"])
def test_each_sym_bracket_row_is_its_lie_twin(builtin):
    if builtin == "poisson-super-mutant":
        ctx = mutant_context(forced_context("poisson-super"), MUTANT)
    else:
        ctx = forced_context(builtin)
    outcomes = {lie: (outcome(check_identity(lie, ctx)), outcome(check_identity(sym, ctx)))
                for lie, sym in TWINS.items()}
    for lie, (lie_outcome, sym_outcome) in outcomes.items():
        assert lie_outcome == sym_outcome, lie
        assert lie_outcome[1] > 0, lie
    if builtin == "poisson-super-mutant":
        assert outcomes["lie-bracket-jacobi"][0][0] == "fail"


def test_no_single_constant_mutant_fails_bracket_compatibility():
    parent = forced_context("poisson-super")
    candidates = perturbation_candidates(parent.algebra)
    assert len(candidates) == 182
    for choice in candidates:
        record = check_identity("bracket-extension-compatibility", mutant_context(parent, choice))
        assert record.status == "pass", (choice, record.witness)
