"""The four workloads: what each run calls, and with which inputs.

Every timed call runs in a fresh interpreter (see ``child.py``), so the
package's module-level ``QUOTIENT`` cache starts empty, as it does for a
command-line user.  ``calls`` lists those per-process calls for one
iteration of a workload.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("coalgebra", "envelope-deep", "mutation", "quotient")

# The mutation seed and round count are fixed here, not taken from --seed:
# a mutant costs ~0.05 s when a check catches it and 5-25 s when the whole
# ladder runs, so mutants drawn from a varying seed make the run time
# bimodal, and no affordable round count makes that steady.  The seed 1
# and two rounds per builtin were fixed for cost (a third round adds a
# ~10 s schouten-super round), not for their outcomes.
MUTATION_SEED = 1
MUTATION_ROUNDS = 2
MUTATION_BUILTINS = (
    "gerstenhaber-toy",
    "poisson-polynomial",
    "poisson-super",
    "polyvector-even",
    "schouten-super",
)
_MUTATION_SIZES = ("--max-word-len", "2", "--max-sym-factors", "2", "--max-total-letters", "3")

_ARGV = {
    "coalgebra": ("verify-envelope", "--suites", "coalgebra", "--format", "json"),
    "envelope-deep": (
        "verify-envelope", "--algebra", "gerstenhaber-toy", "--suites", "core,envelope",
        "--probe-gens", "4", "--format", "json",
    ),
}


def mutation_argv(builtin: str) -> list[str]:
    return ["mutation", "--algebra", builtin, "--seed", str(MUTATION_SEED),
            "--rounds", str(MUTATION_ROUNDS), *_MUTATION_SIZES, "--format", "json"]


def calls(workload: str, seed: int) -> list[dict]:
    """The fresh-process calls making up one iteration of ``workload``."""
    if workload in _ARGV:
        return [{"argv": list(_ARGV[workload])}]
    if workload == "mutation":
        # --seed only orders the builtins; each runs in its own process
        order = list(MUTATION_BUILTINS)
        random.Random(seed).shuffle(order)
        return [{"argv": mutation_argv(b), "builtin": b} for b in order]
    if workload == "quotient":
        return [{"quotient": True}]
    raise ValueError(f"unknown workload {workload!r}")


def setup_configs(workload: str) -> list[dict]:
    """SuiteConfig keyword sets whose instance and probe families the
    workload's command builds before its first check."""
    if workload == "coalgebra":
        return [{"suites": ["coalgebra"]}]
    if workload == "envelope-deep":
        return [{"algebra": "gerstenhaber-toy", "probe_gens": 4, "suites": ["core", "envelope"]}]
    if workload == "mutation":
        return [
            {"algebra": b, "max_word_len": 2, "max_sym_factors": 2, "max_total_letters": 3,
             "seed": MUTATION_SEED, "suites": ["core", "envelope"]}
            for b in MUTATION_BUILTINS
        ]
    return []


# -- quotient blocks ------------------------------------------------------------
#
# A block is a letter multiset given as (letter id, shifted degree) pairs.
# Distinct letters: the quotient rank is (n-1)!.  Repeated letters: an odd
# square survives with rank 1 and an even square dies with rank 0; the
# other multisets are checked against the ranks recorded at the seed.

DISTINCT_BLOCKS = (
    (("a1", 1), ("a2", 0), ("a3", 1)),
    (("a1", 1), ("a2", 0), ("a3", 1), ("a4", 0)),
    (("a1", 1), ("a2", 0), ("a3", 1), ("a4", 0), ("a5", 1)),
    (("a1", 0), ("a2", 0), ("a3", 0), ("a4", 0), ("a5", 0)),
    (("a1", 1), ("a2", 0), ("a3", 1), ("a4", 0), ("a5", 1), ("a6", 0)),
    (("a1", 1), ("a2", 1), ("a3", 1), ("a4", 1), ("a5", 1)),
)
SQUARE_BLOCKS = (
    (("o", 1), ("o", 1)),
    (("e", 0), ("e", 0)),
)
MULTISET_BLOCKS = (
    (("o", 1), ("o", 1), ("o", 1)),
    (("e", 0), ("e", 0), ("e", 0)),
    (("o", 1), ("o", 1), ("e", 0)),
    (("e", 0), ("e", 0), ("o", 1)),
    (("o", 1), ("o", 1), ("e", 0), ("e", 0)),
    (("o", 1), ("o", 1), ("o", 1), ("e", 0)),
    (("o", 1), ("o", 1), ("p", 1), ("e", 0), ("f", 0)),
    (("o", 1), ("o", 1), ("e", 0), ("e", 0), ("f", 0)),
    (("o", 1), ("o", 1), ("e", 0), ("e", 0), ("f", 0), ("f", 0)),
    (("o", 1), ("o", 1), ("o", 1), ("e", 0), ("e", 0), ("e", 0)),
    (("o", 1), ("o", 1), ("p", 1), ("p", 1), ("e", 0), ("f", 0)),
)
QUOTIENT_BLOCKS = DISTINCT_BLOCKS + SQUARE_BLOCKS + MULTISET_BLOCKS


def block_name(block) -> str:
    return ",".join(f"{gid}:{deg}" for gid, deg in block)


def quotient_inputs(seed: int) -> list[tuple[str, list[tuple]]]:
    """(block name, its distinct words as (letter id, degree) tuples), seeded order.

    The order of blocks and of words within a block is the only thing
    the seed changes: a block's reduced span is built on its first query
    and is the same whichever query comes first.
    """
    rng = random.Random(seed)
    out = []
    for block in QUOTIENT_BLOCKS:
        words = sorted(set(itertools.permutations(block)))
        rng.shuffle(words)
        out.append((block_name(block), words))
    rng.shuffle(out)
    return out
