"""Known answers for every workload, checked outside the timed interval.

A *verdict* is one unit the benchmark can call right or wrong:

- ``coalgebra`` / ``envelope-deep``: one check record of the report;
  right when it equals the record recorded at the seed (and so passes);
- ``mutation``: one round; right when the round detects its mutant
  exactly when ``Instance.check_structure()`` finds an axiom failure on
  that mutant (computed by ``child.py`` in its ``truth`` mode);
- ``quotient``: one letter block; right when every shuffle product is
  zero, ``is_zero`` agrees with the normal form, and the rank of the
  normal forms is the expected one.

Wrong verdicts listed in ``expected/mutation.json`` are the program's
known defects at the seed: they count against ``right_verdicts`` like any
other wrong verdict, but do not make a run incorrect.  Any other wrong
verdict does.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from workloads import MUTATION_ROUNDS, QUOTIENT_BLOCKS, SQUARE_BLOCKS, DISTINCT_BLOCKS, block_name

EXPECTED = Path(__file__).resolve().parent / "expected"


def load(name: str):
    with open(EXPECTED / name, encoding="utf-8") as fh:
        return json.load(fh)


def rank(vectors: list[dict]) -> int:
    """Rank over Q of sparse vectors {basis: Fraction}; plain elimination,
    independent of the package's own row reduction."""
    pivots: dict = {}  # pivot basis -> row with coefficient 1 there
    for v in vectors:
        v = {b: Fraction(c) for b, c in v.items() if c}
        for p, row in pivots.items():
            c = v.get(p)
            if c:
                for b, r in row.items():
                    x = v.get(b, 0) - c * r
                    if x:
                        v[b] = x
                    else:
                        v.pop(b, None)
        if v:
            p = min(v)
            inv = 1 / v[p]
            row = {b: c * inv for b, c in v.items()}
            for other in pivots.values():
                c = other.get(p)
                if c:
                    for b, r in row.items():
                        x = other.get(b, 0) - c * r
                        if x:
                            other[b] = x
                        else:
                            other.pop(b, None)
            pivots[p] = row
    return len(pivots)


def expected_ranks() -> dict[str, int]:
    ranks = {block_name(b): math.factorial(len(b) - 1) for b in DISTINCT_BLOCKS}
    for b in SQUARE_BLOCKS:
        ranks[block_name(b)] = 1 if b[0][1] % 2 else 0
    for name, r in load("quotient_ranks.json").items():
        ranks.setdefault(name, r)
    return ranks


# -- per-workload verdicts: each returns (right, wrong, unexpected wrong) -----


def report_verdicts(report_text: str, expected: dict) -> tuple[int, int, list[str]]:
    """Compare a verify-envelope report with the one recorded at the seed."""
    want = expected["records"]
    try:
        got = json.loads(report_text)["records"]
    except (ValueError, KeyError, TypeError):
        return 0, len(want), ["report is not valid JSON"]
    right = wrong = 0
    problems = []
    for k, rec in enumerate(want):
        if k < len(got) and got[k] == rec and rec["status"] == "pass":
            right += 1
        else:
            wrong += 1
            problems.append(f"record {k} ({rec['check']}) differs from the seed")
    for k in range(len(want), len(got)):
        wrong += 1
        problems.append(f"extra record {k}")
    return right, wrong, problems


def mutation_rounds(report_text: str) -> list[tuple[str, str]]:
    """(mutant label, status) per round of a mutation report."""
    try:
        records = json.loads(report_text)["records"]
    except (ValueError, KeyError, TypeError):
        return []
    return [(r["instance"], r["status"]) for r in records]


def mutation_verdicts(builtin: str, rounds: list[tuple[str, str]], broken: dict,
                      known_defects: list) -> tuple[int, int, list[str]]:
    """``broken[label]`` is the exhaustive axiom sweep's answer for a mutant
    (None when its label could not be rebuilt into a mutant)."""
    right = wrong = 0
    problems = []
    if len(rounds) != MUTATION_ROUNDS:
        return 0, MUTATION_ROUNDS, [f"{builtin}: {len(rounds)} rounds, expected {MUTATION_ROUNDS}"]
    for label, status in rounds:
        detected = status == "pass"
        if broken.get(label) is not None and detected == broken[label]:
            right += 1
            continue
        wrong += 1
        if [builtin, label] not in known_defects:
            problems.append(f"{builtin}: {label} {'detected' if detected else 'missed'}")
    return right, wrong, problems


def quotient_verdicts(blocks: list[dict], ranks: dict[str, int]) -> tuple[int, int, list[str]]:
    """``blocks``: per block the rank of its normal forms, whether every
    shuffle product was zero and whether ``is_zero`` agreed with them."""
    right = wrong = 0
    problems = []
    seen = set()
    for b in blocks:
        seen.add(b["block"])
        ok = (b["shuffles_zero"] and b["is_zero_consistent"]
              and ranks.get(b["block"]) == b["rank"])
        if ok:
            right += 1
        else:
            wrong += 1
            problems.append(f"block {b['block']}: rank {b['rank']} (expected {ranks.get(b['block'])}), "
                            f"shuffles zero {b['shuffles_zero']}, is_zero consistent {b['is_zero_consistent']}")
    for block in QUOTIENT_BLOCKS:
        if block_name(block) not in seen:
            wrong += 1
            problems.append(f"block {block_name(block)} missing")
    return right, wrong, problems
