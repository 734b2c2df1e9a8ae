"""The benchmark's per-layer tracer (``perfbench/tracer.py``) still sees
every identity check.

The tracer counts checks by wrapping each ``check_*`` function of
``abhomotopy.suites`` and sums the input counts of the records those
calls return.  If the checks stopped going through such a function, or
went through a reference the tracer cannot rebind, its counts would
silently drop; this test runs the tracer as it is, in a fresh
interpreter, and compares its counts with the report.

The tracer also rebinds the layer kernels by name.  A renamed kernel,
or one a caller inlines or reaches through a captured reference, would
make its per-layer numbers drop without any error, so the call counts
of the kernels below are pinned to the values this run gives.
"""

import json
import subprocess
import sys
from pathlib import Path

from abhomotopy.suites import CHECKS

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
t = tracer.install()
from abhomotopy.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["verify-envelope", "--algebra", sys.argv[3], "--max-word-len", "2",
                 "--max-sym-factors", "2", "--max-total-letters", "3", "--probe-gens", "2",
                 "--format", "json"])
groups = tracer.summary(t)["groups"]
print(json.dumps({"code": code, "report": json.loads(out.getvalue()), "groups": groups}))
"""

# call counts of the poisson-super run, recorded before the
# symmetric-coalgebra kernels were reworked; the work done is the same,
# so they must not move.  ell2 is the exception: the Jacobi rows compute
# each cyclic orbit's terms and each inner bracket of two pair words once
# per row, where every rotation used to bracket afresh (1825 calls before).
# ell2, cobracket, coproduct and q moved again when the symmetric laws
# began to keep, for one row, the image of each sub-sym a map meets inside
# a slot, where every input used to apply the map afresh (889, 255, 215
# and 140 calls before); the slot maps and structure_fn do not move.
# coproduct moved again when coassociativity began to keep the Delta it
# splices into a slot (176 before).  cobracket and oracles moved when
# every builtin began to run the specialization row of its parity of
# a - b, which at these sizes calls delta'' and the direct cobracket 24
# times each on poisson-super (a - b = 4), where none ran (156 and 26
# calls before).  slot_calculus moved when the flip and coJacobi laws
# began to sum their graded permutations in one pass (permute_slots,
# which is not traced) instead of through swap_adjacent_slots (1482
# calls before).  structure_fn moved when the algebra began to keep the
# message of each overflow of its maps, so a key that leaves the basis
# reaches the instance's map once, like any other (1253 calls before).
# slot_calculus moved again when the coLeibniz law began to apply its t12
# to each output of its splice, summing all three terms in one dict,
# instead of through a separate swap_adjacent_slots pass: one traced call
# fewer per input of the row (736 calls before)
KERNEL_CALLS = {
    "ab_core.ell2": 849,
    "sym_coalgebra.cobracket": 180,
    "sym_coalgebra.coproduct": 134,
    "sym_coalgebra.q": 98,
    "instances.structure_fn": 171,
    # recorded before the three slot maps and the oracles' split
    # enumeration were each folded into one body (2082 calls); the
    # generic-letter cobracket rows' zero test then began to skip the
    # slotwise normal form of a raw zero, as the instance rows' always did
    "tensor_coalgebra.slot_calculus": 712,
    "sym_coalgebra.oracles": 50,
}

# the same for gerstenhaber-toy, which goes through the polyvector builder
# and has a nonzero differential; recorded before the two instance
# builders were merged into one (ell2 as above: 1832 calls before the
# Jacobi rows' row memo).  The slot images kept per row moved ell2,
# coderivation and the cached structure-map lookups as above (896, 612
# and 19467 calls before); structure_fn, the first touches, does not move.
# The word coderivation row keeping D's image of each sub-word for the row
# moved coderivation and the cached lookups again (416 and 19229 before).
# slot_calculus moved as above (2082, then 1482 before).  structure_fn
# moved as above when overflows began to be kept (1528 before); it now
# counts exactly the first touches.  The cached lookups moved again when
# the algebra stopped caching the shifted constants mu and ell beside the
# structure constants: D and ell2 now read the product and bracket
# through the traced lookups each time, where a cached mu or ell was
# found without one (19221 before); structure_fn does not move.
# slot_calculus moved as above when the coLeibniz swap was folded into its
# splice (736 before)
SCHOUTEN_KERNEL_CALLS = {
    "instances.structure_fn": 300,
    "ab_core.structure_maps": 22003,
    "ab_core.coderivation": 408,
    "ab_core.ell2": 848,
    "tensor_coalgebra.slot_calculus": 712,
    "sym_coalgebra.oracles": 50,
}


def traced_run(algebra: str) -> dict:
    """Counts and report of a FAST traced verify-envelope on ``algebra``,
    checked against each other."""
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench"), algebra],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["code"] == 0
    records = [r for r in doc["report"]["records"] if r["check"] in CHECKS]
    checks = doc["groups"]["suites.check"]
    assert len(records) > 0
    assert checks["calls"] == len(records)
    assert checks["evaluated"] == sum(r["evaluated"] for r in records)
    assert checks["skipped"] == sum(r["skipped"] for r in records)
    return doc["groups"]


def test_tracer_counts_match_report():
    groups = traced_run("poisson-super")
    assert {name: groups[name]["calls"] for name in KERNEL_CALLS} == KERNEL_CALLS


def test_tracer_counts_on_the_polyvector_builder():
    groups = traced_run("gerstenhaber-toy")
    calls = {name: groups[name]["calls"] for name in SCHOUTEN_KERNEL_CALLS}
    assert calls == SCHOUTEN_KERNEL_CALLS
