"""Self-tests for the benchmark itself.

    python3 perfbench/selftest.py [WORKLOAD ...]

1. The known-answer checker flags a tampered report record, a missed
   mutant and a wrong quotient rank, and tolerates only the recorded
   known defects.
2. For each workload (all four by default; a few minutes), two traced
   iterations give identical per-layer counts, and every per-layer
   metric is nonzero on the workloads where ``baseline.json`` predicts
   that its layer does work.

Exits 0 when every test passes.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import known  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def test_checker() -> None:
    expected = known.load("coalgebra.json")
    text = json.dumps(expected)
    right, wrong, problems = known.report_verdicts(text, expected)
    expect((right, wrong, problems) == (4, 0, []), "the seed report is all right")
    tampered = copy.deepcopy(expected)
    tampered["records"][1]["evaluated"] -= 1
    right, wrong, problems = known.report_verdicts(json.dumps(tampered), expected)
    expect((right, wrong, len(problems)) == (3, 1, 1), "a tampered record is flagged")
    right, wrong, problems = known.report_verdicts("not json", expected)
    expect(wrong == 4 and problems, "an unreadable report is flagged")

    label = "bracket(a,b) += c"
    rounds = [(label, "fail"), ("product(a,a) += d", "pass")]
    broken = {label: True, "product(a,a) += d": True}
    right, wrong, problems = known.mutation_verdicts("toy", rounds, broken, [])
    expect((right, wrong, len(problems)) == (1, 1, 1), "a missed broken mutant is flagged")
    right, wrong, problems = known.mutation_verdicts("toy", rounds, broken, [["toy", label]])
    expect((right, wrong, problems) == (1, 1, []), "a recorded known defect counts wrong but is expected")
    detected_sound = [(label, "pass"), ("product(a,a) += d", "pass")]
    right, wrong, problems = known.mutation_verdicts("toy", detected_sound, {**broken, label: False}, [])
    expect((right, wrong, len(problems)) == (1, 1, 1), "a 'detected' mutant the axioms accept is flagged")
    right, wrong, problems = known.mutation_verdicts("toy", rounds[:1], broken, [])
    expect(wrong == workloads.MUTATION_ROUNDS and problems, "a missing round is flagged")

    ranks = known.expected_ranks()
    blocks = [{"block": name, "rank": r, "shuffles_zero": True, "is_zero_consistent": True}
              for name, r in ranks.items()]
    expect(known.quotient_verdicts(blocks, ranks) == (len(blocks), 0, []), "the expected ranks are all right")
    bad = copy.deepcopy(blocks)
    bad[0]["rank"] += 1
    right, wrong, problems = known.quotient_verdicts(bad, ranks)
    expect((wrong, len(problems)) == (1, 1), "a wrong quotient rank is flagged")
    bad = copy.deepcopy(blocks)
    bad[-1]["shuffles_zero"] = False
    expect(known.quotient_verdicts(bad, ranks)[1] == 1, "a nonzero shuffle product is flagged")
    expect(known.quotient_verdicts(blocks[1:], ranks)[1] == 1, "a missing block is flagged")
    expect(ranks["o:1,o:1"] == 1 and ranks["e:0,e:0"] == 0, "odd square survives, even square dies")
    expect(known.rank([{"x": 1, "y": 1}, {"x": 2, "y": 2}, {"y": 1}]) == 2, "rank of a small family")


def test_traced(workload: str, spec: dict, layers: dict, nominal: float) -> None:
    setups = run.setup_times(workload, nominal)
    untraced = run.iteration(workload, 1, nominal, trace=False)
    first = run.layer_metrics(workload, run.iteration(workload, 1, nominal, trace=True), untraced, setups)
    second = run.layer_metrics(workload, run.iteration(workload, 1, nominal, trace=True), untraced, setups)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "ratio")]
    differ = [n for n in counts if first[n] != second[n]]
    expect(not differ, f"{workload}: two traced runs give identical counts {differ or ''}")
    quiet = [m["name"] for m in spec["per_layer"]
             if workload in layers[m["name"]]["nonzero_on"] and not first[m["name"]]]
    expect(not quiet, f"{workload}: predicted layers do work {quiet or ''}")


def main(argv: list[str]) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    baseline = json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))
    layers = baseline["layers"]
    names = [m["name"] for m in spec["per_layer"]]
    expect(sorted(names) == sorted(layers), "baseline.json maps exactly the per-layer metrics")
    test_checker()
    for workload in argv or workloads.WORKLOADS:
        test_traced(workload, spec, layers, baseline["nominal_snippet_s"])
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
