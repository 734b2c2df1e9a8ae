"""Time-to-verdict benchmark for the ``abhomotopy`` verifier.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``coalgebra``,
``envelope-deep``, ``mutation`` and ``quotient``.

A run first sets the workload up ``SETUP_RUNS`` times in fresh
interpreters (``setup_s``), then repeats the workload -- every call in a
fresh interpreter -- while another iteration fits in ``--seconds``
(always at least one).  Times are speed-scaled (``clock.py``) and the
median over iterations is reported.  Every output is checked against its
known answer (``known.py``) outside the timed interval.

``--trace 1`` runs one untraced and one traced iteration instead,
requires their outputs to be identical, and reports the per-layer
metrics of the traced one (``tracer.py``); the full per-group counts and
the span call graph go to ``perfbench/out/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import known  # noqa: E402
import workloads  # noqa: E402
from clock import scaled  # noqa: E402

SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def child(spec: dict) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    if spec["mode"] == "setup":
        spec = {**spec, "origin": time.perf_counter()}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {spec['mode']} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child {spec['mode']} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_times(workload: str, nominal: float) -> list[dict]:
    spec = {"mode": "setup", "workload": workload, "configs": workloads.setup_configs(workload)}
    out = []
    for _ in range(SETUP_RUNS):
        start, imported, built, done = child(spec)["marks"]
        out.append({
            "setup_s": scaled((0.0, 0.0), done, nominal),
            "import_s": scaled(start, imported, nominal),
            "build_s": scaled(imported, built, nominal),
            "probe_family_s": scaled(built, done, nominal),
        })
    return out


def iteration(workload: str, seed: int, nominal: float, trace: bool) -> dict:
    """One pass over the workload's calls, each in a fresh interpreter."""
    verdict = raw = 0.0
    rss = 0.0
    outputs, traces = [], []
    for call in workloads.calls(workload, seed):
        r = child({"mode": "run", "seed": seed, "trace": trace, **call})
        start, end = r["marks"]
        verdict += scaled(start, end, nominal)
        raw += end[0] - start[0]
        rss = max(rss, r["rss_mb"])
        outputs.append({"builtin": call.get("builtin"), "exit": r["exit"], "output": r["output"]})
        if trace:
            # the tracer's self times are raw seconds: scale them at this call's mean speed
            traces.append((scaled(start, end, nominal) / (end[0] - start[0]), r["trace"]))
    return {"verdict_s": verdict, "raw_s": raw, "rss_mb": rss, "outputs": outputs, "traces": traces}


# -- known answers ------------------------------------------------------------------


def check(workload: str, iterations: list[dict]) -> tuple[int, int, list[str]]:
    """(right verdicts, wrong verdicts, problems making the run incorrect)."""
    right = wrong = 0
    problems: list[str] = []
    first = iterations[0]["outputs"]
    for it in iterations[1:]:
        if it["outputs"] != first:
            problems.append("outputs differ between iterations of the same inputs")
    broken = mutation_truth(first) if workload == "mutation" else {}
    for it in iterations:
        for out in it["outputs"]:
            r, w, p = verdicts(workload, out, broken)
            right, wrong = right + r, wrong + w
            problems.extend(p)
    return right, wrong, problems


def verdicts(workload: str, out: dict, broken: dict) -> tuple[int, int, list[str]]:
    if workload in ("coalgebra", "envelope-deep"):
        r, w, p = known.report_verdicts(out["output"], known.load(f"{workload}.json"))
        if out["exit"] != 0:
            p.append(f"exit code {out['exit']}, expected 0")
        return r, w, p
    if workload == "mutation":
        rounds = known.mutation_rounds(out["output"])
        builtin = out["builtin"]
        truth = {label: broken.get(f"{builtin}|{label}") for label, _ in rounds}
        r, w, p = known.mutation_verdicts(builtin, rounds, truth, known.load("mutation.json")["known_defects"])
        want_exit = 1 if any(status != "pass" for _, status in rounds) else 0
        if out["exit"] != want_exit:
            p.append(f"{builtin}: exit code {out['exit']}, expected {want_exit}")
        return r, w, p
    return known.quotient_verdicts(out["output"], known.expected_ranks())


def mutation_truth(outputs: list[dict]) -> dict:
    mutants = [[o["builtin"], label] for o in outputs for label, _ in known.mutation_rounds(o["output"])]
    return child({"mode": "truth", "mutants": mutants})["broken"]


# -- metrics ----------------------------------------------------------------------------


def layer_metrics(workload: str, traced: dict, untraced: dict, setups: list[dict]) -> dict:
    groups: dict[str, dict] = {}
    for factor, trace in traced["traces"]:
        for name, row in trace["groups"].items():
            acc = groups.setdefault(name, {})
            for key, value in row.items():
                acc[key] = acc.get(key, 0) + (value * factor if key == "self_s" else value)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {}
    for name, row in groups.items():
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
        if "distinct" in row:
            out[f"{name}.distinct_ratio"] = ratio(row["distinct"], row["calls"])
    out["freemodule.add.terms_copied"] = groups["freemodule.add"]["terms_copied"]
    out["tensor_coalgebra.quotient.nf_calls"] = groups["tensor_coalgebra.quotient"]["calls"]
    out["tensor_coalgebra.quotient.blocks"] = groups["tensor_coalgebra.quotient"]["blocks"]
    smaps = groups["ab_core.structure_maps"]
    out["ab_core.structure_maps.miss_ratio"] = ratio(smaps["misses"], smaps["calls"])
    checks = groups["suites.check"]
    out["suites.inputs_evaluated"] = checks["evaluated"]
    out["suites.inputs_skipped"] = checks["skipped"]
    rounds = len(traced["outputs"]) if workload != "mutation" else sum(
        len(known.mutation_rounds(o["output"])) for o in traced["outputs"])
    out["suites.checks_per_round"] = ratio(checks["calls"], rounds)
    out["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
    out["instances.build_s"] = statistics.median(s["build_s"] for s in setups)
    out["suites.probe_family_s"] = statistics.median(s["probe_family_s"] for s in setups)
    out["bench.trace_overhead_s"] = traced["verdict_s"] - untraced["verdict_s"]
    return out


def write_trace(workload: str, traced: dict) -> None:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    calls = [{"builtin": o["builtin"], "scale": f, **t}
             for o, (f, t) in zip(traced["outputs"], traced["traces"])]
    with open(out_dir / f"trace-{workload}.json", "w", encoding="utf-8") as fh:
        json.dump(calls, fh, indent=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "abhomotopy" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'abhomotopy'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(HERE / "baseline.json", encoding="utf-8") as fh:
        nominal = json.load(fh)["nominal_snippet_s"]

    try:
        setups = setup_times(args.workload, nominal)
        if args.trace:
            untraced = iteration(args.workload, args.seed, nominal, trace=False)
            traced = iteration(args.workload, args.seed, nominal, trace=True)
            iterations = [untraced, traced]
        else:
            iterations = []
            started = time.perf_counter()
            while True:
                iterations.append(iteration(args.workload, args.seed, nominal, trace=False))
                elapsed = time.perf_counter() - started
                if elapsed + elapsed / len(iterations) > args.seconds:
                    break
        right, wrong, problems = check(args.workload, iterations)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = layer_metrics(args.workload, traced, untraced, setups)
        wanted = spec["per_layer"]
        write_trace(args.workload, traced)
    else:
        values = {
            "verdict_s": statistics.median(it["verdict_s"] for it in iterations),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": statistics.median(it["rss_mb"] for it in iterations),
            "right_verdicts": right / (right + wrong),
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for metrics {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for p in sorted(set(problems)):
        print(f"wrong: {p}")
    print(f"workload {args.workload}, seed {args.seed}, {len(iterations)} iteration(s); "
          f"verdicts right {right}, wrong {wrong}; raw seconds per iteration "
          + ", ".join(f"{it['raw_s']:.3f}" for it in iterations))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": right + wrong,
                      "failed": len(problems), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
