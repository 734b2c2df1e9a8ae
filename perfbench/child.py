"""One fresh-interpreter unit of a benchmark run.

Usage: ``python3 perfbench/child.py '<json spec>'``; prints one JSON line.

Modes (``spec["mode"]``):

- ``setup``: import the package, build the workload's instances and
  probe families (``build_instance`` + ``RunContext``), report when done;
- ``run``: one timed call into the package -- ``cli.main(argv)`` or the
  quotient library calls -- optionally under the per-layer tracer;
- ``truth``: the exhaustive axiom sweep on given mutants (known answers).

The package is imported from the checkout's ``src`` and nowhere else.
Times are marked with :class:`clock.SpeedClock`, whose reference snippet
runs throughout, so the parent can scale them to nominal machine speed;
a ``setup`` clock starts at ``spec["origin"]``, when the parent spawned
this interpreter.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from pathlib import Path

from clock import SpeedClock

ROOT = Path(__file__).resolve().parent.parent


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import abhomotopy

    where = Path(abhomotopy.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"abhomotopy imported from {where}, not from this checkout")


def setup(spec: dict, clock: SpeedClock) -> dict:
    start = clock.mark()
    import_package()
    from abhomotopy.suites import RunContext, SuiteConfig, build_instance
    from abhomotopy.tensor_coalgebra import ShuffleQuotient

    imported = clock.mark()
    configs = [SuiteConfig(**{**kw, "suites": tuple(kw["suites"])}) for kw in spec["configs"]]
    instances = [build_instance(c) for c in configs]
    built = clock.mark()
    contexts = [RunContext(i, c) for i, c in zip(instances, configs)]
    if spec["workload"] == "quotient":
        contexts.append(ShuffleQuotient())
    done = clock.mark()
    return {"marks": [start, imported, built, done]}


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def run_quotient(seed: int):
    from abhomotopy import Element, Generator, ShuffleQuotient, shuffle
    from workloads import quotient_inputs

    inputs = []
    for name, words in quotient_inputs(seed):
        letters = {}
        inputs.append((name, [tuple(letters.setdefault(x, Generator(*x)) for x in w) for w in words]))

    def timed():
        q = ShuffleQuotient()
        results = []
        for name, words in inputs:
            nfs, zeros, shuffles_zero = [], [], True
            for w in words:
                nfs.append(q.normal_form_word(w))
                zeros.append(q.is_zero(Element.of(w)))
                for cut in range(1, len(w)):
                    shuffles_zero = q.is_zero(shuffle(w[:cut], w[cut:])) and shuffles_zero
            results.append((name, nfs, zeros, shuffles_zero))
        return results

    def check(results) -> list[dict]:
        import known

        out = []
        for name, nfs, zeros, shuffles_zero in results:
            vectors = [{tuple(g.gid for g in b): c for b, c in nf.items()} for nf in nfs]
            out.append({
                "block": name,
                "rank": known.rank(vectors),
                "shuffles_zero": shuffles_zero,
                "is_zero_consistent": all(z == (not v) for z, v in zip(zeros, vectors)),
            })
        return out

    return timed, check


def run(spec: dict, clock: SpeedClock) -> dict:
    import_package()
    traced = None
    if spec.get("trace"):
        import tracer

        traced = tracer.install()
    if "argv" in spec:
        from abhomotopy.cli import main

        start = clock.mark()
        code, output = run_cli(main, spec["argv"])
        end = clock.mark()
    else:
        timed, check = run_quotient(spec["seed"])
        start = clock.mark()
        results = timed()
        end = clock.mark()
        code, output = 0, check(results)
    out = {"marks": [start, end], "exit": code, "output": output}
    if traced is not None:
        out["trace"] = tracer.summary(traced)
    return out


def truth(spec: dict) -> dict:
    """Exhaustive axiom sweep on each mutant named by (builtin, label)."""
    import_package()
    from abhomotopy import AbAlgebra, Element, Instance, builtin_instance

    broken = {}
    parents = {}
    for builtin, label in spec["mutants"]:
        inst = parents.setdefault(builtin, builtin_instance(builtin))
        mutant = _mutant(inst, label, AbAlgebra, Element, Instance)
        key = f"{builtin}|{label}"
        broken[key] = None if mutant is None else any(
            c.status == "fail" for c in mutant.check_structure())
    return {"broken": broken}


def _mutant(inst, label: str, AbAlgebra, Element, Instance):
    """Rebuild ``kind(g1,g2) += tgt`` from its label; None if it does not parse."""
    kind, sep, rest = label.partition("(")
    args, sep2, tgt = rest.partition(") += ")
    A = inst.algebra
    ids = {g.gid for g in A.generators}
    if kind not in ("product", "bracket") or not (sep and sep2) or tgt not in ids:
        return None
    splits = [(args[:k], args[k + 1:]) for k, ch in enumerate(args) if ch == ","]
    splits = [s for s in splits if s[0] in ids and s[1] in ids]
    if len(splits) != 1:
        return None
    (g1, g2), bump = splits[0], Element.of(A.gen(tgt))
    base = A.product_fn if kind == "product" else A.bracket_fn

    def perturbed(x: str, y: str):
        out = base(x, y)
        return out + bump if (x, y) == (g1, g2) else out

    algebra = AbAlgebra(
        name=A.name + "-mutant", a=A.a, b=A.b, generators=A.generators, unshifted=A.unshifted,
        product_fn=perturbed if kind == "product" else A.product_fn,
        bracket_fn=perturbed if kind == "bracket" else A.bracket_fn,
        diff_fn=A.diff_fn,
    )
    return Instance(algebra, dict(inst.params))


def main() -> None:
    spec = json.loads(sys.argv[1])
    with SpeedClock(origin=spec.get("origin")) as clock:
        if spec["mode"] == "setup":
            out = setup(spec, clock)
        elif spec["mode"] == "run":
            out = run(spec, clock)
        else:
            out = truth(spec)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
