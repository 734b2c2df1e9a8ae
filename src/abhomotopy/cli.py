"""Command-line driver for the identity verifier.

Subcommands:

- ``check-algebra``:   structure axioms and instance invariants.
- ``verify-envelope``: the full identity ladder (shuffle laws, cobracket
  laws, codifferential and bracket extensions, coproduct laws, Q^2 = 0,
  the symmetric cobracket suite, specialization cross-checks).
- ``mutation``:        perturb one structure constant and require that at
  least one identity fails.

Exit codes: 0 all pass, 1 any fail, 2 config/usage error (a probe size
below 1 is one), 3 every check skipped or a requested suite checked
nothing (a run that checks nothing never passes, and passes in one suite
never cover another).  Only parsing the configuration and building the
instance can end in exit 2; a ``--report`` path that is empty, names a
directory or lies inside a missing one is a configuration error, found
before any check runs.  An exception raised while the checks run is a
bug and propagates with its traceback.  Reports are deterministic given
the flags (``--seed``, on ``mutation`` alone, picks the mutants);
elapsed time goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path

from .instances import BUILTINS
from .suites import (
    SUITES,
    SuiteConfig,
    build_instance,
    perturbation_candidates,
    run_check_algebra,
    run_mutation,
    run_verify_envelope,
)

USAGE_ERROR = 2

#: a ``--param`` value read as an integer: an optional sign and ASCII digits
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")


def _parse_param(text: str):
    key, sep, value = text.partition("=")
    if not sep:
        raise ValueError(f"--param wants key=value, got {text!r}")
    value = value.strip()
    if value and value[0] in "{[":
        try:
            return key, json.loads(value)
        except json.JSONDecodeError as exc:
            raise ValueError(f"--param {key}: not JSON: {exc}") from None
    if _INTEGER_RE.fullmatch(value):
        return key, int(value)
    # anything else stays the string typed, refused by its reader: int() would
    # also read "1_0" as 10 and non-ASCII digits such as "\u0662" as 2
    return key, value


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--algebra", default=SuiteConfig.algebra,
                     help=f"builtin name ({', '.join(sorted(BUILTINS))}) or a JSON structure file")
    sub.add_argument("--param", action="append", default=[], metavar="K=V",
                     help="builtin instance parameter override; repeatable (JSON allowed for values). "
                          "omega is a JSON object {\"i,j\": polynomial}, e.g. \"x1*x2 - 3/2*x1\": "
                          "each coefficient is an integer or integer/integer")
    sub.add_argument("--max-word-len", type=int, default=SuiteConfig.max_word_len, metavar="L")
    sub.add_argument("--max-sym-factors", type=int, default=SuiteConfig.max_sym_factors, metavar="N")
    sub.add_argument("--max-total-letters", type=int, default=SuiteConfig.max_total_letters,
                     metavar="T")
    sub.add_argument("--probe-gens", type=int, default=SuiteConfig.probe_gens, metavar="K",
                     help="number of low-degree generators the word families are built from")
    sub.add_argument("--report", default=None, metavar="PATH",
                     help="write the JSON report here (UTF-8, newline-terminated)")
    sub.add_argument("--format", choices=("json", "text"), default="text",
                     help="stdout presentation")


def _check_report_path(path: str) -> None:
    """Refuse a ``--report`` path the report could not be written to, so
    the run stops before any check instead of after all of them."""
    if not path:
        raise ValueError("--report: empty path")
    target = Path(path)
    if target.is_dir():
        raise ValueError(f"--report {path}: is a directory")
    if not target.parent.is_dir():
        raise ValueError(f"--report {path}: no directory {target.parent}")


def _config_from(args: argparse.Namespace, suites: tuple[str, ...]) -> SuiteConfig:
    params: dict = {}
    for key, value in map(_parse_param, args.param):
        if key in params:
            raise ValueError(f"--param {key} given twice")
        params[key] = value
    return SuiteConfig(
        algebra=args.algebra,
        params=params,
        max_word_len=args.max_word_len,
        max_sym_factors=args.max_sym_factors,
        max_total_letters=args.max_total_letters,
        probe_gens=args.probe_gens,
        seed=getattr(args, "seed", SuiteConfig.seed),
        suites=suites,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="abhomotopy",
        description="exact verifier for homotopy envelopes of graded two-operation algebras",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("check-algebra", "verify-envelope", "mutation"):
        sub = subs.add_parser(name)
        _add_common(sub)
        if name == "verify-envelope":
            sub.add_argument("--suites", default=",".join(SUITES),
                             help=f"comma-separated subset of: {','.join(SUITES)}")
        if name == "mutation":
            sub.add_argument("--rounds", type=int, default=1,
                             help="number of seeded single-constant perturbations")
            sub.add_argument("--seed", type=int, default=SuiteConfig.seed, metavar="S",
                             help="seed of the perturbation draw")

    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "check-algebra":
            suites = ("axioms",)
        elif args.command == "verify-envelope":
            suites = tuple(s for s in args.suites.split(",") if s)
        else:
            if args.rounds < 1:
                raise ValueError(f"--rounds must be at least 1, got {args.rounds}")
            suites = ("core", "envelope")
        if args.report is not None:
            _check_report_path(args.report)
        config = _config_from(args, suites)
        instance = build_instance(config)
        if args.command == "mutation" and not perturbation_candidates(instance.algebra):
            raise ValueError("no degree-homogeneous perturbation exists for this instance")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    if args.command == "check-algebra":
        report = run_check_algebra(config, instance)
    elif args.command == "verify-envelope":
        report = run_verify_envelope(config, instance)
    else:
        report = run_mutation(config, rounds=args.rounds, instance=instance)

    if args.report is not None:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    sys.stdout.write(report.to_json() if args.format == "json" else report.to_text())
    print(f"elapsed: {time.monotonic() - started:.2f}s", file=sys.stderr)
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
