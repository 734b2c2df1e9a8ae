import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from abhomotopy.ab_core import TruncationOverflow, ell2, load_algebra
from abhomotopy import cli, suites
from abhomotopy.cli import main
from abhomotopy.suites import (
    CHECKS,
    COALGEBRA,
    CORE,
    ENVELOPE,
    MUTATION_ORDER,
    SPECIALIZATIONS,
    SuiteConfig,
    check_identity,
    run_check_algebra,
    run_mutation,
    run_verify_envelope,
)

from test_slot_memo import FORCED

FAST = dict(max_word_len=2, max_sym_factors=2, max_total_letters=3, probe_gens=2)


def test_coalgebra_suite_passes():
    config = SuiteConfig(**FAST)
    ctx = suites.RunContext(suites.build_instance(config), config)
    for name in COALGEBRA:
        record = check_identity(name, ctx)
        assert record.status == "pass", (record.check, record.witness)
        assert (record.check, record.instance) == (name, "generic-letters")


def test_check_table_integrity():
    # the lookup is the suites' tables in report order; a name in two tables
    # would collapse in the union, which the count catches
    assert list(CHECKS) == [*COALGEBRA, *CORE, *ENVELOPE, *SPECIALIZATIONS[1], *SPECIALIZATIONS[0]]
    assert len(CHECKS) == 27
    assert set(MUTATION_ORDER) <= set(CHECKS)
    assert MUTATION_ORDER == (
        "lie-bracket-antisymmetry",
        "codifferential-squared",
        "codifferential-coderivation",
        "lie-bracket-differential",
        "lie-bracket-jacobi",
        "codifferential-q-squared",
        "sym-cobracket-ell-twist",
    )
    # the runner is the only check_* function: per-check tracing wraps exactly those
    runners = [
        name
        for name, fn in vars(suites).items()
        if name.startswith("check_") and callable(fn) and fn.__module__ == suites.__name__
    ]
    assert runners == ["check_identity"]


def test_every_family_names_each_of_its_inputs():
    """A renderer runs only on a failing input, so one that does not fit
    its family would turn a fail into an exception.  Every row renders
    every input of its family, on every builtin with a bracketing pair
    forced into the probes; the coalgebra rows read no instance, so the
    first builtin covers them."""
    rows = CHECKS
    for builtin in sorted(FORCED):
        config = SuiteConfig(algebra=builtin, **FAST)
        ctx = suites.RunContext(suites.build_instance(config), config, forced_gens=FORCED[builtin])
        for name, row in rows.items():
            inputs = row.family.inputs(ctx)
            assert inputs, (builtin, name)
            for inp in inputs:
                text = row.family.render(inp)
                assert isinstance(text, str) and text, (builtin, name, inp)
        rows = {name: row for name, row in CHECKS.items() if name not in COALGEBRA}


def test_check_algebra_report():
    report = run_check_algebra(SuiteConfig(algebra="poisson-super"))
    assert report.status == "pass"
    assert report.exit_code() == 0
    checks = {r.check for r in report.records}
    assert "bracket-jacobi" in checks and "tensor-cyclic-closure" in checks


@pytest.mark.parametrize(
    "name, forced",
    [
        ("poisson-super", ("x1", "x2")),
        ("polyvector-even", ("dx1", "x1")),
        ("schouten-super", ("x1*xi1^dx1", "x1^dxi1")),
    ],
)
def test_core_passes_on_nonzero_brackets(name, forced):
    """At the default probes every bracket input is zero on these three
    builtins; forcing a bracketing pair into the probe set makes ell2
    nonzero on some pair of probe words, and the core suite still holds."""
    config = SuiteConfig(algebra=name)
    ctx = suites.RunContext(suites.build_instance(config), config, forced_gens=forced)
    nonzero = 0
    for x in ctx.pair_words:
        for y in ctx.pair_words:
            try:
                nonzero += not ell2(ctx.algebra, x, y).is_zero()
            except TruncationOverflow:
                pass
    assert nonzero
    for check in CORE:
        record = check_identity(check, ctx)
        assert record.status == "pass" and record.evaluated > 0, (check, record.witness)


def test_verify_envelope_report_is_deterministic():
    cfg = SuiteConfig(algebra="gerstenhaber-toy", suites=("core", "envelope"), **FAST)
    first = run_verify_envelope(cfg).to_json()
    second = run_verify_envelope(cfg).to_json()
    assert first == second
    assert first.endswith("\n")
    doc = json.loads(first)
    assert doc["status"] == "pass"
    assert doc["summary"]["fail"] == 0


def test_mutation_detects_each_round():
    cfg = SuiteConfig(algebra="poisson-super", **FAST)
    report = run_mutation(cfg, rounds=3)
    assert report.status == "pass"
    assert all(r.status == "pass" for r in report.records)
    assert all("detected by" in r.witness for r in report.records)


def test_mutation_is_seed_deterministic():
    cfg = SuiteConfig(algebra="poisson-super", seed=5, **FAST)
    assert run_mutation(cfg, rounds=2).to_json() == run_mutation(cfg, rounds=2).to_json()


def test_cli_check_algebra_json(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(
        [
            "check-algebra",
            "--algebra",
            "poisson-super",
            "--format",
            "json",
            "--report",
            str(report_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["status"] == "pass"
    on_disk = report_path.read_text(encoding="utf-8")
    assert on_disk == out
    assert on_disk.endswith("\n")


@pytest.mark.parametrize("where", ["missing-directory", "directory", "empty"])
def test_unwritable_report_path_is_a_usage_error_before_any_check(
    tmp_path, monkeypatch, capsys, where
):
    """Such a path used to run every check and then die with a traceback;
    an empty one (``--report=``) ran every check, wrote nothing and exited 0."""
    path = {"missing-directory": tmp_path / "nowhere" / "r.json", "directory": tmp_path,
            "empty": ""}[where]

    def must_not_run(*args, **kwargs):
        raise AssertionError("a check ran before the report path was refused")

    monkeypatch.setattr(cli, "run_verify_envelope", must_not_run)
    assert main(["verify-envelope", "--suites", "core", f"--report={path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and str(path) in captured.err
    assert not (tmp_path / "nowhere").exists()


def test_cli_unknown_algebra_is_usage_error(capsys):
    assert main(["check-algebra", "--algebra", "mystery"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_bad_suites_is_usage_error(capsys):
    code = main(["verify-envelope", "--algebra", "poisson-super", "--suites", "nope"])
    assert code == 2


def test_cli_repeated_suite_is_usage_error(capsys):
    # the report would echo the suite twice and run it once
    code = main(["verify-envelope", "--algebra", "poisson-super", "--suites", "core,core"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--suites" in captured.err and "'core'" in captured.err


@pytest.mark.parametrize("names", [("cor",), ("core", "core"), ()], ids=["unknown", "repeated", "none"])
def test_config_refuses_suites_it_cannot_run(names):
    with pytest.raises(ValueError, match="--suites"):
        SuiteConfig(suites=names)


def test_cli_param_given_twice_is_usage_error(capsys):
    argv = ["check-algebra", "--algebra", "poisson-polynomial",
            "--param", "max_degree=2", "--param", "max_degree=3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--param max_degree given twice" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-envelope", "--suites", ","],
        ["mutation", "--rounds", "0"],
        ["mutation", "--rounds", "-2"],
        ["verify-envelope", "--suites", "axioms,core", "--probe-gens", "0"],
        ["verify-envelope", "--suites", "core", "--max-word-len", "0"],
        ["check-algebra", "--max-sym-factors", "0"],
        ["check-algebra", "--max-total-letters", "-1"],
        ["mutation", "--probe-gens", "0"],
    ],
)
def test_run_that_checks_nothing_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "size", ["max_word_len", "max_sym_factors", "max_total_letters", "probe_gens"]
)
def test_config_rejects_probe_sizes_below_one(size):
    with pytest.raises(ValueError, match="must be at least 1"):
        SuiteConfig(**{size: 0})


@pytest.mark.parametrize("command", ["check-algebra", "verify-envelope"])
def test_seed_belongs_to_mutation_only(command, capsys):
    # only the mutation draw reads the seed; elsewhere the flag did nothing
    with pytest.raises(SystemExit) as exc:
        main([command, "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_report_without_records_is_not_a_pass():
    report = suites.Report("verify-envelope", {}, [])
    assert report.status == "skip"
    assert report.exit_code() == 3


def test_empty_probe_family_is_named_as_such():
    # words of length 1 only: the coderivation law needs length >= 2
    config = SuiteConfig(algebra="poisson-super", suites=("core",), **{**FAST, "max_word_len": 1})
    ctx = suites.RunContext(suites.build_instance(config), config)
    record = check_identity("codifferential-coderivation", ctx)
    assert (record.status, record.evaluated, record.skipped) == ("skip", 0, 0)
    assert record.witness == "empty input family: no input to evaluate"
    assert "escaped the truncation" not in record.witness


def test_params_on_json_input_are_rejected(capsys):
    path = Path(__file__).parent / "golden" / "half-constant-algebra.json"
    code = main(["check-algebra", "--algebra", str(path), "--param", "foo=3"])
    assert code == 2
    assert "'foo'" in capsys.readouterr().err


def test_unknown_generator_in_table_value_is_a_named_usage_error(tmp_path, capsys):
    doc = {
        "a": 0,
        "b": 0,
        "generators": [{"id": "u", "degree": 0}],
        "product": [["u", "u", [["zz", 1]]]],
    }
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check-algebra", "--algebra", str(path)]) == 2
    assert "unknown generator 'zz'" in capsys.readouterr().err


def _loader_doc(**changes):
    doc = {
        "a": 0,
        "b": -1,
        "generators": [{"id": "u", "degree": 0}, {"id": "v", "degree": 1}],
        "differential": [["u", [["v", 1]]]],
    }
    return {**doc, **changes}


@pytest.mark.parametrize(
    "doc, named",
    [
        (_loader_doc(a=0.9), "a must be an integer, got 0.9"),
        (_loader_doc(b=True), "b must be an integer, got True"),
        (
            _loader_doc(generators=[{"id": "u", "degree": 0.7}, {"id": "v", "degree": 1}]),
            "degree of generator 'u' must be an integer, got 0.7",
        ),
        (_loader_doc(max_degree="2"), "max_degree must be an integer, got '2'"),
        (_loader_doc(differential=[["u", [["v", True]]]]), "coefficient True in table entry"),
        (_loader_doc(differential=[["u", [["v", 0.5]]]]), "coefficient 0.5 in table entry"),
        (_loader_doc(differential=[["u", [["v", "1/0"]]]]), "coefficient '1/0' in table entry"),
    ],
    ids=["float-a", "bool-b", "float-degree", "string-max-degree", "bool-coeff", "float-coeff", "zero-den"],
)
def test_loader_takes_only_exact_numbers(tmp_path, capsys, doc, named):
    """int() used to truncate 0.9 to 0 and read true as 1, and a string
    bound crashed mid-check: each is now a usage error naming the field."""
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check-algebra", "--algebra", str(path)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, named",
    [
        (_loader_doc(product=[["u", "u", 5]]), "product entry ['u', 'u', 5] must end in a list of [id, coeff] pairs"),
        ([_loader_doc()], "the algebra document must be a JSON object"),
        (
            _loader_doc(generators=[{"id": "u"}, {"id": "v", "degree": 1}]),
            "generator 'u' has no 'degree' field",
        ),
        ({k: v for k, v in _loader_doc().items() if k != "b"}, "the algebra document has no 'b' field"),
        (_loader_doc(generators=["u"]), "a generator must be a JSON object, got 'u'"),
        (_loader_doc(bracket={"u": 1}), "bracket must be a list of table entries"),
        (_loader_doc(name=5), "name must be a string, got 5"),
        (_loader_doc(description=["x"]), "description must be a string, got ['x']"),
        (
            _loader_doc(generators=[{"id": 5, "degree": 0}, {"id": "v", "degree": 1}], differential=[]),
            "id of generator {'id': 5, 'degree': 0} must be a string, got 5",
        ),
        (
            _loader_doc(generators=[{"id": True, "degree": 0}, {"id": "v", "degree": 1}], differential=[]),
            "id of generator {'id': True, 'degree': 0} must be a string, got True",
        ),
        (
            _loader_doc(product=[[5, 5, [["u", 1]]]]),
            "an input id of product entry [5, 5, [['u', 1]]] must be a string, got 5",
        ),
        (
            _loader_doc(
                generators=[{"id": "u", "degree": 0}, {"id": "1", "degree": 1}], differential=[["u", [[1, 1]]]]
            ),
            "an output id of differential entry ['u', [[1, 1]]] must be a string, got 1",
        ),
        (
            _loader_doc(prodcut=[["u", "u", [["u", 1]]]]),
            "the algebra document has an unknown field 'prodcut'; allowed fields: name, description, a, b, "
            "generators, product, bracket, differential, max_degree",
        ),
        (_loader_doc(max_degre=1), "the algebra document has an unknown field 'max_degre'; allowed fields: "),
        (
            _loader_doc(generators=[{"id": "u", "degree": 0}, {"id": "v", "degree": 1, "degre": 2}]),
            "generator 'v' has an unknown field 'degre'; allowed fields: id, degree",
        ),
    ],
    ids=["int-table-value", "top-level-array", "no-degree", "no-b", "string-generator", "object-table",
         "number-name", "list-description", "number-id", "bool-id", "number-input-id", "number-output-id",
         "misspelled-table", "misspelled-bound", "unknown-generator-field"],
)
def test_loader_names_the_malformed_field(tmp_path, capsys, doc, named):
    """A table value that is not a list of pairs and a top-level array used
    to crash with a traceback (exit 1), a generator without a degree said
    only 'degree', a numeric name ran and stood as the number 5 in every
    record, and a list description was kept silently.  A numeric or boolean
    generator id or output id loaded as its ``str()`` ("5", "True"), while
    a numeric input id said only 'bad table entry'.  An unknown field was
    dropped: a misspelled table loaded as a zero map (the algebra then
    passed every axiom), a misspelled ``max_degree`` turned truncation off,
    and a misspelled generator field was lost.  Each is now a usage error
    naming the cause."""
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check-algebra", "--algebra", str(path)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, named",
    [
        (
            _loader_doc(generators=[{"id": "u\u0000", "degree": 0}, {"id": "v", "degree": 1}], differential=[]),
            "generator 'u\\x00': an id may not contain NUL",
        ),
        (
            _loader_doc(generators=[{"id": "u", "degree": 0}, {"id": "v", "degree": 129}], differential=[]),
            "generator 'v': degree 129 is outside -127..128, the degrees a letter takes at a = 0",
        ),
        (
            _loader_doc(a=2, b=1, generators=[{"id": "u", "degree": -130}], differential=[]),
            "generator 'u': degree -130 is outside -129..126, the degrees a letter takes at a = 2",
        ),
    ],
    ids=["nul-in-id", "degree-above", "degree-below-at-a-2"],
)
def test_a_letter_the_encoding_cannot_hold_is_a_named_usage_error(tmp_path, capsys, doc, named):
    """A letter's string value is its id, a NUL and one character coding
    its shifted degree.  A NUL inside an id would misorder letters without
    a word, and a degree outside the code's range has no character, so
    each is a usage error naming the generator."""
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify-envelope", "--algebra", str(path)]) == 2
    assert named in capsys.readouterr().err


def test_the_extreme_letter_degrees_load(tmp_path):
    """The ends of the code's range still load: at a = 0 an unshifted
    degree d is the shifted degree d - 1."""
    path = tmp_path / "algebra.json"
    doc = _loader_doc(generators=[{"id": "u", "degree": -127}, {"id": "v", "degree": 128}], differential=[])
    path.write_text(json.dumps(doc), encoding="utf-8")
    A = load_algebra(str(path))
    assert [(g.gid, g.deg) for g in A.generators] == [("u", -128), ("v", 127)]


def test_bug_inside_a_check_is_not_a_usage_error():
    """An exception raised while the checks run is a bug: it propagates with
    its traceback instead of being reported as a usage error (exit 2)."""
    script = (
        "import dataclasses, sys\n"
        "from abhomotopy import suites\n"
        "def broken(ctx, inp):\n"
        "    raise KeyError('bug inside a check')\n"
        "row = suites.CHECKS['codifferential-squared']\n"
        "suites.CHECKS['codifferential-squared'] = dataclasses.replace(row, law=broken)\n"
        "from abhomotopy.cli import main\n"
        "sys.exit(main(['verify-envelope', '--algebra', 'poisson-super', '--suites', 'core',\n"
        "               '--max-word-len', '2', '--probe-gens', '2']))\n"
    )
    assert_exits_with_traceback(script, "KeyError: 'bug inside a check'")


def test_bug_inside_a_builder_is_not_a_usage_error():
    """Only input errors are usage errors: a ``KeyError`` raised while the
    instance is built is a bug too, and used to exit 2 as one."""
    script = (
        "import sys\n"
        "from abhomotopy import instances\n"
        "def broken(params):\n"
        "    raise KeyError('bug inside a builder')\n"
        "instances.BUILTINS['poisson-super'] = (broken, instances.BUILTINS['poisson-super'][1])\n"
        "from abhomotopy.cli import main\n"
        "sys.exit(main(['check-algebra', '--algebra', 'poisson-super']))\n"
    )
    assert_exits_with_traceback(script, "KeyError: 'bug inside a builder'")


def assert_exits_with_traceback(script: str, error: str) -> None:
    """``script`` run in a fresh interpreter exits 1, not 2, printing
    ``error`` under a traceback."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode != 2
    assert proc.returncode == 1
    assert error in proc.stderr
    assert "Traceback" in proc.stderr


def test_python_dash_m_runs_the_command_line():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "abhomotopy", "check-algebra", "--algebra", "poisson-super"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "# status: pass" in proc.stdout


@pytest.mark.parametrize(
    "algebra, param",
    [
        ("poisson-super", "max_degree=7/2"),
        ("poisson-super", "max_degree=true"),
        ("gerstenhaber-toy", "max_rank=2.5"),
        ("gerstenhaber-toy", "d=5/2"),
        ("schouten-super", "q=[1]"),
        ("poisson-super", "max_degree=1/0"),
        ("gerstenhaber-toy", "d=1_0"),  # int() reads digit separators: 10
        ("gerstenhaber-toy", "d=\u0662"),  # and non-ASCII digits: ARABIC-INDIC DIGIT TWO is 2
    ],
)
def test_non_integer_builtin_parameter_is_a_named_usage_error(algebra, param, capsys):
    """An integer parameter given a fraction, a decimal, a word or a list is
    refused before any check, naming the parameter and the instance: never
    truncated (7/2 is not 3).  The error quotes what was typed ('7/2')."""
    code = main(["verify-envelope", "--algebra", algebra, "--param", param, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    key, _, value = param.partition("=")
    assert f"parameter {key!r} of instance {algebra!r} must be an integer" in captured.err
    # a JSON value is parsed before it is refused; any other is quoted as typed
    typed = value if value.startswith("[") else repr(value)
    assert f"must be an integer, got {typed}" in captured.err


@pytest.mark.parametrize(
    "text, parsed",
    [("d=2", ("d", 2)), ("d=+2", ("d", 2)), ("m=-4", ("m", -4)), ("d= 2 ", ("d", 2)),
     ("d=1_0", ("d", "1_0")), ("d=\u0662", ("d", "\u0662")), ("d=2.0", ("d", "2.0")), ("d=", ("d", ""))],
)
def test_a_parameter_is_an_integer_only_in_ascii_digits(text, parsed):
    """A value is an int when it is an optional sign and ASCII digits, and
    otherwise stays the string typed, for its reader to refuse."""
    got = cli._parse_param(text)
    assert got == parsed and type(got[1]) is type(parsed[1])


def refused_before_any_check(monkeypatch, capsys, argv: list[str]) -> str:
    """Run ``argv`` with every check runner refusing to run; it must exit 2
    with no report.  Returns its standard error."""

    def must_not_run(*args, **kwargs):
        raise AssertionError("a check ran before the parameter was refused")

    for runner in ("run_check_algebra", "run_verify_envelope", "run_mutation"):
        monkeypatch.setattr(cli, runner, must_not_run)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    return captured.err


@pytest.mark.parametrize(
    "algebra, param, least",
    [
        ("polyvector-even", "d=-1", 0),
        ("gerstenhaber-toy", "d=-1", 0),
        ("schouten-super", "p=-1", 0),
        ("poisson-super", "q=-1", 0),
        ("poisson-super", "max_degree=-1", 0),
        ("poisson-polynomial", "max_degree=-2", 0),
        ("schouten-super", "max_rank=-1", 0),
        ("polyvector-even", "max_coef_degree=-1", 0),
        ("poisson-polynomial", "m=-1", 0),
        ("gerstenhaber-toy", "d=0", 2),
        ("poisson-polynomial", "d=1", 2),
        ("poisson-super", "p=1", 2),
    ],
)
def test_builtin_parameter_out_of_range_is_a_named_usage_error(
    algebra, param, least, monkeypatch, capsys
):
    """A negative size used to die in a RecursionError, build an empty
    basis that passed check-algebra on the tensor checks alone, or run a
    report of skips only; poisson-polynomial's m = -1 failed to parse its
    own default tensor, and a builder's own minimum named the builder's
    variable (p) where the user had set d."""
    argv = ["verify-envelope", "--algebra", algebra, "--param", param]
    err = refused_before_any_check(monkeypatch, capsys, argv)
    key = param.partition("=")[0]
    assert f"parameter {key!r} of instance {algebra!r} must be at least {least}" in err


@pytest.mark.parametrize(
    "algebra, omega, named",
    [
        ("poisson-super", "[1]", "must be a JSON object"),
        ("poisson-super", "x1", "must be a JSON object"),
        ("poisson-super", '{"x1": 1}', "key 'x1'"),
        ("poisson-super", '{"x9,x1": 1}', "key 'x9,x1'"),
        ("poisson-super", '{"y1,x1": 1}', "key 'y1,x1'"),
        ("poisson-polynomial", '{"x1,xi1": 1}', "key 'x1,xi1'"),
        ("poisson-super", '{"x1,x2": [1]}', "entry 'x1,x2'"),
        ("poisson-super", '{"x1,x2": 0.5}', "entry 'x1,x2'"),
        ("poisson-super", '{"x1,x2": true}', "entry 'x1,x2'"),
        ("poisson-super", '{"x1,x2": "1/0"}', "entry 'x1,x2'"),
        ("poisson-super", '{"x1,x2": "1/0"}', "entry 'x1,x2': zero denominator in '1/0'"),
        ("poisson-super", '{"x1,x2": "x1 - -x2"}', "a sign starts no term in 'x1 - -x2'"),
        ("poisson-super", '{"x1,x2": "x1-+x2"}', "a sign starts no term in 'x1-+x2'"),
        ("poisson-super", '{"x1,x2": "x1+"}', "a sign starts no term in 'x1+'"),
        ("poisson-super", '{"x1,x2": "-"}', "a sign starts no term in '-'"),
        ("poisson-super", '{"x1,x2": "x9"}', "variable 'x9' out of range"),
        ("poisson-super", '{"x1,x2": "1 2"}', "entry 'x1,x2': whitespace inside a factor in '1 2'"),
        ("poisson-super", '{"x1,x2": "x1*x 2"}', "whitespace inside a factor in 'x1*x 2'"),
        ("poisson-super", '{"x1,x2": "x1*-x2"}', "entry 'x1,x2': empty factor in 'x1*-x2'"),
        ("poisson-super", '{"x1,x2": "x1**x2"}', "empty factor in 'x1**x2'"),
        ("poisson-super", '{"x1,x2": "x1^"}', "factor 'x1^' is neither a coordinate power"),
        ("poisson-super", '{"x1,x2": "x1*1e-1"}', "factor '1e' is neither a coordinate power"),
        (
            "poisson-super",
            '{"x1,x2": 1, "x2,x1": -1, "x1, x2": 5}',
            "keys 'x1,x2' and 'x1, x2' both name omega[x1,x2]",
        ),
    ],
)
def test_malformed_omega_is_a_named_usage_error(algebra, omega, named, monkeypatch, capsys):
    """Each used to crash (an AttributeError, IndexError or TypeError, some
    inside the checks) or to say only 'not enough values to unpack'.  Keys
    are stripped, so two keys could name one entry: the later one silently
    won, and the tensor then failed its graded symmetry.  A stray sign
    was read as another tensor (``x1 - -x2`` as x1 - x2, ``-`` as 0), and
    a zero denominator said only 'Fraction(1, 0)'."""
    argv = ["check-algebra", "--algebra", algebra, "--param", f"omega={omega}"]
    err = refused_before_any_check(monkeypatch, capsys, argv)
    assert f"parameter 'omega' of instance {algebra!r}" in err and named in err


def test_malformed_json_param_names_the_parameter(monkeypatch, capsys):
    """A value that starts like JSON but is not used to exit 2 with the
    decoder's message alone, which names no parameter."""
    argv = ["check-algebra", "--param", "omega={'x1,x2': 1}"]
    err = refused_before_any_check(monkeypatch, capsys, argv)
    assert "--param omega: not JSON: Expecting property name enclosed in double quotes" in err


@pytest.mark.parametrize("omega", ['{"x1,x2": 1, "x2,x1": -1}', '{"x1,x2": "1/2", "x2,x1": "-1/2"}'])
def test_exact_omega_is_taken(omega, capsys):
    assert main(["check-algebra", "--algebra", "poisson-super", "--param", f"omega={omega}"]) == 0


def test_cli_defaults_are_the_config_defaults(capsys):
    """``SuiteConfig`` owns the defaults: a run given no size flags echoes
    the default config."""
    assert main(["verify-envelope", "--suites", "coalgebra", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"] == SuiteConfig(suites=("coalgebra",)).as_dict()


def test_cli_param_overrides(capsys):
    code = main(
        [
            "check-algebra",
            "--algebra",
            "gerstenhaber-toy",
            "--param",
            "differential=zero",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["params"]["differential"] == "zero"


def test_record_label_echoes_the_m_given(capsys):
    """poisson-polynomial's bracket degree is 2m - 4; its records name the m given."""
    argv = ["verify-envelope", "--algebra", "poisson-polynomial", "--param", "m=0",
            "--suites", "core", "--max-word-len", "2", "--probe-gens", "1", "--format", "json"]
    main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert {r["instance"] for r in doc["records"]} == {"poisson-polynomial(m=0, max_degree=8, p=2, q=0)"}


def test_cli_file_algebra_and_failure_exit(tmp_path, capsys):
    good = {
        "name": "file-toy",
        "a": 0,
        "b": -1,
        "generators": [{"id": "u", "degree": 0}, {"id": "v", "degree": 1}],
        "differential": [["u", [["v", 1]]]],
    }
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(good), encoding="utf-8")
    assert main(["check-algebra", "--algebra", str(path)]) == 0
    capsys.readouterr()

    bad = {
        "name": "bad-bracket",
        "a": 0,
        "b": 0,
        "generators": [
            {"id": "u1", "degree": 0},
            {"id": "u2", "degree": 0},
            {"id": "w", "degree": 0},
        ],
        # a symmetric degree-0 bracket violates graded antisymmetry
        "bracket": [["u1", "u2", [["w", 1]]], ["u2", "u1", [["w", 1]]]],
    }
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad), encoding="utf-8")
    assert main(["check-algebra", "--algebra", str(bad_path)]) == 1
    out = capsys.readouterr().out
    assert "bracket-antisymmetry" in out and "FAIL" in out


def test_cli_all_skipped_exit_code(tmp_path, capsys):
    stub = {
        "name": "stub",
        "a": 0,
        "b": 0,
        "generators": [{"id": "u", "degree": 2}],
        "max_degree": 2,
    }
    path = tmp_path / "stub.json"
    path.write_text(json.dumps(stub), encoding="utf-8")
    code = main(["check-algebra", "--algebra", str(path)])
    assert code == 3


def test_suite_that_checked_nothing_is_not_covered_by_other_suites(tmp_path, capsys):
    # every axiom of the stub escapes its truncation; the generic coalgebra
    # suite and some instance checks still pass
    stub = {
        "name": "stub",
        "a": 0,
        "b": 0,
        "generators": [{"id": "u", "degree": 2}],
        "max_degree": 2,
    }
    path = tmp_path / "stub.json"
    path.write_text(json.dumps(stub), encoding="utf-8")
    sizes = ["--max-word-len", "2", "--max-sym-factors", "2", "--max-total-letters", "3",
             "--probe-gens", "2"]
    code = main(["verify-envelope", "--algebra", str(path), *sizes, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    axioms = [r for r in doc["records"] if r["check"] not in CHECKS]
    assert axioms and all(r["status"] == "skip" for r in axioms)
    assert doc["summary"]["pass"] > 0 and doc["summary"]["fail"] == 0
    assert (code, doc["status"]) == (3, "skip")


def test_cli_mutation_exit_zero(capsys):
    code = main(
        [
            "mutation",
            "--algebra",
            "poisson-super",
            "--rounds",
            "2",
            "--seed",
            "3",
            "--max-word-len",
            "2",
            "--max-total-letters",
            "3",
        ]
    )
    assert code == 0


INHOMOGENEOUS = {
    "name": "inhomogeneous-bracket",
    "a": 0,
    "b": -1,
    "generators": [{"id": "x", "degree": 0}, {"id": "y", "degree": 1}],
    # [x, y] should have degree 0 + 1 - 1 = 0; y has degree 1
    "bracket": [["x", "y", [["y", 1]]], ["y", "x", [["y", -1]]]],
}


@pytest.mark.parametrize(
    "command",
    [
        ["verify-envelope", "--suites", "core,envelope"],
        ["check-algebra"],
        ["mutation", "--rounds", "2"],
    ],
)
def test_every_command_names_inhomogeneous_input(tmp_path, capsys, command):
    """Without the axioms suite the identity failures alone never say why;
    the report must carry one degree-homogeneity fail naming the first
    off-degree entry."""
    path = tmp_path / "inhomogeneous.json"
    path.write_text(json.dumps(INHOMOGENEOUS), encoding="utf-8")
    sizes = ["--max-word-len", "2", "--max-sym-factors", "2", "--max-total-letters", "3"]
    code = main([*command, "--algebra", str(path), *sizes, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["status"] == "fail"
    degree = [r for r in doc["records"] if r["check"] == "degree-homogeneity"]
    assert len(degree) == 1
    assert degree[0]["status"] == "fail"
    assert degree[0]["witness"] == "at bracket(x,y): y has degree 1, expected 0"


def test_check_algebra_names_inhomogeneous_input_once_whatever_the_suites(tmp_path):
    """The default ``SuiteConfig`` has no ``axioms`` suite, yet
    ``run_check_algebra`` always reports the structure axioms, which hold
    the degree-homogeneity record; it used to add a second one."""
    path = tmp_path / "inhomogeneous.json"
    path.write_text(json.dumps(INHOMOGENEOUS), encoding="utf-8")
    report = run_check_algebra(SuiteConfig(algebra=str(path)))
    degree = [r for r in report.records if r.check == "degree-homogeneity"]
    assert len(degree) == 1 and degree[0].status == "fail"


def test_every_record_of_a_report_names_one_instance_label(monkeypatch):
    """The axioms, tensor and degree records name the instance as the rows
    do: a builtin with its parameters, a structure file by its bare name."""
    config = SuiteConfig(algebra="poisson-super", suites=("axioms", "core"), **FAST)
    records = run_verify_envelope(config).records
    assert {r.check for r in records} >= {"tensor-homogeneity", "degree-homogeneity", "leibniz"}
    assert {r.instance for r in records} == {"poisson-super(m=-4, max_degree=4, p=2, q=1)"}
    monkeypatch.chdir(Path(__file__).parent / "golden")
    config = SuiteConfig(algebra="half-constant-algebra.json", suites=("axioms", "core"), **FAST)
    assert {r.instance for r in run_verify_envelope(config).records} == {"half-constant"}


def test_homogeneous_input_gets_no_extra_degree_record():
    config = SuiteConfig(algebra="gerstenhaber-toy", suites=("core",), **FAST)
    report = run_verify_envelope(config)
    assert [r.check for r in report.records] == list(CORE)
