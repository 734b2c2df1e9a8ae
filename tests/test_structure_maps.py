"""The table of structure maps the rows name (``RunContext.maps``) is
checked, not trusted, and it is the only way a row reaches a map.

Every law reads its signs off the degrees the table declares.  On every
builtin, at small probe sizes with a probe set that makes the bracket
nonzero, every image term of every named map must have the grading of
the map's argument plus the declared degree, the grading summed over the
factors of a tensor: the two slots of a co-operation's image, the two
words a bracket takes.  Arguments that leave the truncation are skipped.
The word zero test must normalize every slot.

Every row but the two shuffle rows, which test the tensor coalgebra's
own product, must reach its maps through the table: with every entry
replaced by a stub that raises, each such row raises; with the kernels
guarded so that only a table entry may call them, the rows give the
records they give untouched.

The composite entries reach their parts through the table too: with the
``delta``, ``D`` or ``ell2`` entry negated, every map built on it changes
as the composition predicts, on arguments whose images are nonzero.  A
zeroed or negated ``delta`` entry reaches delta'' and so fails the
specialization row, whose oracle cuts the factors itself; every builtin
runs one, chosen by the parity of a - b, so a swapped word cobracket
kernel fails the envelope suite on every builtin, at that row alone.
"""

import pytest

from abhomotopy import suites
from abhomotopy.ab_core import TruncationOverflow
from abhomotopy.freemodule import Element
from abhomotopy.suites import (
    CHECKS,
    RunContext,
    SPECIALIZATIONS,
    SuiteConfig,
    build_instance,
    check_identity,
    generic_letters,
    run_verify_envelope,
)
from abhomotopy.tensor_coalgebra import cobracket, shuffle
from test_slot_memo import FORCED

FAST = dict(max_word_len=2, max_sym_factors=2, max_total_letters=3, probe_gens=2)

PAIR_MAPS = ("ell2", "ell2'", "ell2''")

# rows that test the shuffle product itself, which is no map of the table
SHUFFLE_ROWS = ("shuffle-commutativity", "shuffle-associativity")
TABLE_ROWS = [name for name in CHECKS if name not in SHUFFLE_ROWS]

# the kernels behind the table's entries, as this module binds them
KERNELS = ("cobracket", "ell2", "coproduct_delta", "cobracket_doubleprime", "q_codifferential",
           "extend")

# the maps built on each base entry that negating it negates; Q = m + ell''
NEGATES = {"D": ("m",), "ell2": ("ell2'", "ell2''", "ell''"), "delta": ("delta''",)}
COMPOSITES = ("ell2'", "ell2''", "m", "ell''", "Q", "delta''")


def specialization(algebra):
    """The specialization row the envelope suite runs on ``algebra``."""
    (name,) = SPECIALIZATIONS[(algebra.a - algebra.b) % 2]
    return name


def forced_context(builtin):
    config = SuiteConfig(algebra=builtin, **FAST)
    return RunContext(build_instance(config), config, forced_gens=FORCED[builtin])


def arguments(ctx, name):
    """The probe arguments of the map named ``name``."""
    if name in ("delta", "D"):
        return ctx.words
    if name in PAIR_MAPS:
        return [(x, y) for x in ctx.pair_words for y in ctx.pair_words]
    return list(dict.fromkeys(ctx.syms_letters + ctx.syms_factors))


@pytest.mark.parametrize("builtin", sorted(FORCED))
def test_every_named_map_has_its_declared_degree(builtin):
    ctx = forced_context(builtin)
    assert sorted(ctx.maps) == sorted(
        ["delta", "D", "ell2", "ell2'", "ell2''", "Delta", "delta''", "Q", "m", "ell''"]
    )
    for name, entry in ctx.maps.items():
        evaluated = terms = 0
        for arg in arguments(ctx, name):
            try:
                image = entry.fn(arg)
            except TruncationOverflow:
                continue
            evaluated += 1
            parts = arg if name in PAIR_MAPS else (arg,)
            expected = sum(map(entry.grading, parts)) + entry.degree
            for key in image.terms:
                factors = (key,) if entry.arity == 1 else key
                assert len(factors) == entry.arity
                assert sum(map(entry.grading, factors)) == expected, (name, arg, key)
                terms += 1
        assert evaluated > 0, name
        assert terms > 0, name


def test_the_word_zero_test_normalizes_every_slot():
    """A 3-tensor whose last slot holds a shuffle image is zero in the
    quotient; a test that normalized only the first two slots would miss it."""
    a, b = ((g,) for g in generic_letters((0, 1)))
    zero = forced_context("poisson-super").maps["delta"].zero
    v = Element({(a, b, w): c for w, c in shuffle(a, b).items()})
    assert not v.is_zero()
    assert zero(v, 3)
    assert not zero(Element.of((a, b, a + b)), 3)
    assert zero(Element.zero(), 3)


class Stubbed(Exception):
    """Raised by a stub that stands in for a map."""


def raising(*_):
    raise Stubbed


@pytest.mark.parametrize("builtin", sorted(FORCED))
def test_every_row_but_the_shuffle_rows_reads_the_table(builtin):
    ctx = forced_context(builtin)
    for name, entry in ctx.maps.items():
        ctx.maps[name] = entry._replace(fn=raising)
    for name in TABLE_ROWS:
        with pytest.raises(Stubbed):
            check_identity(name, ctx)


def test_no_row_calls_a_kernel_beside_the_table(monkeypatch):
    """Each kernel is guarded so that it runs only inside a table entry."""
    expected = [check_identity(name, forced_context("gerstenhaber-toy")) for name in TABLE_ROWS]
    ctx = forced_context("gerstenhaber-toy")
    depth = [0]
    for name, entry in ctx.maps.items():

        def inside(arg, fn=entry.fn):
            depth[0] += 1
            try:
                return fn(arg)
            finally:
                depth[0] -= 1

        ctx.maps[name] = entry._replace(fn=inside)
    for kernel in KERNELS:

        def guarded(*args, fn=getattr(suites, kernel), kernel=kernel, **kwargs):
            assert depth[0], f"{kernel} called beside the table"
            return fn(*args, **kwargs)

        monkeypatch.setattr(suites, kernel, guarded)
    found = [check_identity(name, ctx) for name in TABLE_ROWS]
    assert [r.as_dict() for r in found] == [r.as_dict() for r in expected]


def composite_images(ctx):
    """{(name, argument): image} of every composite on its probe
    arguments that stay inside the truncation."""
    out = {}
    for name in COMPOSITES:
        for arg in arguments(ctx, name):
            try:
                out[name, arg] = ctx.maps[name].fn(arg)
            except TruncationOverflow:
                pass
    return out


@pytest.mark.parametrize("base", sorted(NEGATES))
@pytest.mark.parametrize("builtin", sorted(FORCED))
def test_a_swapped_entry_reaches_the_maps_built_on_it(builtin, base):
    """Negating D negates m, and Q becomes -m + ell''; negating ell2
    negates ell2', ell2'' and ell'', and Q becomes m - ell''; negating
    delta negates delta'' and leaves Q.  The Taylor row, which assembles
    Q from the same entries, still passes."""
    ctx = forced_context(builtin)
    before = composite_images(ctx)
    for name in NEGATES[base]:
        assert any(not v.is_zero() for (n, _), v in before.items() if n == name), name
    entry = ctx.maps[base]
    ctx.maps[base] = entry._replace(fn=lambda arg: entry.fn(arg).scale(-1))
    negated = lambda name, arg: before[name, arg].scale(-1 if name in NEGATES[base] else 1)
    want = {}
    for name, arg in before:
        want[name, arg] = negated("m", arg) + negated("ell''", arg) if name == "Q" else negated(name, arg)
    assert composite_images(ctx) == want
    record = check_identity("codifferential-q-taylor", ctx)
    assert record.status == "pass" and record.evaluated > 0


@pytest.mark.parametrize("swap", ["zero", "negate"])
@pytest.mark.parametrize("builtin", sorted(FORCED))
def test_a_swapped_cobracket_fails_the_specialization_row(builtin, swap):
    """delta'' reads the word cobracket from the table, so the oracle row
    that pins delta'' at the parity of a - b pins delta through it.  The
    process-wide cache of word cobrackets sits below the table entry: once
    the row has run, every factor of every probe sym has its cobracket
    cached (reading them all adds no cache miss), and the swapped entry
    still reaches delta'' past it, and leaves the cached cobrackets as
    they were."""
    ctx = forced_context(builtin)
    row = specialization(ctx.algebra)
    assert check_identity(row, ctx).status == "pass"
    words = {w for sym in ctx.syms_factors for w in sym}
    misses = cobracket.cache_info().misses
    kept = {w: cobracket(w) for w in words}
    assert cobracket.cache_info().misses == misses
    entry = ctx.maps["delta"]
    swapped = (lambda w: Element.zero()) if swap == "zero" else (lambda w: entry.fn(w).scale(-1))
    ctx.maps["delta"] = entry._replace(fn=swapped)
    assert check_identity(row, ctx).status == "fail"
    assert all(cobracket(w) is v for w, v in kept.items())
    assert cobracket.cache_info().misses == misses


@pytest.mark.parametrize("swap", ["zero", "negate"])
@pytest.mark.parametrize("builtin", sorted(FORCED))
def test_a_swapped_cobracket_kernel_fails_the_envelope_suite(builtin, swap, monkeypatch):
    """Every builtin runs a specialization row, so a zeroed or negated
    word cobracket kernel fails its envelope suite, at that row."""
    kernel = suites.cobracket
    swapped = (lambda w: Element.zero()) if swap == "zero" else (lambda w: kernel(w).scale(-1))
    monkeypatch.setattr(suites, "cobracket", swapped)
    config = SuiteConfig(algebra=builtin, suites=("envelope",), **FAST)
    instance = build_instance(config)
    report = run_verify_envelope(config, instance)
    assert report.status == "fail"
    failed = [r.check for r in report.records if r.status == "fail"]
    assert failed == [specialization(instance.algebra)]
