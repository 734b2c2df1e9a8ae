"""Identity suites: everything the envelope construction promises, run
exactly on finite probe families.

Every identity is one row of a suite's table, keyed by its check name:
an :class:`Identity` holding the statement, the probe :class:`Family` it
runs over (its inputs on a context, and how a witness names one) and the
law ``law(ctx, input) -> (ok, detail)``.  One runner, :func:`check_identity`,
turns a row into one :class:`~.ab_core.CheckRecord` over one
:class:`RunContext`: it empties the row memo and calls
:func:`~.ab_core.sweep`, the loop that makes the structure axioms' records
too.  A record is a ``pass``, a ``fail`` (with the first witness) or a
``skip`` when no input was evaluated, and counts the inputs evaluated and
skipped; skips never count as passes, and a report in which one requested
suite has only skips is a skip whatever the other suites did.  The
``axioms`` suite is ``Instance.check_structure``: the instance's own
checks, the ``degree-homogeneity`` record and the structure axioms.
The rows of :data:`COALGEBRA` run on generic letters and read no
instance, so their records name ``generic-letters`` as their instance.
The suites are tables of rows, each in report order: :data:`COALGEBRA`,
:data:`CORE` and :data:`ENVELOPE`, to which the envelope suite adds the
one-row table of :data:`SPECIALIZATIONS` for the parity of a - b.
:data:`CHECKS`, their union, is the lookup by name.  The mutation ladder
(:data:`MUTATION_ORDER`) is a tuple of names, an order over rows of two
suites.  The ladder runs on mutants, each its parent with one structure
map replaced (:func:`perturb_algebra`), and stops at the first failing row.
It leaves out the rows that cannot be a mutant's first failure, a row
that is an earlier row times a sign or that every degree-homogeneous map
passes by construction; the comment at the tuple gives each reason.

Rows name their maps: each context holds one table, :attr:`RunContext.maps`,
name -> :class:`StructureMap` (map, degree, slot grading, zero test, image
arity), of ``delta``, ``D``, the bracket extension ``ell2`` and its forms
``ell2'`` and ``ell2''``, ``Delta``, ``delta''``, ``Q``, ``m`` and
``ell''``, and every row reaches every envelope map through it; an
oracle row compares one entry with an independent evaluator of its own.
The table composes the envelope from the ``delta``, ``D`` and ``ell2``
entries: ``ell2'`` and ``ell2''`` are ``ell2`` times their signs, ``m``
and ``ell''`` extend ``D`` and ``ell2''`` as coderivations, ``Q`` takes
both as its Taylor coefficients, and ``delta''`` applies ``delta`` to one
factor.  A composite looks its parts up in the table when called, so
replacing one entry reaches every map built on it.
The two shuffle rows alone call a kernel directly: they test the tensor
coalgebra's own product, which is no map of the envelope.
Identities that differ only in the maps they name share one law factory,
which reads every sign off the named maps' degrees.
Every entry's zero test is one rule, :func:`_zero_test`, over the normal
form of its image's layer: a raw zero is zero, and anything else is zero
when its normal form is, slot by slot modulo shuffles.  Words and their
tuples take the :data:`~.tensor_coalgebra.QUOTIENT` normal forms, syms
and their tuples :func:`~.sym_coalgebra.sym_normal_form` and
:func:`~.sym_coalgebra.sym_tensor_normal_form`.

To add an identity, write its law (or call a law factory) and add its row
to one suite's table; a new suite is one more table.  Laws reach the
package's maps through this module's globals at call time, never through
references captured when a table is built: the entries of
:attr:`RunContext.maps` are lambdas that look their kernel, or their
parts, up when called (``D`` is an :class:`~.ab_core.Coderivation`, whose
``__call__`` is looked up on its class), so a wrapper installed on a
module attribute (a profiler, a tracer) sees every call.

Row memo: a law may keep values on the :class:`RunContext` for later
inputs of its row, in one table that :func:`check_identity` empties when
the row starts and ends, so no value outlives its row.  Laws fill it
through one accessor, :meth:`RunContext.kept`, which keeps the image of
each argument under a map of the table, keyed by (map name, argument):

- A map applied inside a slot is the row's kept map: the two coJacobi
  rows (of delta and delta''), coLeibniz, coassociativity and the
  coderivation rows (of D, Q, m and ell'') apply one inside a slot of a
  tensor whose entries are strict sub-syms (sub-words for delta and D)
  of the input, and across a row's inputs the same few recur many
  times.  Maps applied to the input itself are not kept: each
  input occurs once per row, and its images hold most of the terms.
- The two Jacobi rows keep each inner bracket f(x, y) of two pair words,
  keyed by the pair.  They list every multiset of three pair words in
  its three rotations, one after another, and each rotation sums the
  same three terms, so the law also keeps the verdict of the current
  orbit, and only that one.

Only finished values are kept, and a kept value spares only work whose
structure constants were already fetched, so the records and the order
in which constants are first touched do not change.

Probe families: the ``probe_gens`` lowest-degree generators (forced to
mix parities when the basis allows it), all words over them up to the
configured length, and the symmetric words one enumerator,
:func:`probe_syms`, builds from them: every multiset of words within a
factor budget and a letter budget.  The three symmetric families of a
:class:`RunContext` differ only in those budgets.  A check whose family
is empty at the configured sizes is a skip that says so.  A row names
one :class:`Family`, which pairs the inputs with the way a witness names
one of them: the six that several rows share (generic words, pairs of pair
words, cyclic triples of pair words and the three symmetric families) are
named once, and a family only one row runs over is written in its row.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Iterable, NamedTuple

from .ab_core import (
    AbAlgebra,
    CheckRecord,
    coderivation_D,
    degree_homogeneity,
    ell2,
    ell2_oracle,
    load_algebra,
    sweep,
)
from .freemodule import Element, _coeff, bilinear, format_element
from .instances import BUILTINS, Instance, builtin_instance
from .signs import sign
from .sym_coalgebra import (
    SymWord,
    cobracket_doubleprime,
    coproduct_delta,
    extend,
    kappa,
    normalize,
    poisson_cobracket,
    q_by_taylor,
    q_codifferential,
    render_sym,
    render_sym_tuple,
    sym_degree,
    sym_key,
    sym_normal_form,
    sym_tensor_normal_form,
)
from .tensor_coalgebra import (
    QUOTIENT,
    Generator,
    Word,
    apply_in_slot,
    cobracket,
    contract_adjacent_slots,
    permute_slots,
    render_tuple,
    render_word,
    shuffle,
    shuffle_elements,
    splice_in_slot,
    swap_adjacent_slots,
    word_degree,
    word_key,
)


# -- configuration and report ----------------------------------------------

SUITES = ("coalgebra", "axioms", "core", "envelope")  # every suite, in report order


@dataclass
class SuiteConfig:
    algebra: str = "poisson-super"  # builtin name or path to a JSON file
    params: dict = field(default_factory=dict)
    max_word_len: int = 3  # word length for linear-cost word checks
    max_sym_factors: int = 3  # factor bound for the cobracket suite
    max_total_letters: int = 4  # letter budget for coproduct/Q checks
    probe_gens: int = 3
    seed: int = 0
    suites: tuple[str, ...] = ("coalgebra", "core", "envelope")

    def __post_init__(self):
        # a probe size below 1 empties probe families: a run that checks nothing
        for name in ("max_word_len", "max_sym_factors", "max_total_letters", "probe_gens"):
            if getattr(self, name) < 1:
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"{flag} must be at least 1, got {getattr(self, name)}")
        if not self.suites:
            raise ValueError("--suites names no suite")
        for i, name in enumerate(self.suites):
            if name not in SUITES:
                raise ValueError(f"--suites: unknown suite {name!r}, not one of {','.join(SUITES)}")
            if name in self.suites[:i]:
                raise ValueError(f"--suites names {name!r} twice")

    def as_dict(self) -> dict:
        params = {k: str(v) for k, v in sorted(self.params.items())}
        return {**asdict(self), "params": params, "suites": list(self.suites)}


@dataclass
class Report:
    command: str
    config: dict
    records: list[CheckRecord]
    idle_suites: tuple[str, ...] = ()  # requested suites whose every record is a skip

    @property
    def status(self) -> str:
        if any(r.status == "fail" for r in self.records):
            return "fail"
        if self.idle_suites or all(r.status == "skip" for r in self.records):
            return "skip"  # also when nothing was checked at all
        return "pass"

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "config": self.config,
            "status": self.status,
            "summary": self.counts(),
            "records": [r.as_dict() for r in self.records],
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"# {self.command} on {self.config.get('algebra', '?')}"]
        for r in self.records:
            line = f"[{r.status.upper():4}] {r.check} ({r.instance}): {r.statement}"
            if r.skipped:
                line += f" [evaluated {r.evaluated}, skipped {r.skipped}]"
            lines.append(line)
            if r.witness:
                lines.append(f"        witness: {r.witness}")
        c = self.counts()
        lines.append(
            f"# status: {self.status} ({c['pass']} pass, {c['fail']} fail, {c['skip']} skip)"
        )
        if self.idle_suites:
            lines.append(f"# checked nothing: {', '.join(self.idle_suites)}")
        return "\n".join(lines) + "\n"

    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "skip": 3}[self.status]


# -- probe families -----------------------------------------------------------


def probe_generators(algebra: AbAlgebra, count: int) -> list[Generator]:
    """Deterministic low-degree generator selection with mixed parities.

    Generators are ranked by |x| + a = dg + 1, which a regrading
    (a + s, b + s, |x| - s) keeps, so the choice depends on the envelope
    alone; on every builtin a = 0 and this is the unshifted degree."""
    gens = sorted(algebra.generators, key=lambda g: (abs(g.deg + 1), g.deg, g.gid))
    chosen: list[Generator] = []
    for parity in (1, 0):
        for g in gens:
            if g.deg % 2 == parity:
                chosen.append(g)
                break
    for g in gens:
        if len(chosen) >= count:
            break
        if g not in chosen:
            chosen.append(g)
    return chosen[:count]


def probe_words(gens: list[Generator], max_len: int) -> list[Word]:
    out: list[Word] = []
    for n in range(1, max_len + 1):
        out.extend(itertools.product(gens, repeat=n))
    return out


def probe_syms(
    algebra: AbAlgebra, words: list[Word], max_factors: int, max_letters: int
) -> list[SymWord]:
    """Canonical SymWords of every multiset of at most ``max_factors`` of
    ``words`` with at most ``max_letters`` letters in all: the nonvanishing
    ones, once each, sorted."""
    seen: dict[SymWord, None] = {}
    frontier = [((), 0, 0)]  # (factors, first word index still allowed, letters)
    for _ in range(max_factors):
        grown = []
        for factors, start, letters in frontier:
            for i in range(start, len(words)):
                n = letters + len(words[i])
                if n <= max_letters:
                    grown.append((factors + (words[i],), i, n))
        for factors, _, _ in grown:
            _, sym = normalize(algebra, factors)
            if sym is not None:
                seen.setdefault(sym)
        frontier = grown
    return sorted(seen, key=sym_key)


def generic_letters(degrees: Iterable[int]) -> tuple[Generator, ...]:
    """The letters a1, a2, ... of the given dg degrees, one per degree.

    Any iterable of degrees will do; the letters are cached process-wide
    by the degree tuple (:func:`_generic_letters`), never by the iterable:
    the coalgebra rows ask for the same few hundred tuples over and over.
    """
    return _generic_letters(tuple(degrees))


@functools.cache
def _generic_letters(degrees: tuple[int, ...]) -> tuple[Generator, ...]:
    return tuple(Generator(f"a{i}", d) for i, d in enumerate(degrees, start=1))


def _generic_words(max_len: int) -> list[Word]:
    """Words of distinct letters over every degree pattern in (0, 1, 2)."""
    return [
        generic_letters(degs)
        for n in range(1, max_len + 1)
        for degs in itertools.product((0, 1, 2), repeat=n)
    ]


def _cyclic_triples(words: list[Word]) -> list[tuple[Word, Word, Word]]:
    combos = itertools.combinations_with_replacement(words, 3)
    return [combo[rot:] + combo[:rot] for combo in combos for rot in range(3)]


# -- the envelope's structure maps ---------------------------------------------


class StructureMap(NamedTuple):
    """One named map of the envelope, as the rows read it."""

    fn: Callable[[Any], Element]  # a bracket's argument is the pair (x, y)
    degree: int  # in ``grading``, summed over the factors of a tensor
    grading: Callable[[Any], int]  # of a word or a sym: an argument or a slot entry
    zero: Callable[[Element, int], bool]  # zero(v, arity), by the layer's normal form
    arity: int  # of the image's basis keys: 1 for a word or a sym, 2 for a pair


def _zero_test(one: Callable[[Element], Element], tensor: Callable[[Element], Element]):
    """The zero test of a layer: ``v``, over words or syms (``arity`` 1) or
    ``arity``-tuples of them, is zero modulo shuffles slot by slot when its
    normal form, ``one(v)`` or ``tensor(v)``, is; a raw zero needs none."""
    return lambda v, arity: v.is_zero() or (one(v) if arity == 1 else tensor(v)).is_zero()


# the normal forms are looked up when called, so a wrapper on them sees every zero test
_word_zero = _zero_test(lambda v: QUOTIENT.normal_form(v), lambda v: QUOTIENT.normal_form_tensor(v))


# -- per-instance context ------------------------------------------------------


@dataclass
class RunContext:
    """One instance with its probe families, map table (``maps``) and two
    memos that no other context shares, so a mutant, which gets a context
    of its own, never reads its parent's values.

    ``sdeg`` memoizes sym degrees for the life of the context.
    ``row_memo`` is the row table: what the laws keep for later inputs of
    one row, filled through :meth:`kept` (and the Jacobi law's orbit
    verdict, see :func:`_jacobi`).  :func:`check_identity` empties it when
    a row starts and ends, so no row reads another row's values and
    nothing outlives its row.
    """

    instance: Instance
    config: SuiteConfig
    forced_gens: tuple[str, ...] = ()  # generator ids the probe set must contain

    def __post_init__(self):
        A = self.instance.algebra
        self.algebra = A
        self.label = self.instance.label
        gens = probe_generators(A, self.config.probe_gens)
        for gid in reversed(self.forced_gens):
            g = A.gen(gid)
            if g in gens:
                gens.remove(g)
            gens.insert(0, g)
        self.words = probe_words(gens, self.config.max_word_len)
        self.pair_words = [w for w in self.words if len(w) <= 2]
        letters, factors = self.config.max_total_letters, self.config.max_sym_factors
        self.syms_letters = probe_syms(A, probe_words(gens, letters), letters, letters)
        self.syms_factors = probe_syms(A, self.pair_words, factors, 2 * factors)
        self.syms_small = probe_syms(A, self.pair_words, 2, 4)
        self._sdeg: dict[SymWord, int] = {}
        # kept images under (map name, argument), each interned sym and
        # word to itself, and the Jacobi law's orbit verdict
        self.row_memo: dict = {}
        sdeg, amb1 = self.sdeg, A.a - A.b - 1
        sym_zero = _zero_test(lambda v: sym_normal_form(A, v), lambda v: sym_tensor_normal_form(A, v))
        # ell2', ell2'', delta'', Q, m and ell'' look their parts up here when called
        maps: dict[str, StructureMap] = {
            "delta": StructureMap(lambda w: cobracket(w), 0, word_degree, _word_zero, 2),
            "D": StructureMap(coderivation_D(A), 1, word_degree, _word_zero, 1),
            "ell2": StructureMap(lambda xy: ell2(A, *xy), A.b - A.a + 1, word_degree, _word_zero, 1),
            "ell2'": StructureMap(  # antisymmetric form: degree 0 for dg' = dg - a + b + 1
                lambda xy: maps["ell2"].fn(xy).scale(sign(amb1 * A.deg_l(xy[0]))),
                0, A.deg_l, _word_zero, 1),
            # symmetric form: degree 1 for dg'' = dg - a + b; the sign of ell2'
            # times (-1)^deg_s(x), applied to ell2 in one step
            "ell2''": StructureMap(
                lambda xy: maps["ell2"].fn(xy).scale(sign(amb1 * A.deg_l(xy[0]) + A.deg_s(xy[0]))),
                1, A.deg_s, _word_zero, 1),
            "Delta": StructureMap(lambda s: coproduct_delta(A, s), 0, sdeg, sym_zero, 2),
            "delta''": StructureMap(  # cutting a factor in two lowers deg_s by a - b
                lambda s: cobracket_doubleprime(A, s, delta=maps["delta"].fn),
                A.b - A.a, sdeg, sym_zero, 2),
            "Q": StructureMap(lambda s: q_codifferential(A, s, maps["D"].fn, maps["ell2''"].fn),
                              1, sdeg, sym_zero, 1),
            "m": StructureMap(lambda s: extend(A, s, 1, maps["D"].fn), 1, sdeg, sym_zero, 1),
            "ell''": StructureMap(lambda s: extend(A, s, 2, maps["ell2''"].fn), 1, sdeg, sym_zero, 1),
        }
        self.maps = maps

    def clear_row_memo(self) -> None:
        """Forget every value a law kept for later inputs of its row."""
        self.row_memo.clear()

    def kept(self, name: str) -> Callable[[Any], Element]:
        """The map named ``name`` in :attr:`maps`, with its image of each
        argument computed once per row and kept in the row table under
        (``name``, argument).  The syms or words in a kept image's basis
        keys (one per key, or a pair, by the map's image arity), and the
        words or letters in them, are interned in the same table, so an
        equal one met in many images is one object.  A map that leaves
        the truncation raises and keeps nothing.  Never pass the row's
        input itself through this: each input occurs once per row, so
        keeping its images would cost memory for no reuse.
        """
        memo = self.row_memo
        f, arity = self.maps[name].fn, self.maps[name].arity

        def intern(s: tuple) -> tuple:
            out = memo.get(s)
            if out is None:
                out = tuple([memo.setdefault(w, w) for w in s])
                memo[out] = out
            return out

        def image(arg) -> Element:
            key = (name, arg)
            v = memo.get(key)
            if v is None:
                if arity == 1:
                    terms = {intern(t): c for t, c in f(arg).terms.items()}
                else:
                    terms = {tuple([intern(s) for s in t]): c for t, c in f(arg).terms.items()}
                v = memo[key] = Element(terms)
            return v

        return image

    # frequently used closures
    def sdeg(self, sym: SymWord) -> int:
        """deg_s of a SymWord, memoized on this context.

        The slot calculus asks for the same few hundred syms over and
        over (a deep envelope run makes about 600,000 calls on under a
        thousand distinct syms).  The memo lives on the context, so a
        mutant, which gets a context of its own, never reads its
        parent's degrees.
        """
        d = self._sdeg.get(sym)
        if d is None:
            d = self._sdeg[sym] = sym_degree(self.algebra, sym)
        return d


# -- laws -------------------------------------------------------------------------


def _shuffle_commutativity(_, split):
    degrees, p = split
    letters = generic_letters(degrees)
    x, y = letters[:p], letters[p:]
    diff = shuffle(x, y) - shuffle(y, x).scale(sign(word_degree(x) * word_degree(y)))
    return diff.is_zero(), f"difference {format_element(diff, render_word, word_key)}"


def _shuffle_associativity(_, split):
    degrees, p, q = split
    letters = generic_letters(degrees)
    x, y, z = letters[:p], letters[p : p + q], letters[p + q :]
    lhs = shuffle_elements(shuffle(x, y), Element.of(z))
    rhs = shuffle_elements(Element.of(x), shuffle(y, z))
    return lhs == rhs, "sides differ"


def _flip(co: str, twist: int, detail: str):
    """tau.c = -(-1)^(twist + deg c) c: twist 0 for a cobracket, 1 for the
    coproduct.  tau.c + (-1)^(twist + deg c) c is one graded-permutation
    pass over c (:func:`permute_slots`)."""

    def law(ctx, x):
        c = ctx.maps[co]
        flipped = permute_slots(c.fn(x), (((1, 0), 1), ((0, 1), sign(twist + c.degree))), c.grading)
        return c.zero(flipped, 2), detail

    return law


#: id + t12 t23 + t23 t12 on three slots, in word notation: t12 t23 takes
#: (x, y, z) to (z, x, y), and t23 t12 takes it to (y, z, x)
_CYCLIC_SUM = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1))


def _cojacobi(co: str, detail: str):
    """(id + t12 t23 + t23 t12)(delta x id) delta = 0, for the cobracket
    ``co``; the delta in slot 0 is the row's kept map, and the three
    cyclic terms are summed in one graded-permutation pass over the
    3-tensor (:func:`permute_slots`)."""

    def law(ctx, x):
        delta = ctx.maps[co]
        deg = delta.grading
        dd = splice_in_slot(delta.fn(x), 0, ctx.kept(co), delta.degree, deg)
        return delta.zero(permute_slots(dd, _CYCLIC_SUM, deg), 3), detail

    return law


def _square_zero(op: str, render, key):
    """op(op(x)) = 0, for the map named ``op``: raw, or else in the
    quotient; a failure names the square."""

    def law(ctx, x):
        f = ctx.maps[op]
        square = f.fn(x).map_basis(f.fn)
        if f.zero(square, 1):
            return True, ""
        return False, f"{op}({op}(x)) = {format_element(square, render, key)}"

    return law


def _coderivation(co: str, op: str, detail: str):
    """(op x id + id x op) c = (-1)^(deg c deg op) c op, for the maps named
    ``op`` and ``co`` (a co-operation); ``op`` in a slot is the row's kept map."""

    def law(ctx, x):
        c, f = ctx.maps[co], ctx.maps[op]
        inner = ctx.kept(op)
        d, deg = c.fn(x), c.grading
        lhs = apply_in_slot(d, 0, inner, f.degree, deg) + apply_in_slot(d, 1, inner, f.degree, deg)
        rhs = f.fn(x).map_basis(c.fn).scale(sign(c.degree * f.degree))
        return c.zero(lhs - rhs, 2), detail

    return law


def _agree(name: str, oracle_name: str, oracle, render, key=None):
    """The map named ``name`` and an independent evaluator of it,
    ``oracle(ctx, x)``, agree exactly, term by term."""

    def law(ctx, x):
        u, v = ctx.maps[name].fn(x), oracle(ctx, x)
        if u == v:
            return True, ""
        return False, (
            f"{name} {format_element(u, render, key)} vs "
            f"{oracle_name} {format_element(v, render, key)}"
        )

    return law


def _ell2_compatibility(ctx, pair):
    """delta ell2(x, y) is the sum of the four contractions by ell2 of
    delta x (x) y and x (x) delta y."""
    ell, delta = ctx.maps["ell2"], ctx.maps["delta"]
    deg = delta.grading
    fn = lambda u, v: ell.fn((u, v))
    lhs = ell.fn(pair).map_basis(delta.fn)
    start = Element.of(pair)
    left_split = splice_in_slot(start, 0, delta.fn, delta.degree, deg)
    right_split = splice_in_slot(start, 1, delta.fn, delta.degree, deg)
    t1 = contract_adjacent_slots(swap_adjacent_slots(left_split, 1, deg), 0, fn, ell.degree, deg)
    t2 = contract_adjacent_slots(right_split, 0, fn, ell.degree, deg)
    t3 = contract_adjacent_slots(left_split, 1, fn, ell.degree, deg)
    t4 = contract_adjacent_slots(swap_adjacent_slots(right_split, 0, deg), 1, fn, ell.degree, deg)
    return delta.zero(lhs - (t1 + t2 + t3 + t4), 2), "compatibility with delta fails"


def _ell2_well_defined(ctx, triple):
    ell = ctx.maps["ell2"]
    u, v, y = triple
    val = bilinear(lambda s, t: ell.fn((s, t)), shuffle(u, v), Element.of(y))
    return ell.zero(val, 1), "bracket of a shuffle image is nonzero in the quotient"


# the row-table key of the Jacobi law's orbit verdict: (rotations, ok)
_ORBIT = "orbit"


def _graded_symmetry(form: str, detail: str):
    """f(x,y) = -(-1)^(deg f + deg x deg y) f(y,x): antisymmetric at degree 0, symmetric at 1."""

    def law(ctx, pair):
        f = ctx.maps[form]
        x, y = pair
        diff = f.fn(pair) + f.fn((y, x)).scale(sign(f.degree + f.grading(x) * f.grading(y)))
        return f.zero(diff, 1), detail

    return law


def _jacobi(form: str):
    """Cyclic sum of T(x,y,z) = (-1)^(deg x deg z) f(f(x,y),z) vanishes.

    The sum runs over the three rotations of the input, so every rotation
    of a triple sums the same three terms to the same total, and
    :func:`_cyclic_triples` lists the rotations of one multiset one after
    another.  The law therefore keeps, in the row table, the verdict of
    the current orbit (under :data:`_ORBIT`, replaced when the next orbit
    starts) and each inner bracket f(x, y), keyed by the pair x, y of
    pair words (:meth:`RunContext.kept`).  Only finished values are kept:
    a :class:`TruncationOverflow` stores no verdict, so the next rotation
    meets it again.  A kept value spares only work whose structure
    constants were already fetched, so the order in which constants are
    first touched (hence the ``degree-homogeneity`` record) does not
    change.  Each rotation is still its own input, counted in a record's
    ``evaluated``; a failing orbit ends the row at its first rotation.

    An orbit is summed in one dict: for each rotation (x, y, z), each
    term u (coefficient c) of the kept f(x, y) and each term (coefficient
    c2) of f(u, z) add the rotation's sign times c c2.  Zero sums are
    dropped and integral ones stored as ``int`` once, at the end; the
    maps are called in the order a bracket-then-add sum would call them.
    """

    def law(ctx, triple):
        orbit = ctx.row_memo.get(_ORBIT)
        if orbit is None or triple not in orbit[0]:
            f = ctx.maps[form]
            fn, grading = f.fn, f.grading
            inner = ctx.kept(form)
            rotations = (triple, triple[1:] + triple[:1], triple[2:] + triple[:2])
            acc: dict = {}
            get = acc.get
            for x, y, z in rotations:
                sgn = sign(grading(x) * grading(z))
                for u, c in inner((x, y)).terms.items():
                    c *= sgn
                    for w, c2 in fn((u, z)).terms.items():
                        acc[w] = get(w, 0) + c * c2
            total = Element({w: _coeff(c) for w, c in acc.items() if c})
            orbit = ctx.row_memo[_ORBIT] = (rotations, f.zero(total, 1))
        return orbit[1], "graded Jacobi fails in the quotient"

    return law


def _leibniz(form: str, detail: str):
    """D f(x,y) = (-1)^deg f f(Dx,y) + (-1)^(deg f + deg x) f(x,Dy)."""

    def law(ctx, pair):
        f, D = ctx.maps[form], ctx.maps["D"]
        x, y = pair
        fn = lambda u, v: f.fn((u, v))
        lhs = f.fn(pair).map_basis(D.fn)
        rhs = bilinear(fn, D.fn(x), Element.of(y)).scale(sign(f.degree)) + bilinear(
            fn, Element.of(x), D.fn(y)
        ).scale(sign(f.degree + f.grading(x)))
        return f.zero(lhs - rhs, 1), detail

    return law


def _coproduct_coassociative(ctx, sym):
    """(Delta x id) Delta = (id x Delta) Delta, with the row's kept Delta in the slots."""
    Delta = ctx.maps["Delta"]
    inner = ctx.kept("Delta")
    d = Delta.fn(sym)
    lhs = splice_in_slot(d, 0, inner, Delta.degree, Delta.grading)
    rhs = splice_in_slot(d, 1, inner, Delta.degree, Delta.grading)
    return Delta.zero(lhs - rhs, 3), "coassociativity fails"


def _coleibniz(ctx, sym):
    """(id x Delta) delta'' = (delta'' x id) Delta + t12 (id x delta'') Delta,
    with the row's kept Delta and delta'' in the slots."""
    Delta, delta = ctx.maps["Delta"], ctx.maps["delta''"]
    deg = Delta.grading
    lhs = splice_in_slot(delta.fn(sym), 1, ctx.kept("Delta"), Delta.degree, deg)
    d = Delta.fn(sym)
    inner = ctx.kept("delta''")
    r1 = splice_in_slot(d, 0, inner, delta.degree, deg)
    r2 = swap_adjacent_slots(splice_in_slot(d, 1, inner, delta.degree, deg), 0, deg)
    return Delta.zero(lhs - r1 - r2, 3), "coLeibniz fails"


# -- the tables ---------------------------------------------------------------------


class Family(NamedTuple):
    """A probe family: ``inputs(ctx)`` lists a row's inputs on a context,
    and ``render(input)`` names one of them in a failing record's witness."""

    inputs: Callable[[RunContext], Iterable]
    render: Callable[[Any], str]


@dataclass(frozen=True)
class Identity:
    """One row of a suite's table: the statement its record prints, the
    probe family it runs over and its law, ``law(ctx, input) -> (ok,
    detail)`` per input."""

    statement: str
    family: Family
    law: Callable[[RunContext, Any], tuple[bool, str]]


# the families more than one row runs over
_GENERIC_WORDS = Family(lambda _: _generic_words(4),
                        lambda w: f"word with degrees {tuple(g.deg for g in w)}")
_PAIRS = Family(lambda ctx: [(x, y) for x in ctx.pair_words for y in ctx.pair_words], render_tuple)
_CYCLIC_TRIPLES = Family(lambda ctx: _cyclic_triples(ctx.pair_words), render_tuple)
_SYMS_LETTERS = Family(lambda ctx: ctx.syms_letters, render_sym)
_SYMS_FACTORS = Family(lambda ctx: ctx.syms_factors, render_sym)
_SYMS_SMALL = Family(lambda ctx: ctx.syms_small, render_sym)

# generic letters: shuffle product and deconcatenation cobracket
COALGEBRA: dict[str, Identity] = {
    "shuffle-commutativity": Identity(
        "shuffle(x,y) = (-1)^(dg x dg y) shuffle(y,x), exactly",
        Family(
            lambda _: [
                (degs, p)
                for n in range(2, 6)
                for p in range(1, n)
                for degs in itertools.product((0, 1, 2), repeat=n)
            ],
            lambda s: f"degrees {s[0]} split at {s[1]}",
        ),
        _shuffle_commutativity,
    ),
    "shuffle-associativity": Identity(
        "shuffle(shuffle(x,y),z) = shuffle(x,shuffle(y,z)), exactly",
        Family(
            lambda _: [
                (degs, p, q)
                for n in range(3, 7)
                for p in range(1, n - 1)
                for q in range(1, n - p)
                for degs in itertools.product((0, 1, 2), repeat=n)
            ],
            lambda s: f"degrees {s[0]} split at {s[1]},{s[2]}",
        ),
        _shuffle_associativity,
    ),
    "cobracket-coantisymmetry": Identity(
        "tau.delta = -delta on the shuffle quotient",
        _GENERIC_WORDS,
        _flip("delta", 0, "flip plus identity does not vanish in the quotient"),
    ),
    "cobracket-cojacobi": Identity(
        "(id + t12 t23 + t23 t12)(delta x id) delta = 0 on the shuffle quotient",
        _GENERIC_WORDS,
        _cojacobi("delta", "cyclic sum does not vanish in the quotient"),
    ),
}
# D and the word brackets
CORE: dict[str, Identity] = {
    "codifferential-squared": Identity(
        "D.D = 0 on tensor words (raw, quotient fallback)",
        Family(lambda ctx: ctx.words, render_word),
        _square_zero("D", render_word, word_key),
    ),
    "codifferential-coderivation": Identity(
        "(D x id + id x D) delta = delta D on the shuffle quotient",
        Family(lambda ctx: [w for w in ctx.words if len(w) >= 2], render_word),
        _coderivation("delta", "D", "coderivation law fails in the quotient"),
    ),
    "bracket-extension-oracle": Identity(
        "two independent evaluators of the word bracket agree exactly",
        Family(lambda ctx: [(x, y) for x in ctx.words for y in ctx.words if len(x) + len(y) <= 5],
               render_tuple),
        _agree("ell2", "oracle", lambda ctx, p: ell2_oracle(ctx.algebra, *p),
               render_word, word_key),
    ),
    "bracket-extension-compatibility": Identity(
        "delta.ell2 matches its defining coproduct expansion on the quotient",
        _PAIRS,
        _ell2_compatibility,
    ),
    "bracket-extension-quotient": Identity(
        "ell2 kills shuffle images, hence is defined on the quotient",
        Family(
            lambda ctx: [
                (u, v, y)
                for u in ctx.pair_words
                for v in ctx.pair_words
                if len(u) + len(v) <= 3
                for y in ctx.pair_words
            ],
            lambda t: f"shuffle{render_tuple(t[:2])} with {render_word(t[2])}",
        ),
        _ell2_well_defined,
    ),
    "lie-bracket-antisymmetry": Identity(
        "ell2' is graded antisymmetric on the quotient",
        _PAIRS,
        _graded_symmetry("ell2'", "graded antisymmetry fails in the quotient"),
    ),
    "lie-bracket-jacobi": Identity(
        "ell2' satisfies graded Jacobi on the quotient",
        _CYCLIC_TRIPLES,
        _jacobi("ell2'"),
    ),
    "lie-bracket-differential": Identity(
        "D(ell2'(x,y)) = ell2'(Dx,y) + (-1)^dg'(x) ell2'(x,Dy) on the quotient",
        _PAIRS,
        _leibniz("ell2'", "D is not a derivation of ell2'"),
    ),
    "sym-bracket-symmetry": Identity(
        "ell2'' is graded symmetric on the quotient",
        _PAIRS,
        _graded_symmetry("ell2''", "graded symmetry fails in the quotient"),
    ),
    "sym-bracket-jacobi": Identity(
        "ell2'' satisfies graded Jacobi on the quotient",
        _CYCLIC_TRIPLES,
        _jacobi("ell2''"),
    ),
    "sym-bracket-differential": Identity(
        "D(ell2''(x,y)) = -ell2''(Dx,y) + (-1)^(1+dg''(x)) ell2''(x,Dy) on the quotient",
        _PAIRS,
        _leibniz("ell2''", "twisted derivation law fails"),
    ),
}
# the symmetric coalgebra, Q and delta''
ENVELOPE: dict[str, Identity] = {
    "coproduct-cocommutativity": Identity(
        "tau''.Delta = Delta",
        _SYMS_LETTERS,
        _flip("Delta", 1, "flip changes the coproduct"),
    ),
    "coproduct-coassociativity": Identity(
        "(Delta x id) Delta = (id x Delta) Delta",
        _SYMS_LETTERS,
        _coproduct_coassociative,
    ),
    "codifferential-q-squared": Identity(
        "Q^2 = 0 on the symmetric coalgebra, modulo shuffles factorwise",
        _SYMS_LETTERS,
        _square_zero("Q", render_sym, sym_key),
    ),
    "codifferential-q-coderivation": Identity(
        "(Q x id + id x Q) Delta = Delta Q, modulo shuffles factorwise",
        _SYMS_LETTERS,
        _coderivation("Delta", "Q", "Q is not a coderivation of Delta"),
    ),
    "codifferential-q-taylor": Identity(
        "Q = m + ell'' equals its Taylor-coefficient presentation, exactly",
        _SYMS_LETTERS,
        _agree("Q", "taylor",
               lambda ctx, s: q_by_taylor(ctx.algebra, s, ctx.maps["D"].fn, ctx.maps["ell2''"].fn),
               render_sym, sym_key),
    ),
    "sym-cobracket-coantisymmetry": Identity(
        "tau''.delta'' = -(-1)^(a-b) delta''",
        _SYMS_FACTORS,
        _flip("delta''", 0, "twisted coantisymmetry fails"),
    ),
    "sym-cobracket-cojacobi": Identity(
        "(id + t12 t23 + t23 t12)(delta'' x id) delta'' = 0",
        _SYMS_FACTORS,
        _cojacobi("delta''", "coJacobi fails"),
    ),
    "sym-cobracket-coleibniz": Identity(
        "(id x Delta) delta'' = (delta'' x id) Delta + t12 (id x delta'') Delta",
        _SYMS_FACTORS,
        _coleibniz,
    ),
    "sym-cobracket-m-twist": Identity(
        "(m x id + id x m) delta'' = (-1)^(a-b) delta'' m",
        _SYMS_FACTORS,
        _coderivation("delta''", "m", "twisted coderivation law fails"),
    ),
    "sym-cobracket-ell-twist": Identity(
        "(ell'' x id + id x ell'') delta'' = (-1)^(a-b) delta'' ell''",
        _SYMS_FACTORS,
        _coderivation("delta''", "ell''", "twisted coderivation law fails"),
    ),
}
# the envelope suite's last row, by the parity of a - b, (a - b) % 2:
# delta'' reads a - b only through its parity
SPECIALIZATIONS: dict[int, dict[str, Identity]] = {
    1: {
        "specialization-gerstenhaber": Identity(
            "at a-b = 1 the cobracket equals the directly coded cosymmetric one, exactly",
            _SYMS_SMALL,
            _agree("delta''", "kappa", lambda ctx, s: kappa(ctx.algebra, s), render_sym_tuple),
        ),
    },
    0: {
        "specialization-poisson": Identity(
            "at a-b = 0 the cobracket equals the directly coded coantisymmetric one, exactly",
            _SYMS_SMALL,
            _agree("delta''", "direct", lambda ctx, s: poisson_cobracket(ctx.algebra, s),
                   render_sym_tuple),
        ),
    },
}
# every row by name: the one lookup the runner reads
CHECKS = {**COALGEBRA, **CORE, **ENVELOPE, **SPECIALIZATIONS[1], **SPECIALIZATIONS[0]}
# cheap, sensitive checks first; a mutant stops at the first failure, so a
# row that can never fail first only costs time.  Left out, since no
# degree-homogeneous mutant can make them fail first:
# - sym-cobracket-coantisymmetry, codifferential-q-coderivation and
#   sym-cobracket-m-twist: delta'' and the factorwise zero test read only
#   a - b and letter degrees, and m and Q = m + ell'' are coderivation
#   extensions by construction;
# - sym-bracket-symmetry, -jacobi and -differential: the table builds ell2''
#   as ell2' times (-1)^deg_s(x), so input for input each is its Lie twin
#   times a sign (on any algebra for symmetry, on homogeneous maps for
#   Jacobi and Leibniz; the zero test is linear), and a mutant changes
#   constants, never signs: each fails exactly where its twin, run
#   earlier, fails;
# - bracket-extension-compatibility: delta.ell2 equals the four
#   contractions for every homogeneous bilinear ell, since ell2 is built so.
# codifferential-coderivation stays, though no homogeneous mutant fails it:
# it is the first failure of a mutant whose parent has an off-degree
# product entry
MUTATION_ORDER = (
    "lie-bracket-antisymmetry",
    "codifferential-squared",
    "codifferential-coderivation",
    "lie-bracket-differential",
    "lie-bracket-jacobi",
    "codifferential-q-squared",
    "sym-cobracket-ell-twist",
)


def check_identity(name: str, ctx: RunContext) -> CheckRecord:
    """The record of row ``name`` of :data:`CHECKS` over its :class:`Family`
    on ``ctx``, made by :func:`~.ab_core.sweep`.

    A row of :data:`COALGEBRA` reads no instance, and its record says
    ``generic-letters`` where the others name ``ctx``.  An input on which
    a map leaves the truncation is counted as skipped; the first failing
    input ends the check with its witness.  The context's row table
    (:attr:`RunContext.row_memo`) is emptied before the first input and
    after the last, however the row ends, so a row's kept values live
    exactly as long as the row.
    """
    row = CHECKS[name]
    instance = "generic-letters" if name in COALGEBRA else ctx.label
    ctx.clear_row_memo()
    try:
        return sweep(name, row.statement, instance, row.family.inputs(ctx), lambda inp: row.law(ctx, inp),
                     row.family.render)
    finally:
        ctx.clear_row_memo()


# -- drivers ------------------------------------------------------------------


def build_instance(config: SuiteConfig) -> Instance:
    if config.algebra in BUILTINS:
        return builtin_instance(config.algebra, config.params)
    if config.params:
        raise ValueError(
            f"parameters {sorted(config.params)} apply to builtin instances only, "
            f"not to the structure file {config.algebra!r}"
        )
    return Instance(load_algebra(config.algebra), {})


def degree_records(config: SuiteConfig, label: str, algebras: list[AbAlgebra]) -> list[CheckRecord]:
    """The ``degree-homogeneity`` record, on instance ``label``, of the
    entries the run's ``algebras`` read (:func:`~.ab_core.degree_homogeneity`)
    when it fails and the ``axioms`` suite, which reports it whatever its
    status, did not run.

    Without it a run on inhomogeneous input would report identity
    failures and never name their cause.
    """
    if "axioms" in config.suites:
        return []
    record = degree_homogeneity(label, algebras)
    return [record] if record.status == "fail" else []


def run_check_algebra(config: SuiteConfig, instance: Instance | None = None) -> Report:
    """Structure axioms of the configured instance (built here unless given)."""
    if instance is None:
        instance = build_instance(config)
    # check_structure reports degree-homogeneity itself, whatever the suites
    return Report("check-algebra", config.as_dict(), instance.check_structure())


def run_verify_envelope(config: SuiteConfig, instance: Instance | None = None) -> Report:
    """The configured suites on the configured instance (built here unless given)."""
    if instance is None:
        instance = build_instance(config)
    ctx = RunContext(instance, config)
    amb = ctx.algebra.a - ctx.algebra.b
    rows = {"coalgebra": COALGEBRA, "core": CORE, "envelope": {**ENVELOPE, **SPECIALIZATIONS[amb % 2]}}
    by_suite = {
        suite: instance.check_structure() if suite == "axioms"
        else [check_identity(name, ctx) for name in rows[suite]]
        for suite in SUITES if suite in config.suites
    }
    records = [r for suite in by_suite.values() for r in suite]
    records += degree_records(config, instance.label, [instance.algebra])
    # passes in one suite never cover a suite that checked nothing
    idle = tuple(name for name, suite in by_suite.items() if all(r.status == "skip" for r in suite))
    return Report("verify-envelope", config.as_dict(), records, idle)


def perturbation_candidates(algebra: AbAlgebra) -> list[tuple[str, str, str, str]]:
    """Degree-homogeneous single-entry perturbations (kind, g1, g2, target)."""
    by_degree: dict[int, list[Generator]] = {}
    for g in algebra.generators:
        by_degree.setdefault(algebra.unshifted[g.gid], []).append(g)
    out = []
    for kind, shift in (("product", algebra.a), ("bracket", algebra.b)):
        for g1 in algebra.generators:
            for g2 in algebra.generators:
                target_degree = algebra.unshifted[g1.gid] + algebra.unshifted[g2.gid] + shift
                for tgt in by_degree.get(target_degree, []):
                    out.append((kind, g1.gid, g2.gid, tgt.gid))
    return out


# the AbAlgebra field holding each kind of structure map a mutant perturbs
_MAP_FIELDS = {"product": "product_fn", "bracket": "bracket_fn", "differential": "diff_fn"}


def perturb_algebra(algebra: AbAlgebra, choice: tuple[str, ...]) -> AbAlgebra:
    """The mutant ``kind(*input_ids) += target`` of ``algebra``, for a
    ``choice`` of (kind, *input_ids, target): a :func:`dataclasses.replace`
    copy whose map of that kind (product, bracket or differential, by
    :data:`_MAP_FIELDS`) adds the generator ``target`` to its value on
    ``input_ids`` and agrees with the parent's everywhere else.  The copy
    starts an empty structure-constant cache of its own, so it never
    reads its parent's values or overflows.
    """
    kind, *inputs, tgt = choice
    key, bump = tuple(inputs), Element.of(algebra.gen(tgt))
    fn = getattr(algebra, _MAP_FIELDS[kind])

    def perturbed(*gids: str) -> Element:
        out = fn(*gids)
        return out + bump if gids == key else out

    return replace(algebra, name=algebra.name + "-mutant", **{_MAP_FIELDS[kind]: perturbed})


def run_mutation(config: SuiteConfig, rounds: int = 1, instance: Instance | None = None) -> Report:
    """Seeded single-constant mutants of the configured instance (built here unless given)."""
    if instance is None:
        instance = build_instance(config)
    rng = random.Random(config.seed)
    candidates = perturbation_candidates(instance.algebra)
    if not candidates:
        raise ValueError("no degree-homogeneous perturbation exists for this instance")
    records: list[CheckRecord] = []
    mutants: list[AbAlgebra] = []
    for k in range(rounds):
        choice = candidates[rng.randrange(len(candidates))]
        kind, *inputs, tgt = choice
        mutant = perturb_algebra(instance.algebra, choice)
        mutants.append(mutant)
        mutant_instance = Instance(mutant, dict(instance.params))
        # the probe family must exercise the perturbed entry
        ctx = RunContext(mutant_instance, config, forced_gens=tuple(dict.fromkeys(inputs)))
        found = ""
        for name in MUTATION_ORDER:
            record = check_identity(name, ctx)
            if record.status == "fail":
                found = f"{record.check}: {record.witness}"
                break
        records.append(
            CheckRecord(
                f"mutation-{k}",
                "a perturbed structure constant must break at least one identity",
                f"{kind}({','.join(inputs)}) += {tgt}",
                "pass" if found else "fail",
                evaluated=1,
                witness=f"detected by {found}" if found else "no identity failed on the mutant",
            )
        )
    # perturbations are homogeneous: a mutant's off-degree entries are its parent's
    records += degree_records(config, instance.label, [instance.algebra, *mutants])
    return Report("mutation", config.as_dict(), records)
