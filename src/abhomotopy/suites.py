"""Identity suites: everything the envelope construction promises, run
exactly on finite probe families.

A suite is an ordered list of checks; each check evaluates one identity
on a deterministic family of inputs (generic graded letters for the
shuffle/cobracket laws, probe words and symmetric words over a chosen
instance for everything else) and produces one record.  Statuses are
``pass``, ``fail`` (with the first witness) or ``skip`` when every
input escaped the truncation; skips never count as passes.

Probe families: the ``probe_gens`` lowest-degree generators (forced to
mix parities when the basis allows it), all words over them up to the
configured length, and all multisets of those words within the
configured factor/letter budgets.  Seeded randomness is used only where
a check asks for random elements; the seed fully determines them.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .ab_core import (
    AbAlgebra,
    Coderivation,
    TruncationOverflow,
    check_ab_axioms,
    coderivation_D,
    ell2,
    ell2_doubleprime,
    ell2_oracle,
    ell2_prime,
    load_algebra,
)
from .freemodule import Element, bilinear, format_element
from .instances import BUILTINS, Instance, builtin_instance
from .sym_coalgebra import (
    SymWord,
    cobracket_doubleprime,
    coproduct_delta,
    extend_ell,
    extend_m,
    kappa,
    poisson_cobracket,
    q_by_taylor,
    q_codifferential,
    render_sym,
    render_sym_tuple,
    sym_degree,
    sym_is_zero,
    sym_key,
    sym_of,
    sym_tensor_is_zero,
    sym_tensor_normal_form,
)
from .tensor_coalgebra import (
    QUOTIENT,
    Generator,
    Word,
    apply_in_slot,
    cobracket,
    contract_adjacent_slots,
    render_tuple,
    render_word,
    shuffle,
    shuffle_elements,
    splice_in_slot,
    swap_adjacent_slots,
    word_degree,
    word_key,
)


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


# -- configuration and report ----------------------------------------------


@dataclass
class SuiteConfig:
    algebra: str = "poisson-super"  # builtin name or path to a JSON file
    params: dict = field(default_factory=dict)
    max_word_len: int = 3  # word length for linear-cost word checks
    max_sym_factors: int = 3  # factor bound for the cobracket suite
    max_total_letters: int = 4  # letter budget for coproduct/Q checks
    probe_gens: int = 3
    seed: int = 0
    jobs: int = 1
    suites: tuple[str, ...] = ("coalgebra", "core", "envelope")

    def as_dict(self) -> dict:
        return {
            "algebra": self.algebra,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "max_word_len": self.max_word_len,
            "max_sym_factors": self.max_sym_factors,
            "max_total_letters": self.max_total_letters,
            "probe_gens": self.probe_gens,
            "seed": self.seed,
            "suites": list(self.suites),
        }


@dataclass
class CheckRecord:
    check: str
    statement: str
    instance: str
    status: str  # pass | fail | skip
    evaluated: int = 0
    skipped: int = 0
    witness: str = ""

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "statement": self.statement,
            "instance": self.instance,
            "status": self.status,
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "witness": self.witness,
        }


@dataclass
class Report:
    command: str
    config: dict
    records: list[CheckRecord]

    @property
    def status(self) -> str:
        if any(r.status == "fail" for r in self.records):
            return "fail"
        if self.records and all(r.status == "skip" for r in self.records):
            return "skip"
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
        return "\n".join(lines) + "\n"

    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "skip": 3}[self.status]


def _run_check(
    check: str,
    statement: str,
    instance: str,
    inputs: Iterable,
    law: Callable,
    render: Callable,
) -> CheckRecord:
    """Evaluate law(input) -> (ok, detail) over inputs, with skip accounting."""
    evaluated = skipped = 0
    for inp in inputs:
        try:
            ok, detail = law(inp)
        except TruncationOverflow as exc:
            skipped += 1
            continue
        evaluated += 1
        if not ok:
            return CheckRecord(
                check,
                statement,
                instance,
                "fail",
                evaluated,
                skipped,
                f"at {render(inp)}: {detail}",
            )
    if evaluated == 0:
        return CheckRecord(
            check, statement, instance, "skip", 0, skipped, "every input escaped the truncation"
        )
    return CheckRecord(check, statement, instance, "pass", evaluated, skipped)


# -- probe families -----------------------------------------------------------


def probe_generators(algebra: AbAlgebra, count: int) -> list[Generator]:
    """Deterministic low-degree generator selection with mixed parities."""
    gens = sorted(
        algebra.generators,
        key=lambda g: (abs(algebra.unshifted[g.gid]), algebra.unshifted[g.gid], g.gid),
    )
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


def probe_syms_by_letters(algebra: AbAlgebra, words: list[Word], max_letters: int) -> list[SymWord]:
    """All canonical SymWords with total letter count within the budget."""
    short = [w for w in words if len(w) <= max_letters]
    seen: set[SymWord] = set()
    out: list[SymWord] = []

    def grow(prefix: tuple[Word, ...], start: int, letters: int) -> None:
        if prefix:
            e = sym_of(algebra, prefix)
            if not e.is_zero():
                sym = next(iter(e.items()))[0]
                if sym not in seen:
                    seen.add(sym)
                    out.append(sym)
        for i in range(start, len(short)):
            w = short[i]
            if letters + len(w) <= max_letters:
                grow(prefix + (w,), i, letters + len(w))

    grow((), 0, 0)
    out.sort(key=sym_key)
    return out


def probe_syms_by_factors(
    algebra: AbAlgebra, words: list[Word], max_factors: int, factor_len: int
) -> list[SymWord]:
    short = [w for w in words if len(w) <= factor_len]
    seen: set[SymWord] = set()
    out: list[SymWord] = []
    for n in range(1, max_factors + 1):
        for combo in itertools.combinations_with_replacement(short, n):
            e = sym_of(algebra, combo)
            if e.is_zero():
                continue
            sym = next(iter(e.items()))[0]
            if sym not in seen:
                seen.add(sym)
                out.append(sym)
    out.sort(key=sym_key)
    return out


# -- generic-letter coalgebra checks ------------------------------------------


def generic_letters(degrees: Iterable[int]) -> list[Generator]:
    return [Generator(f"a{i}", d) for i, d in enumerate(degrees, start=1)]


def check_shuffle_commutativity(max_total: int = 5) -> CheckRecord:
    def law(split):
        degrees, p = split
        letters = generic_letters(degrees)
        x, y = tuple(letters[:p]), tuple(letters[p:])
        diff = shuffle(x, y) - shuffle(y, x).scale(
            _sign(word_degree(x) * word_degree(y))
        )
        return diff.is_zero(), f"difference {format_element(diff, render_word, word_key)}"

    inputs = [
        (degs, p)
        for n in range(2, max_total + 1)
        for p in range(1, n)
        for degs in itertools.product((0, 1, 2), repeat=n)
    ]
    return _run_check(
        "shuffle-commutativity",
        "shuffle(x,y) = (-1)^(dg x dg y) shuffle(y,x), exactly",
        "generic-letters",
        inputs,
        law,
        lambda s: f"degrees {s[0]} split at {s[1]}",
    )


def check_shuffle_associativity(max_total: int = 6) -> CheckRecord:
    def law(split):
        degrees, p, q = split
        letters = generic_letters(degrees)
        x, y, z = tuple(letters[:p]), tuple(letters[p : p + q]), tuple(letters[p + q :])
        lhs = shuffle_elements(shuffle(x, y), Element.of(z))
        rhs = shuffle_elements(Element.of(x), shuffle(y, z))
        return lhs == rhs, "sides differ"

    inputs = [
        (degs, p, q)
        for n in range(3, max_total + 1)
        for p in range(1, n - 1)
        for q in range(1, n - p)
        for degs in itertools.product((0, 1, 2), repeat=n)
    ]
    return _run_check(
        "shuffle-associativity",
        "shuffle(shuffle(x,y),z) = shuffle(x,shuffle(y,z)), exactly",
        "generic-letters",
        inputs,
        law,
        lambda s: f"degrees {s[0]} split at {s[1]},{s[2]}",
    )


def _generic_words(max_len: int) -> list[tuple[int, ...]]:
    """Degree patterns over up to three distinct letters, mixed parities."""
    out = []
    for n in range(1, max_len + 1):
        for degs in itertools.product((0, 1, 2), repeat=n):
            out.append(degs)
    return out


def check_cobracket_coantisymmetry(max_len: int = 4) -> CheckRecord:
    def law(degs):
        w = tuple(generic_letters(degs))
        d = cobracket(w)
        diff = swap_adjacent_slots(d, 0, word_degree) + d
        ok = QUOTIENT.tensor_is_zero(diff, 2)
        return ok, "flip plus identity does not vanish in the quotient"

    return _run_check(
        "cobracket-coantisymmetry",
        "tau.delta = -delta on the shuffle quotient",
        "generic-letters",
        _generic_words(max_len),
        law,
        lambda degs: f"word with degrees {degs}",
    )


def check_cobracket_cojacobi(max_len: int = 4) -> CheckRecord:
    def law(degs):
        w = tuple(generic_letters(degs))
        dd = splice_in_slot(cobracket(w), 0, cobracket, 0, word_degree)
        t1 = swap_adjacent_slots(swap_adjacent_slots(dd, 1, word_degree), 0, word_degree)
        t2 = swap_adjacent_slots(swap_adjacent_slots(dd, 0, word_degree), 1, word_degree)
        ok = QUOTIENT.tensor_is_zero(dd + t1 + t2, 3)
        return ok, "cyclic sum does not vanish in the quotient"

    return _run_check(
        "cobracket-cojacobi",
        "(id + t12 t23 + t23 t12)(delta x id) delta = 0 on the shuffle quotient",
        "generic-letters",
        _generic_words(max_len),
        law,
        lambda degs: f"word with degrees {degs}",
    )


def coalgebra_suite() -> list[CheckRecord]:
    return [
        check_shuffle_commutativity(),
        check_shuffle_associativity(),
        check_cobracket_coantisymmetry(),
        check_cobracket_cojacobi(),
    ]


# -- per-instance context ------------------------------------------------------


@dataclass
class RunContext:
    instance: Instance
    config: SuiteConfig
    forced_gens: tuple[str, ...] = ()  # generator ids the probe set must contain

    def __post_init__(self):
        A = self.instance.algebra
        self.algebra = A
        self.D = coderivation_D(A)
        self.label = f"{A.name}({', '.join(f'{k}={v}' for k, v in sorted(self.instance.params.items()))})"
        gens = probe_generators(A, self.config.probe_gens)
        for gid in reversed(self.forced_gens):
            g = A.gen(gid)
            if g in gens:
                gens.remove(g)
            gens.insert(0, g)
        self.words = probe_words(gens, self.config.max_word_len)
        self.pair_words = [w for w in self.words if len(w) <= 2]
        self.syms_letters = probe_syms_by_letters(
            A, probe_words(gens, self.config.max_total_letters), self.config.max_total_letters
        )
        self.syms_factors = probe_syms_by_factors(
            A, self.words, self.config.max_sym_factors, 2
        )
        self.syms_small = probe_syms_by_factors(A, self.words, 2, 2)
        self.rng = random.Random(self.config.seed)

    # frequently used closures
    def sdeg(self, sym: SymWord) -> int:
        return sym_degree(self.algebra, sym)

    def delta_elem(self, v: Element) -> Element:
        return v.map_basis(cobracket)

    def q_op(self, sym: SymWord) -> Element:
        return q_codifferential(self.algebra, sym, self.D)

    def pair_zero(self, v: Element) -> bool:
        return v.is_zero() or QUOTIENT.tensor_is_zero(v, 2)

    def word_zero(self, v: Element) -> bool:
        return v.is_zero() or QUOTIENT.is_zero(v)


def _render_words(t) -> str:
    return render_tuple(t) if isinstance(t[0], tuple) else render_word(t)


# -- core suite -----------------------------------------------------------------


def check_d_squared(ctx: RunContext) -> CheckRecord:
    def law(w):
        dd = ctx.D.on_element(ctx.D(w))
        if dd.is_zero():
            return True, ""
        # the raw identity is expected; fall back to the quotient statement
        if QUOTIENT.is_zero(dd):
            return True, ""
        return False, f"D(D(w)) = {format_element(dd, render_word, word_key)}"

    return _run_check(
        "codifferential-squared",
        "D.D = 0 on tensor words (raw, quotient fallback)",
        ctx.label,
        ctx.words,
        law,
        render_word,
    )


def check_d_coderivation(ctx: RunContext) -> CheckRecord:
    def law(w):
        d = cobracket(w)
        lhs = apply_in_slot(d, 0, ctx.D, 1, word_degree) + apply_in_slot(
            d, 1, ctx.D, 1, word_degree
        )
        rhs = ctx.delta_elem(ctx.D(w))
        return ctx.pair_zero(lhs - rhs), "coderivation law fails in the quotient"

    return _run_check(
        "codifferential-coderivation",
        "(D x id + id x D) delta = delta D on the shuffle quotient",
        ctx.label,
        [w for w in ctx.words if len(w) >= 2],
        law,
        render_word,
    )


def check_ell2_oracle(ctx: RunContext) -> CheckRecord:
    A = ctx.algebra

    def law(pair):
        x, y = pair
        lhs, rhs = ell2(A, x, y), ell2_oracle(A, x, y)
        return lhs == rhs, (
            f"evaluator {format_element(lhs, render_word, word_key)} vs "
            f"oracle {format_element(rhs, render_word, word_key)}"
        )

    inputs = [(x, y) for x in ctx.words for y in ctx.words if len(x) + len(y) <= 5]
    return _run_check(
        "bracket-extension-oracle",
        "two independent evaluators of the word bracket agree exactly",
        ctx.label,
        inputs,
        law,
        _render_words,
    )


def check_ell2_compatibility(ctx: RunContext) -> CheckRecord:
    A = ctx.algebra
    bma1 = A.b - A.a + 1
    ell2_fn = lambda u, v: ell2(A, u, v)

    def law(pair):
        x, y = pair
        lhs = ell2(A, x, y).map_basis(cobracket)
        start = Element.of((x, y))
        left_split = splice_in_slot(start, 0, cobracket, 0, word_degree)
        right_split = splice_in_slot(start, 1, cobracket, 0, word_degree)
        t1 = contract_adjacent_slots(
            swap_adjacent_slots(left_split, 1, word_degree), 0, ell2_fn, bma1, word_degree
        )
        t2 = contract_adjacent_slots(right_split, 0, ell2_fn, bma1, word_degree)
        t3 = contract_adjacent_slots(left_split, 1, ell2_fn, bma1, word_degree)
        t4 = contract_adjacent_slots(
            swap_adjacent_slots(right_split, 0, word_degree), 1, ell2_fn, bma1, word_degree
        )
        return ctx.pair_zero(lhs - (t1 + t2 + t3 + t4)), "compatibility with delta fails"

    inputs = [(x, y) for x in ctx.pair_words for y in ctx.pair_words]
    return _run_check(
        "bracket-extension-compatibility",
        "delta.ell2 matches its defining coproduct expansion on the quotient",
        ctx.label,
        inputs,
        law,
        _render_words,
    )


def check_ell2_well_defined(ctx: RunContext) -> CheckRecord:
    A = ctx.algebra

    def law(triple):
        u, v, y = triple
        image = shuffle(u, v)
        val = bilinear(lambda s, t: ell2(A, s, t), image, Element.of(y))
        return ctx.word_zero(val), "bracket of a shuffle image is nonzero in the quotient"

    inputs = [
        (u, v, y)
        for u in ctx.pair_words
        for v in ctx.pair_words
        if len(u) + len(v) <= 3
        for y in ctx.pair_words
    ]
    return _run_check(
        "bracket-extension-quotient",
        "ell2 kills shuffle images, hence is defined on the quotient",
        ctx.label,
        inputs,
        law,
        lambda t: f"shuffle{render_tuple(t[:2])} with {render_word(t[2])}",
    )


def check_lie_antisymmetry(ctx: RunContext) -> CheckRecord:
    A = ctx.algebra

    def law(pair):
        x, y = pair
        diff = ell2_prime(A, x, y) + ell2_prime(A, y, x).scale(
            _sign(A.deg_l(x) * A.deg_l(y))
        )
        return ctx.word_zero(diff), "graded antisymmetry fails in the quotient"

    inputs = [(x, y) for x in ctx.pair_words for y in ctx.pair_words]
    return _run_check(
        "lie-bracket-antisymmetry",
        "ell2' is graded antisymmetric on the quotient",
        ctx.label,
        inputs,
        law,
        _render_words,
    )


def _cyclic_triples(words: list[Word]) -> list[tuple[Word, Word, Word]]:
    triples = []
    for combo in itertools.combinations_with_replacement(words, 3):
        for rot in range(3):
            triples.append(combo[rot:] + combo[:rot])
    return triples


def check_lie_jacobi(ctx: RunContext) -> CheckRecord:
    A = ctx.algebra
    fn = lambda u, v: ell2_prime(A, u, v)

    def law(triple):
        total = Element.zero()
        for x, y, z in (triple, triple[1:] + triple[:1], triple[2:] + triple[:2]):
            term = bilinear(fn, ell2_prime(A, x, y), Element.of(z))
            total = total + term.scale(_sign(A.deg_l(x) * A.deg_l(z)))
        return ctx.word_zero(total), "graded Jacobi fails in the quotient"

    return _run_check(
        "lie-bracket-jacobi",
        "ell2' satisfies graded Jacobi on the quotient",
        ctx.label,
        _cyclic_triples(ctx.pair_words),
        law,
        _render_words,
    )


def check_lie_leibniz(ctx: RunContext) -> CheckRecord:
    A = ctx.algebra
    fn = lambda u, v: ell2_prime(A, u, v)

    def law(pair):
        x, y = pair
        lhs = ctx.D.on_element(ell2_prime(A, x, y))
        rhs = bilinear(fn, ctx.D(x), Element.of(y)) + bilinear(
            fn, Element.of(x), ctx.D(y)
        ).scale(_sign(A.deg_l(x)))
        return ctx.word_zero(lhs - rhs), "D is not a derivation of ell2'"

    inputs = [(x, y) for x in ctx.pair_words for y in ctx.pair_words]
    return _run_check(
        "lie-bracket-differential",
        "D(ell2'(x,y)) = ell2'(Dx,y) + (-1)^dg'(x) ell2'(x,Dy) on the quotient",
        ctx.label,
        inputs,
        law,
        _render_words,
    )


def check_sym_bracket_symmetry(ctx: RunContext) -> CheckRecord:
    A = ctx.algebra

    def law(pair):
        x, y = pair
        diff = ell2_doubleprime(A, x, y) - ell2_doubleprime(A, y, x).scale(
            _sign(A.deg_s(x) * A.deg_s(y))
        )
        return ctx.word_zero(diff), "graded symmetry fails in the quotient"

    inputs = [(x, y) for x in ctx.pair_words for y in ctx.pair_words]
    return _run_check(
        "sym-bracket-symmetry",
        "ell2'' is graded symmetric on the quotient",
        ctx.label,
        inputs,
        law,
        _render_words,
    )


def check_sym_bracket_jacobi(ctx: RunContext) -> CheckRecord:
    A = ctx.algebra
    fn = lambda u, v: ell2_doubleprime(A, u, v)

    def law(triple):
        total = Element.zero()
        for x, y, z in (triple, triple[1:] + triple[:1], triple[2:] + triple[:2]):
            term = bilinear(fn, ell2_doubleprime(A, x, y), Element.of(z))
            total = total + term.scale(_sign(A.deg_s(x) * A.deg_s(z)))
        return ctx.word_zero(total), "graded Jacobi fails in the quotient"

    return _run_check(
        "sym-bracket-jacobi",
        "ell2'' satisfies graded Jacobi on the quotient",
        ctx.label,
        _cyclic_triples(ctx.pair_words),
        law,
        _render_words,
    )


def check_sym_bracket_differential(ctx: RunContext) -> CheckRecord:
    A = ctx.algebra
    fn = lambda u, v: ell2_doubleprime(A, u, v)

    def law(pair):
        x, y = pair
        lhs = ctx.D.on_element(ell2_doubleprime(A, x, y))
        rhs = bilinear(fn, ctx.D(x), Element.of(y)).scale(-1) + bilinear(
            fn, Element.of(x), ctx.D(y)
        ).scale(_sign(1 + A.deg_s(x)))
        return ctx.word_zero(lhs - rhs), "twisted derivation law fails"

    inputs = [(x, y) for x in ctx.pair_words for y in ctx.pair_words]
    return _run_check(
        "sym-bracket-differential",
        "D(ell2''(x,y)) = -ell2''(Dx,y) + (-1)^(1+dg''(x)) ell2''(x,Dy) on the quotient",
        ctx.label,
        inputs,
        law,
        _render_words,
    )


def core_suite(ctx: RunContext) -> list[CheckRecord]:
    return [
        check_d_squared(ctx),
        check_d_coderivation(ctx),
        check_ell2_oracle(ctx),
        check_ell2_compatibility(ctx),
        check_ell2_well_defined(ctx),
        check_lie_antisymmetry(ctx),
        check_lie_jacobi(ctx),
        check_lie_leibniz(ctx),
        check_sym_bracket_symmetry(ctx),
        check_sym_bracket_jacobi(ctx),
        check_sym_bracket_differential(ctx),
    ]


# -- envelope suite ---------------------------------------------------------------


def check_coproduct_cocommutative(ctx: RunContext) -> CheckRecord:
    A = ctx.algebra

    def law(sym):
        d = coproduct_delta(A, sym)
        diff = swap_adjacent_slots(d, 0, ctx.sdeg) - d
        return sym_tensor_is_zero(A, QUOTIENT, diff, 2), "flip changes the coproduct"

    return _run_check(
        "coproduct-cocommutativity",
        "tau''.Delta = Delta",
        ctx.label,
        ctx.syms_letters,
        law,
        render_sym,
    )


def check_coproduct_coassociative(ctx: RunContext) -> CheckRecord:
    A = ctx.algebra
    delta_fn = lambda s: coproduct_delta(A, s)

    def law(sym):
        d = coproduct_delta(A, sym)
        lhs = splice_in_slot(d, 0, delta_fn, 0, ctx.sdeg)
        rhs = splice_in_slot(d, 1, delta_fn, 0, ctx.sdeg)
        return sym_tensor_is_zero(A, QUOTIENT, lhs - rhs, 3), "coassociativity fails"

    return _run_check(
        "coproduct-coassociativity",
        "(Delta x id) Delta = (id x Delta) Delta",
        ctx.label,
        ctx.syms_letters,
        law,
        render_sym,
    )


def check_q_squared(ctx: RunContext) -> CheckRecord:
    A = ctx.algebra

    def law(sym):
        qq = ctx.q_op(sym).map_basis(ctx.q_op)
        return sym_is_zero(A, QUOTIENT, qq), "Q^2 does not vanish in the quotient"

    return _run_check(
        "codifferential-q-squared",
        "Q^2 = 0 on the symmetric coalgebra, modulo shuffles factorwise",
        ctx.label,
        ctx.syms_letters,
        law,
        render_sym,
    )


def check_q_coderivation(ctx: RunContext) -> CheckRecord:
    A = ctx.algebra

    def law(sym):
        d = coproduct_delta(A, sym)
        lhs = apply_in_slot(d, 0, ctx.q_op, 1, ctx.sdeg) + apply_in_slot(
            d, 1, ctx.q_op, 1, ctx.sdeg
        )
        rhs = ctx.q_op(sym).map_basis(lambda s: coproduct_delta(A, s))
        return sym_tensor_is_zero(A, QUOTIENT, lhs - rhs, 2), "Q is not a coderivation of Delta"

    return _run_check(
        "codifferential-q-coderivation",
        "(Q x id + id x Q) Delta = Delta Q, modulo shuffles factorwise",
        ctx.label,
        ctx.syms_letters,
        law,
        render_sym,
    )


def check_q_taylor(ctx: RunContext) -> CheckRecord:
    A = ctx.algebra

    def law(sym):
        lhs = ctx.q_op(sym)
        rhs = q_by_taylor(A, sym, ctx.D)
        return lhs == rhs, "the two presentations of Q differ"

    return _run_check(
        "codifferential-q-taylor",
        "Q = m + ell'' equals its Taylor-coefficient presentation, exactly",
        ctx.label,
        ctx.syms_letters,
        law,
        render_sym,
    )


def check_sym_cobracket_coantisymmetry(ctx: RunContext) -> CheckRecord:
    A = ctx.algebra
    amb = A.a - A.b

    def law(sym):
        d = cobracket_doubleprime(A, sym)
        diff = swap_adjacent_slots(d, 0, ctx.sdeg) + d.scale(_sign(amb))
        return sym_tensor_is_zero(A, QUOTIENT, diff, 2), "twisted coantisymmetry fails"

    return _run_check(
        "sym-cobracket-coantisymmetry",
        "tau''.delta'' = -(-1)^(a-b) delta''",
        ctx.label,
        ctx.syms_factors,
        law,
        render_sym,
    )


def check_sym_cobracket_cojacobi(ctx: RunContext) -> CheckRecord:
    A = ctx.algebra
    amb = A.a - A.b
    fn = lambda s: cobracket_doubleprime(A, s)

    def law(sym):
        dd = splice_in_slot(cobracket_doubleprime(A, sym), 0, fn, amb, ctx.sdeg)
        t1 = swap_adjacent_slots(swap_adjacent_slots(dd, 1, ctx.sdeg), 0, ctx.sdeg)
        t2 = swap_adjacent_slots(swap_adjacent_slots(dd, 0, ctx.sdeg), 1, ctx.sdeg)
        return sym_tensor_is_zero(A, QUOTIENT, dd + t1 + t2, 3), "coJacobi fails"

    return _run_check(
        "sym-cobracket-cojacobi",
        "(id + t12 t23 + t23 t12)(delta'' x id) delta'' = 0",
        ctx.label,
        ctx.syms_factors,
        law,
        render_sym,
    )


def check_sym_cobracket_coleibniz(ctx: RunContext) -> CheckRecord:
    A = ctx.algebra
    amb = A.a - A.b
    delta_fn = lambda s: coproduct_delta(A, s)
    dpp_fn = lambda s: cobracket_doubleprime(A, s)

    def law(sym):
        lhs = splice_in_slot(cobracket_doubleprime(A, sym), 1, delta_fn, 0, ctx.sdeg)
        d = coproduct_delta(A, sym)
        r1 = splice_in_slot(d, 0, dpp_fn, amb, ctx.sdeg)
        r2 = swap_adjacent_slots(splice_in_slot(d, 1, dpp_fn, amb, ctx.sdeg), 0, ctx.sdeg)
        return sym_tensor_is_zero(A, QUOTIENT, lhs - r1 - r2, 3), "coLeibniz fails"

    return _run_check(
        "sym-cobracket-coleibniz",
        "(id x Delta) delta'' = (delta'' x id) Delta + t12 (id x delta'') Delta",
        ctx.label,
        ctx.syms_factors,
        law,
        render_sym,
    )


def _twist_check(ctx: RunContext, name: str, op: Callable, statement: str) -> CheckRecord:
    A = ctx.algebra
    amb = A.a - A.b

    def law(sym):
        d = cobracket_doubleprime(A, sym)
        lhs = apply_in_slot(d, 0, op, 1, ctx.sdeg) + apply_in_slot(d, 1, op, 1, ctx.sdeg)
        rhs = op(sym).map_basis(lambda s: cobracket_doubleprime(A, s)).scale(_sign(amb))
        return sym_tensor_is_zero(A, QUOTIENT, lhs - rhs, 2), "twisted coderivation law fails"

    return _run_check(name, statement, ctx.label, ctx.syms_factors, law, render_sym)


def check_m_twist(ctx: RunContext) -> CheckRecord:
    return _twist_check(
        ctx,
        "sym-cobracket-m-twist",
        lambda s: extend_m(ctx.algebra, s, ctx.D),
        "(m x id + id x m) delta'' = (-1)^(a-b) delta'' m",
    )


def check_ell_twist(ctx: RunContext) -> CheckRecord:
    return _twist_check(
        ctx,
        "sym-cobracket-ell-twist",
        lambda s: extend_ell(ctx.algebra, s),
        "(ell'' x id + id x ell'') delta'' = (-1)^(a-b) delta'' ell''",
    )


def check_gerstenhaber_specialization(ctx: RunContext) -> CheckRecord:
    A = ctx.algebra

    def law(sym):
        lhs = cobracket_doubleprime(A, sym)
        rhs = kappa(A, sym)
        return lhs == rhs, (
            f"delta'' {format_element(lhs, render_sym_tuple)} vs kappa "
            f"{format_element(rhs, render_sym_tuple)}"
        )

    return _run_check(
        "specialization-gerstenhaber",
        "at a-b = 1 the cobracket equals the directly coded cosymmetric one, exactly",
        ctx.label,
        ctx.syms_small,
        law,
        render_sym,
    )


def check_poisson_specialization(ctx: RunContext) -> CheckRecord:
    A = ctx.algebra

    def law(sym):
        lhs = cobracket_doubleprime(A, sym)
        rhs = poisson_cobracket(A, sym)
        return lhs == rhs, (
            f"delta'' {format_element(lhs, render_sym_tuple)} vs direct "
            f"{format_element(rhs, render_sym_tuple)}"
        )

    return _run_check(
        "specialization-poisson",
        "at a-b = 0 the cobracket equals the directly coded coantisymmetric one, exactly",
        ctx.label,
        ctx.syms_small,
        law,
        render_sym,
    )


def envelope_suite(ctx: RunContext) -> list[CheckRecord]:
    records = [
        check_coproduct_cocommutative(ctx),
        check_coproduct_coassociative(ctx),
        check_q_squared(ctx),
        check_q_coderivation(ctx),
        check_q_taylor(ctx),
        check_sym_cobracket_coantisymmetry(ctx),
        check_sym_cobracket_cojacobi(ctx),
        check_sym_cobracket_coleibniz(ctx),
        check_m_twist(ctx),
        check_ell_twist(ctx),
    ]
    amb = ctx.algebra.a - ctx.algebra.b
    if amb == 1:
        records.append(check_gerstenhaber_specialization(ctx))
    if amb == 0:
        records.append(check_poisson_specialization(ctx))
    return records


# -- drivers ------------------------------------------------------------------


def build_instance(config: SuiteConfig) -> Instance:
    if config.algebra in BUILTINS:
        return builtin_instance(config.algebra, config.params)
    algebra = load_algebra(config.algebra)
    return Instance(algebra, dict(config.params))


def axiom_records(instance: Instance) -> list[CheckRecord]:
    label = instance.algebra.name
    out = []
    for c in instance.check_structure():
        out.append(
            CheckRecord(
                c.axiom,
                "defining structure identity, exact on all generator tuples",
                label,
                c.status,
                witness=c.witness,
            )
        )
    return out


def run_check_algebra(config: SuiteConfig, instance: Instance | None = None) -> Report:
    """Structure axioms of the configured instance (built here unless given)."""
    if instance is None:
        instance = build_instance(config)
    return Report("check-algebra", config.as_dict(), axiom_records(instance))


def run_verify_envelope(config: SuiteConfig, instance: Instance | None = None) -> Report:
    """The configured suites on the configured instance (built here unless given)."""
    if instance is None:
        instance = build_instance(config)
    ctx = RunContext(instance, config)
    records: list[CheckRecord] = []
    if "coalgebra" in config.suites:
        records.extend(coalgebra_suite())
    if "axioms" in config.suites:
        records.extend(axiom_records(instance))
    suite_fns: list[Callable[[], list[CheckRecord]]] = []
    if "core" in config.suites:
        suite_fns.append(lambda: core_suite(ctx))
    if "envelope" in config.suites:
        suite_fns.append(lambda: envelope_suite(ctx))
    if config.jobs > 1 and len(suite_fns) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            for part in pool.map(lambda fn: fn(), suite_fns):
                records.extend(part)
    else:
        for fn in suite_fns:
            records.extend(fn())
    return Report("verify-envelope", config.as_dict(), records)


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


def perturb_algebra(algebra: AbAlgebra, choice: tuple[str, str, str, str]) -> AbAlgebra:
    kind, i1, i2, tgt = choice
    bump = Element.of(algebra.gen(tgt))

    def wrap(fn):
        def wrapped(g1: str, g2: str) -> Element:
            out = fn(g1, g2)
            if (g1, g2) == (i1, i2):
                out = out + bump
            return out

        return wrapped

    return AbAlgebra(
        name=algebra.name + "-mutant",
        a=algebra.a,
        b=algebra.b,
        generators=algebra.generators,
        unshifted=algebra.unshifted,
        product_fn=wrap(algebra.product_fn) if kind == "product" else algebra.product_fn,
        bracket_fn=wrap(algebra.bracket_fn) if kind == "bracket" else algebra.bracket_fn,
        diff_fn=algebra.diff_fn,
        description=f"{algebra.description}; {kind}({i1},{i2}) += {tgt}",
    )


def run_mutation(config: SuiteConfig, rounds: int = 1, instance: Instance | None = None) -> Report:
    """Seeded single-constant mutants of the configured instance (built here unless given)."""
    if instance is None:
        instance = build_instance(config)
    rng = random.Random(config.seed)
    candidates = perturbation_candidates(instance.algebra)
    if not candidates:
        raise ValueError("no degree-homogeneous perturbation exists for this instance")
    records: list[CheckRecord] = []
    for k in range(rounds):
        choice = candidates[rng.randrange(len(candidates))]
        mutant = perturb_algebra(instance.algebra, choice)
        mutant_instance = Instance(mutant, dict(instance.params))
        # the probe family must exercise the perturbed entry
        forced = tuple(dict.fromkeys(choice[1:3]))
        ctx = RunContext(mutant_instance, config, forced_gens=forced)
        found = ""
        # cheap, sensitive checks first; stop at the first failure
        check_fns: list[Callable[[RunContext], CheckRecord]] = [
            check_lie_antisymmetry,
            check_sym_bracket_symmetry,
            check_d_squared,
            check_d_coderivation,
            check_lie_leibniz,
            check_lie_jacobi,
            check_sym_bracket_jacobi,
            check_sym_bracket_differential,
            check_ell2_compatibility,
            check_q_squared,
            check_q_coderivation,
            check_sym_cobracket_coantisymmetry,
            check_m_twist,
            check_ell_twist,
        ]
        for fn in check_fns:
            record = fn(ctx)
            if record.status == "fail":
                found = f"{record.check}: {record.witness}"
                break
        kind, g1, g2, tgt = choice
        label = f"{kind}({g1},{g2}) += {tgt}"
        if found:
            records.append(
                CheckRecord(
                    f"mutation-{k}",
                    "a perturbed structure constant must break at least one identity",
                    label,
                    "pass",
                    evaluated=1,
                    witness=f"detected by {found}",
                )
            )
        else:
            records.append(
                CheckRecord(
                    f"mutation-{k}",
                    "a perturbed structure constant must break at least one identity",
                    label,
                    "fail",
                    evaluated=1,
                    witness="no identity failed on the mutant",
                )
            )
    return Report("mutation", config.as_dict(), records)
