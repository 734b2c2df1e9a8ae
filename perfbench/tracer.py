"""Per-layer tracing of the ``abhomotopy`` package, applied from outside.

:func:`install` wraps each traced function under its name in every
``abhomotopy`` module that binds it (the package imports with
``from .x import y``, so patching only the defining module would miss
most calls), and wraps the traced methods on their classes.  Every
wrapper keeps a stack of child time, so each group's self time is its
wall time minus the time of wrapped calls below it.

Two kinds of group:

- *span* groups (layer boundaries such as ``ell2`` or a whole check)
  also record one span per call: (group, start, end, parent span);
- *leaf* groups (``koszul_sign``, ``Element`` addition, structure-map
  lookups and the like, up to ~1 M calls per run) aggregate count and
  self time in place and record no span.

Counts depend only on the work done, so two traced runs of the same
inputs give identical counts (children run with a fixed hash seed).
"""

from __future__ import annotations

import sys
import time
from typing import Callable

perf = time.perf_counter

_MARK = "__perfbench_traced__"


class Group:
    __slots__ = ("name", "calls", "self_s", "keys", "extra", "active")

    def __init__(self, name: str, distinct: bool = False):
        self.name = name
        self.calls = 0
        self.self_s = 0.0
        self.keys: set | None = set() if distinct else None
        self.extra: dict[str, int] = {}
        self.active = 0  # nesting depth, for groups that count outermost calls only


class Tracer:
    def __init__(self) -> None:
        self.groups: dict[str, Group] = {}
        self.frames: list[float] = [0.0]  # child time accumulated per open call
        self.span_stack: list[int] = [-1]
        self.spans: list = []  # [group name, start, end, parent span index]
        self._serials: dict[int, int] = {}
        self._pinned: list = []  # keeps keyed objects alive so ids stay unique

    def group(self, name: str, distinct: bool = False) -> Group:
        g = self.groups.get(name)
        if g is None:
            g = self.groups[name] = Group(name, distinct)
        return g

    def serial(self, obj) -> int:
        """Stable per-run number for an object (an algebra), for distinct keys."""
        s = self._serials.get(id(obj))
        if s is None:
            s = self._serials[id(obj)] = len(self._serials)
            self._pinned.append(obj)
        return s

    def wrap(self, fn: Callable, g: Group, *, span: bool = False, count: bool = True,
             key: Callable | None = None, on_call: Callable | None = None,
             on_return: Callable | None = None, outermost: bool = False) -> Callable:
        """Wrapper adding count and self time to ``g``; with ``span`` also a span."""
        frames, spans, span_stack = self.frames, self.spans, self.span_stack

        def wrapper(*args, **kwargs):
            if outermost:
                if not g.active:
                    g.calls += 1
                g.active += 1
            elif count:
                g.calls += 1
            if key is not None:
                g.keys.add(key(*args))
            if on_call is not None:
                on_call(g, *args)
            if span:
                record = [g.name, 0.0, 0.0, span_stack[-1]]
                span_stack.append(len(spans))
                spans.append(record)
            frames.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dur = t1 - t0
                child = frames.pop()
                frames[-1] += dur
                g.self_s += dur - child
                if span:
                    record[1], record[2] = t0, t1
                    span_stack.pop()
                if outermost:
                    g.active -= 1
            if on_return is not None and not g.active:
                on_return(g, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper


def _rebind(fn: Callable, wrapper: Callable) -> None:
    """Replace ``fn`` by ``wrapper`` under every name any package module binds it to."""
    for name, module in list(sys.modules.items()):
        if name != "abhomotopy" and not name.startswith("abhomotopy."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)


def install() -> Tracer:
    """Wrap the package's layer functions; returns the tracer collecting stats."""
    from abhomotopy import ab_core, freemodule, signs, suites, sym_coalgebra, tensor_coalgebra

    t = Tracer()

    def functions(fns: list[Callable], group: Group, **kw) -> None:
        for fn in fns:
            _rebind(fn, t.wrap(fn, group, **kw))

    # signs
    functions([signs.koszul_sign], t.group("signs.koszul_sign"))

    # freemodule: terms copied by Element.__add__ / __sub__ (both copy one dict)
    add = t.group("freemodule.add")
    add.extra["terms_copied"] = 0
    Element = freemodule.Element

    def copied_add(g, left, right):
        if isinstance(right, Element):
            g.extra["terms_copied"] += len(left.terms) if left.terms else len(right.terms)

    def copied_sub(g, left, right):
        if isinstance(right, Element):
            g.extra["terms_copied"] += len(left.terms)

    Element.__add__ = t.wrap(Element.__add__, add, on_call=copied_add)
    Element.__sub__ = t.wrap(Element.__sub__, add, on_call=copied_sub)
    freemodule.ReducedBasis.reduce = t.wrap(freemodule.ReducedBasis.reduce, t.group("freemodule.reduce"))

    # tensor_coalgebra
    functions([tensor_coalgebra.shuffle], t.group("tensor_coalgebra.shuffle", distinct=True),
              key=lambda x, y: (x, y), span=True)
    slot = t.group("tensor_coalgebra.slot_calculus")
    functions([tensor_coalgebra.apply_in_slot, tensor_coalgebra.splice_in_slot,
               tensor_coalgebra.contract_adjacent_slots, tensor_coalgebra.swap_adjacent_slots],
              slot, span=True)
    quotient = t.group("tensor_coalgebra.quotient")
    quotient.extra["blocks"] = 0
    seen_blocks: set = set()

    def new_block(g, _self, block):
        if block not in seen_blocks:
            seen_blocks.add(block)
            g.extra["blocks"] += 1

    SQ = tensor_coalgebra.ShuffleQuotient
    SQ.normal_form_word = t.wrap(SQ.normal_form_word, quotient)
    SQ.span_basis = t.wrap(SQ.span_basis, quotient, span=True, count=False, on_call=new_block)
    for meth in ("normal_form", "is_zero", "normal_form_tensor", "tensor_is_zero"):
        setattr(SQ, meth, t.wrap(getattr(SQ, meth), quotient, count=False))

    # ab_core
    functions([ab_core.ell2], t.group("ab_core.ell2", distinct=True),
              key=lambda a, x, y: (t.serial(a), x, y), span=True)
    coder = t.group("ab_core.coderivation")
    ab_core.Coderivation.__call__ = t.wrap(ab_core.Coderivation.__call__, coder, span=True)
    ab_core.Coderivation.on_element = t.wrap(ab_core.Coderivation.on_element, coder, count=False, span=True)
    functions([ab_core.ell2_oracle], t.group("ab_core.oracles"), span=True)

    # structure maps: a lookup is a miss when it had to call the instance's map
    smaps = t.group("ab_core.structure_maps")
    smaps.extra["misses"] = 0
    sfn = t.group("instances.structure_fn")

    def lookup(method):
        inner = t.wrap(method, smaps)

        def wrapper(*args):
            before = sfn.calls
            try:
                return inner(*args)
            finally:
                if sfn.calls != before:
                    smaps.extra["misses"] += 1

        return wrapper

    AbAlgebra = ab_core.AbAlgebra
    for meth in ("product", "bracket", "differential"):
        setattr(AbAlgebra, meth, lookup(getattr(AbAlgebra, meth)))
    post_init = AbAlgebra.__post_init__

    def traced_post_init(self):
        post_init(self)
        for attr in ("product_fn", "bracket_fn", "diff_fn"):
            fn = getattr(self, attr)
            if not getattr(fn, _MARK, False):
                # a mutant's map wraps its parent's (already traced) map:
                # count only the outermost call
                setattr(self, attr, t.wrap(fn, sfn, outermost=True))

    AbAlgebra.__post_init__ = traced_post_init

    # sym_coalgebra
    per_algebra = dict(key=lambda a, s: (t.serial(a), s), span=True)
    functions([sym_coalgebra.coproduct_delta], t.group("sym_coalgebra.coproduct", distinct=True), **per_algebra)
    functions([sym_coalgebra.cobracket_doubleprime], t.group("sym_coalgebra.cobracket", distinct=True),
              **per_algebra)
    functions([sym_coalgebra.q_codifferential], t.group("sym_coalgebra.q"), span=True)
    sym_nf = t.group("sym_coalgebra.normal_form")
    functions([sym_coalgebra.sym_normal_form, sym_coalgebra.sym_tensor_normal_form],
              sym_nf, span=True)
    sym_oracles = t.group("sym_coalgebra.oracles")
    functions([sym_coalgebra.kappa, sym_coalgebra.poisson_cobracket, sym_coalgebra.q_by_taylor],
              sym_oracles, span=True)

    # suites: one span per identity check, and the inputs its record counts
    checks = t.group("suites.check")
    checks.extra.update(evaluated=0, skipped=0)

    def record_inputs(g, record):
        g.extra["evaluated"] += record.evaluated
        g.extra["skipped"] += record.skipped

    functions([fn for name, fn in vars(suites).items()
               if name.startswith("check_") and callable(fn) and fn.__module__ == suites.__name__],
              checks, outermost=True, span=True, on_return=record_inputs)

    return t


def summary(t: Tracer) -> dict:
    """Counts and self times per group, as plain JSON-able data."""
    out = {}
    for name, g in sorted(t.groups.items()):
        row = {"calls": g.calls, "self_s": g.self_s}
        if g.keys is not None:
            row["distinct"] = len(g.keys)
        row.update(g.extra)
        out[name] = row
    edges: dict[tuple[str, str], list] = {}
    for name, start, end, parent in t.spans:
        caller = t.spans[parent][0] if parent >= 0 else "root"
        edge = edges.setdefault((caller, name), [0, 0.0])
        edge[0] += 1
        edge[1] += end - start
    return {"groups": out, "spans": len(t.spans),
            "edges": [[a, b, n, s] for (a, b), (n, s) in sorted(edges.items())]}
