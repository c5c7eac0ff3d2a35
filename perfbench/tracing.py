"""Spans and counters installed around quadliaison from outside.

``install`` wraps module functions and class methods by replacing every
reference to them in the loaded ``quadliaison`` modules, so no source
file changes.  Stage functions get spans (name, start, end, parent, op
id); the hot inner functions get a call counter and a self-time
accumulator only, because a span per call would swamp the run.  A
layer's self time is its duration minus the time of its direct children
(spans and timed counters alike).  A traced name missing from the
package stops the traced run, so a renamed or inlined layer shows up as
a missing measurement, never as a layer that takes no time.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# (module, attribute or Class.attribute, layer)
SPANS = [
    ("cli", "main", "cli.main"),
    ("classify", "etype_candidates", "classify.etype"),
    ("classify", "etype_middle", "classify.middle"),
    ("classify", "generator_estimate", "classify.generator_estimate"),
    ("classify", "kernel_table_from_resolution", "classify.kernel_table"),
    ("classify", "match_acm_kernel", "classify.match"),
    ("classify", "enumerate_rank4_candidates", "classify.enumerate"),
    ("curves", "section_table", "curves.tables"),
    ("curves", "ideal_h0_table", "curves.tables"),
    ("curves", "full_ideal_table", "curves.tables"),
    ("curves", "ambient_table", "curves.tables"),
    ("curves", "CohomTable.render_grid", "curves.render"),
    ("curves", "CohomTable.render_csv", "curves.render"),
    ("curves", "render_value_row", "curves.render"),
    ("curves", "render_value_csv", "curves.render"),
    ("curves", "regularity", "curves.regularity"),
    ("curves", "acm_embedding_obstruction", "curves.obstruction"),
    ("curves", "nonspecial_threshold", "curves.nonspecial_threshold"),
    ("liaison", "ci_residual", "liaison.ci_residual"),
    ("liaison", "mapping_cone_n_from_e", "liaison.mapping_cone"),
    ("liaison", "mapping_cone_e_from_n", "liaison.mapping_cone"),
    ("liaison", "resolution_consistency_check", "liaison.audit"),
    ("verify", "run_reference_checks", "verify"),
]
TIMED_COUNTERS = [
    ("hilbert", "binom", "hilbert"),
    ("hilbert", "h0_proj", "hilbert"),
    ("hilbert", "h0_quadric3", "hilbert"),
    ("hilbert", "h0_spinor", "hilbert"),
    ("sheaves", "SheafExpr.h0", "sheaves.h0"),
]
PLAIN_COUNTERS = [
    ("sheaves", "SheafExpr.__post_init__", "sheaves.exprs_built"),
    ("sheaves", "SheafExpr._replace_atoms", "sheaves.exprs_built"),
]

class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, op_id)
        self.stack: list[list] = []  # frames: [child_ns, span_id]
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.op_id = -1
        self.op_flags: set[str] = set()
        self.building = 0
        self.matching = 0
        self.tested: dict[int, object] = {}
        self._next_id = 0

    # -- ops ---------------------------------------------------------------
    def run_op(self, op_id: int, kind: str, fn, *args):
        """Run one op as a root span named ``op``; returns fn's result.

        A resolve op whose kernel matched uniquely but whose resolution then
        failed an audit counts as ``classify.outcome.audit_fail``.
        """
        self.op_id = op_id
        self.op_flags = set()
        try:
            return self._span_call("op", fn, args, {}, None)
        finally:
            if kind.startswith("resolve") and {"unique", "audit_failed"} <= self.op_flags:
                self.counts["classify.outcome.audit_fail"] += 1

    def _span_call(self, name, fn, args, kwargs, hook):
        span_id = self._next_id
        self._next_id += 1
        parent = self.stack[-1][1] if self.stack else None
        frame = [0, span_id]
        self.stack.append(frame)
        if hook is not None:
            hook.enter(self)
        start = time.perf_counter_ns()
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as error:
            exc = error
            raise
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            duration = end - start
            self.self_ns[name] += duration - frame[0]
            self.calls[name] += 1
            if self.stack:
                self.stack[-1][0] += duration
            self.spans.append((span_id, name, start, end, parent, self.op_id))
            if hook is not None:
                hook.exit(self, args, result, exc, duration)

    # -- output ------------------------------------------------------------
    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "counts": dict(self.counts),
        }


class _Hook:
    def enter(self, tracer):
        pass

    def exit(self, tracer, args, result, exc, duration):
        pass


class _Cells(_Hook):
    def exit(self, tracer, args, result, exc, duration):
        if exc is None:
            cells = getattr(result, "cells", result)
            tracer.counts["curves.cells"] += len(cells)


class _Bytes(_Hook):
    def exit(self, tracer, args, result, exc, duration):
        if exc is None:
            tracer.counts["curves.render.bytes"] += len(result.encode())


class _Etype(_Hook):
    def exit(self, tracer, args, result, exc, duration):
        if exc is not None:
            if type(exc).__name__ == "RangeTooLarge":
                tracer.counts["classify.outcome.capped"] += 1
            return
        found = len(result[1])
        outcome = "none" if found == 0 else "unique" if found == 1 else "ambiguous"
        tracer.counts[f"classify.outcome.{outcome}"] += 1
        if found == 1:
            tracer.op_flags.add("unique")


class _Match(_Hook):
    def enter(self, tracer):
        tracer.building += 1
        tracer.matching += 1

    def exit(self, tracer, args, result, exc, duration):
        tracer.building -= 1
        tracer.matching -= 1
        if not tracer.matching:
            tracer.counts["classify.candidates_tested"] += len(tracer.tested)
            tracer.tested.clear()
        if exc is None:
            tracer.counts["classify.matches"] += len(result)


class _Enumerate(_Hook):
    def __init__(self, module):
        self.cache = getattr(module, "_enumerate_cached", None)
        self.misses = 0

    def enter(self, tracer):
        tracer.building += 1
        info = getattr(self.cache, "cache_info", None)
        self.misses = info().misses if info else 0

    def exit(self, tracer, args, result, exc, duration):
        tracer.building -= 1
        info = getattr(self.cache, "cache_info", None)
        if info is None or info().misses > self.misses:
            tracer.counts["classify.enumerate.cold_ns"] += duration


class _Audit(_Hook):
    def exit(self, tracer, args, result, exc, duration):
        if exc is None:
            tracer.counts["liaison.audit.cells"] += len(result.cells)
            outcome = "ok" if result.ok else "inconsistent"
            tracer.counts[f"liaison.outcome.{outcome}"] += 1
            if not result.ok:
                tracer.op_flags.add("audit_failed")


class _Cone(_Hook):
    def exit(self, tracer, args, result, exc, duration):
        if exc is not None and type(exc).__name__ == "MappingConeInconsistent":
            tracer.op_flags.add("audit_failed")


class _Verify(_Hook):
    def exit(self, tracer, args, result, exc, duration):
        if exc is None:
            tracer.counts["verify.checks"] += len(result)
            tracer.counts["verify.fail"] += sum(r.status == "FAIL" for r in result)


def _span_wrapper(tracer, name, fn, hook):
    def wrapper(*args, **kwargs):
        return tracer._span_call(name, fn, args, kwargs, hook)

    wrapper.__wrapped__ = fn
    return wrapper


def _timed_wrapper(tracer, name, fn, on_call=None):
    stack, self_ns, calls, clock = tracer.stack, tracer.self_ns, tracer.calls, time.perf_counter_ns

    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(args)
        frame = [0, stack[-1][1] if stack else None]
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - start
            stack.pop()
            self_ns[name] += duration - frame[0]
            calls[name] += 1
            if stack:
                stack[-1][0] += duration

    wrapper.__wrapped__ = fn
    return wrapper


def _plain_wrapper(tracer, name, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[name] += 1
        if tracer.building:
            counts["classify.candidates_built"] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _hook_for(layer, module):
    if layer == "curves.tables":
        return _Cells()
    if layer == "curves.render":
        return _Bytes()
    if layer == "classify.etype":
        return _Etype()
    if layer == "classify.match":
        return _Match()
    if layer == "classify.enumerate":
        return _Enumerate(module)
    if layer == "liaison.audit":
        return _Audit()
    if layer == "liaison.mapping_cone":
        return _Cone()
    if layer == "verify":
        return _Verify()
    return None


def _replace(owner, attr, original, wrapper):
    """Point every reference to ``original`` in quadliaison at ``wrapper``."""
    if owner is not None:
        setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if name == "quadliaison" or name.startswith("quadliaison."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def _lookup(mod_name: str, attr: str):
    """(owner class or None, attribute name, original) of one traced name;
    original is None when the package lacks it."""
    try:
        module = importlib.import_module(f"quadliaison.{mod_name}")
    except ImportError:
        return None, attr, None
    if "." not in attr:
        return None, attr, getattr(module, attr, None)
    cls_name, attr = attr.split(".")
    owner = getattr(module, cls_name, None)
    return owner, attr, vars(owner).get(attr) if owner is not None else None


def require_names() -> None:
    """Raise LookupError naming every traced name the package lacks."""
    missing = [
        f"{mod_name}.{attr}"
        for table in (SPANS, TIMED_COUNTERS, PLAIN_COUNTERS)
        for mod_name, attr, _ in table
        if _lookup(mod_name, attr)[2] is None
    ]
    if missing:
        raise LookupError(f"traced names missing from quadliaison: {', '.join(missing)}")


def install(tracer: Tracer) -> None:
    """Wrap every traced name; raise LookupError if the package lacks any."""
    require_names()

    def tested(args):
        if tracer.matching:
            tracer.tested[id(args[0])] = args[0]

    for table, kind in ((SPANS, "span"), (TIMED_COUNTERS, "timed"), (PLAIN_COUNTERS, "plain")):
        for mod_name, attr, layer in table:
            owner, attr, original = _lookup(mod_name, attr)
            if kind == "span":
                module = sys.modules[f"quadliaison.{mod_name}"]
                wrapper = _span_wrapper(tracer, layer, original, _hook_for(layer, module))
            elif kind == "timed":
                wrapper = _timed_wrapper(
                    tracer, layer, original, tested if layer == "sheaves.h0" else None
                )
            else:
                wrapper = _plain_wrapper(tracer, layer, original)
            _replace(owner, attr, original, wrapper)


def merge(total: dict, part: dict, op_offset: int) -> None:
    """Add one process's dump into a running total."""
    for key in ("calls", "self_ns", "counts"):
        bucket = total.setdefault(key, {})
        for name, value in part[key].items():
            bucket[name] = bucket.get(name, 0) + value
    spans = total.setdefault("spans", [])
    id_offset = total.get("next_id", 0)
    for span_id, name, start, end, parent, op_id in part["spans"]:
        spans.append((
            span_id + id_offset, name, start, end,
            None if parent is None else parent + id_offset, op_id + op_offset,
        ))
    total["next_id"] = id_offset + 1 + max((s[0] for s in part["spans"]), default=0)


def share_pct(spans, op_kinds: dict, layer: str, kind_prefix: str) -> float:
    """Inclusive time of ``layer`` as a percentage of the ops of a kind."""
    ops = {s[5] for s in spans if s[1] == "op" and op_kinds.get(s[5], "").startswith(kind_prefix)}
    total = sum(s[3] - s[2] for s in spans if s[1] == "op" and s[5] in ops)
    # count each layer span once, not its nested re-entries
    by_id = {s[0]: s for s in spans}
    inner = 0
    for s in spans:
        if s[1] != layer or s[5] not in ops:
            continue
        parent, nested = s[4], False
        while parent is not None:
            if by_id[parent][1] == layer:
                nested = True
                break
            parent = by_id[parent][4]
        if not nested:
            inner += s[3] - s[2]
    return 100.0 * inner / total if total else 0.0
