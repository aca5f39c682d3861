"""Spans and counters recorded from outside the program.

The tracer replaces module attributes of the freshly imported `cohorn`
package with wrappers, so every call that goes through that binding is
timed.  A binding is the name as the caller's module sees it: wrapping
`corec.resolve` catches the calls `auto` and `prove_horn` make, and
`loopdetect.find_critical_triples` also catches the second call made
inside `closed_subtree`.  Nothing inside the program is changed.

Each wrapped call records one span (name, start, end, parent span, file
id) in memory.  `match` is the exception: it runs about 10^5 times per
looping file, so it is counted (calls and hits) instead of spanned.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter_ns


# (module, attribute, span name, layer).  The same span name on several
# bindings means the same function reached from different modules.
SPANNED = [
    ("cli", "main", "check", "cli"),
    ("cli", "parse_module", "parse_module", "parser"),
    ("cli", "Session.load_checks", "load_checks", "cli"),
    ("cli", "emit_json", "report", "cli"),
    ("cli", "_report_text", "report", "cli"),
    ("cli", "auto", "auto", "corec"),
    ("cli", "prove_horn", "prove_horn", "corec"),
    ("corec", "prove_horn", "prove_horn", "corec"),
    ("cli", "wf_check", "wf_check", "corec"),
    ("corec", "resolve", "resolve", "resolve"),
    ("corec", "build_tree", "build_tree", "resolve"),
    ("cli", "small_step_trace", "trace", "resolve"),
    ("corec", "find_critical_triples", "find_critical_triples", "loopdetect"),
    ("loopdetect", "find_critical_triples", "find_critical_triples", "loopdetect"),
    ("corec", "closed_subtree", "closed_subtree", "loopdetect"),
    ("corec", "abstract_representation", "abstract_representation", "loopdetect"),
    ("corec", "candidate_lemma", "candidate_lemma", "loopdetect"),
    ("corec", "type_check", "type_check", "evidence"),
    ("cli", "detect_simple_loop", "detect_simple_loop", "evidence"),
    ("cli", "observational_points", "observational_points", "evidence"),
    ("evidence", "observational_points", "observational_points", "evidence"),
    ("cli", "corecursive_points", "corecursive_points", "evidence"),
    ("evidence", "corecursive_points", "corecursive_points", "evidence"),
    ("cli", "check_obs_equiv", "check_obs_equiv", "evidence"),
    *[
        (mod, fn, "render", "syntax")
        for mod in ("evidence", "corec", "cli")
        for fn in ("render_atom", "render_evidence", "render_horn")
        if not (mod == "corec" and fn != "render_horn")
    ],
]

COUNTED = [("resolve", "match"), ("evidence", "match"), ("cli", "match")]

LAYERS = ["cli", "parser", "corec", "resolve", "loopdetect", "evidence", "syntax"]


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> freshly imported cohorn module
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {}
        self.spans: list = []  # [name id, start ns, end ns, parent, file id]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.file_id = -1
        self._saved: list = []

    # -- installing -------------------------------------------------------

    def install(self):
        for mod, attr, name, layer in SPANNED:
            self._patch(mod, attr, lambda fn, n=name, l=layer: self._spanned(fn, n, l))
        for mod, attr in COUNTED:
            self._patch(mod, attr, self._counted_match)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, mod: str, path: str, make):
        owner = self.modules[mod]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, fn, name: str, layer: str):
        if name not in self.layer_of:
            self.layer_of[name] = layer
            self.names.append(name)
        nid = self.names.index(name)
        before = getattr(self, f"_before_{name}", None)
        after = getattr(self, f"_after_{name}", None)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = [nid, 0, 0, stack[-1] if stack else -1, self.file_id]
            stack.append(len(spans))
            spans.append(span)
            state = before(args) if before else None
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as ex:
                span[2] = perf_counter_ns()
                stack.pop()
                if after:
                    after(args, state, None, ex)
                raise
            span[2] = perf_counter_ns()
            stack.pop()
            if after:
                after(args, state, result, None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_match(self, fn):
        counts = self.counts

        def match(pattern, subject):
            counts["match_calls"] += 1
            result = fn(pattern, subject)
            if result is not None:
                counts["match_hits"] += 1
            return result

        match.__wrapped__ = fn
        return match

    # -- counters, read at the span boundaries -----------------------------
    # `_after_<span>(args, state, result, exc)` runs when a call returns or
    # raises; `state` is what `_before_<span>(args)` returned, if defined.

    def _before_resolve(self, args):
        fuel = args[2] if len(args) > 2 else None
        return fuel, getattr(fuel, "remaining", None)

    def _after_resolve(self, args, state, result, exc):
        fuel, before = state
        if before is None:  # an int budget: resolve keeps its Fuel private
            return
        spent = before - max(fuel.remaining, 0)
        self.counts["fuel_spent"] += spent
        if type(exc).__name__ == "FuelExhausted":
            self.counts["fuel_wasted"] += spent

    def _after_build_tree(self, args, state, result, exc):
        if exc is None:
            self.counts["tree_nodes"] += len(result.nodes)
            self.counts["tree_truncated"] += int(result.truncated)

    def _after_trace(self, args, state, result, exc):
        if exc is None:
            self.counts["trace_states"] += len(result)

    def _after_find_critical_triples(self, args, state, result, exc):
        if exc is None:
            self.counts["triples_found"] += len(result)

    def _after_closed_subtree(self, args, state, result, exc):
        if hasattr(result, "positions"):
            self.counts["closed_positions"] += len(result.positions)

    def _after_abstract_representation(self, args, state, result, exc):
        if exc is None:
            self.counts["abstract_nodes"] += len(result.nodes)

    def _after_auto(self, args, state, result, exc):
        if exc is None:
            self.counts["lemmas_generated"] += len(result.lemmas)

    def _after_type_check(self, args, state, result, exc):
        if exc is None:
            self.counts["type_check_log_lines"] += len(result[1])

    def _after_detect_simple_loop(self, args, state, result, exc):
        if result is not None:
            self.counts["loops_found"] += 1

    def _after_parse_module(self, args, state, result, exc):
        self.counts["parsed_bytes"] += len(args[0].encode("utf-8"))

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, inclusive ns and self ns (inclusive minus
        the part its child spans cover)."""
        child_ns = [0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
        for i, (nid, start, end, _, _) in enumerate(self.spans):
            t = out[self.names[nid]]
            t["calls"] += 1
            t["ns"] += end - start
            t["self_ns"] += end - start - child_ns[i]
        return out

    def layer_self_ms(self, totals: dict) -> dict:
        out = {layer: 0.0 for layer in LAYERS}
        for name, t in totals.items():
            out[self.layer_of[name]] += t["self_ns"] / 1e6
        return out

    def work_counts(self, totals: dict) -> dict:
        """Every count of the pass: the counters plus the calls of each span.
        Two passes over the same inputs must agree on all of them."""
        counts = dict(self.counts)
        for name, t in totals.items():
            counts[f"calls.{name}"] = t["calls"]
        return counts

    def dump(self) -> dict:
        return {
            "names": self.names,
            "layers": self.layer_of,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "file"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
