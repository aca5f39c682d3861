"""Batch driver: parse a declaration file, prove its lemma and auto goals
in order, and print the definitions in the standard report layout.

Exit codes: 0 when every goal is proven, 1 on a proof failure, 2 on parse,
scope or arity errors.  Diagnostics go to stderr; the report (or its JSON
mirror under --json) goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .corec import (
    DIRECTLY_PROVEN,
    INCONCLUSIVE,
    PROVEN,
    AutoReport,
    LoopAnalysis,
    ProofConfig,
    auto,
    prove_horn,
)
# bound here only because the benchmark's tracer patches these cli names
from .corec import wf_check  # noqa: F401
from .evidence import check_obs_equiv  # noqa: F401
from .evidence import (
    compare_points,
    corecursive_points,
    detect_simple_loop,
    observational_points,
)
from .parser import Decl, ParseError, ScopeError, SourceModule, parse_atom, parse_module
from .resolve import (
    AxiomEnv,
    EntryKind,
    FuelExhausted,
    GuardViolation,
    NodeStatus,
    Path,
    Stuck,
    axiom,
    count_steps,
    index_key,
    lemma,
    trace as small_step_trace,
)
from .syntax import (
    Atom,
    EAxiom,
    EMu,
    HornFormula,
    free_vars,
    match,
    render_atom,
    render_evidence,
    render_horn,
    subst_evidence,
)


@dataclass(frozen=True, kw_only=True)
class RunConfig(ProofConfig):
    """The `check` options: the proof bounds plus what the report shows."""

    path: str
    trace: bool = False
    explain: bool = False
    obs_check: Optional[int] = None
    json: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.obs_check is not None and self.obs_check < 1:
            raise ValueError("obs check count must be positive")


@dataclass
class GoalResult:
    name: str
    decl: Decl
    report: AutoReport
    # the environment the goal was proven in: its lemmas included, its own
    # entry excluded, so traces replay the proof instead of shortcutting
    # through it
    proof_env: Optional[AxiomEnv] = None

    def replay(self, run, fuel: int):
        """`run(env, goal, fuel)`, the trace or its step count, on a proven
        bodiless ground goal in the environment it was proven in, else None."""
        f = self.decl.formula
        if self.proof_env is None or f.body or free_vars(f):
            return None
        return run(self.proof_env, f.head, fuel)


@dataclass
class Session:
    """One engine run over one source module: sequential declaration
    processing with a global declaration counter for names."""

    module: SourceModule
    cfg: ProofConfig
    env: AxiomEnv = field(default_factory=AxiomEnv)
    goals: list[GoalResult] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    failed: bool = False

    def load_checks(self) -> dict[str, int]:
        """Arity consistency across every formula, plus duplicate and
        overlapping axiom warnings.  Returns each predicate's arity."""
        arity: dict[str, int] = {}
        for d in self.module.decls:
            for a in (d.formula.head, *d.formula.body):
                seen = arity.setdefault(a.pred, len(a.args))
                if seen != len(a.args):
                    raise ScopeError(
                        f"predicate {a.pred} used with arity {len(a.args)} "
                        f"and {seen}",
                        d.line,
                    )
        # an earlier axiom can only duplicate or overlap a later one of the
        # same predicate whose index key is equal, or when one key is None
        axioms = [d.formula for d in self.module.decls if d.kind == "axiom"]
        by_key: dict[tuple, list[int]] = {}
        by_pred: dict[str, list[int]] = {}
        for i, f in enumerate(axioms):
            pred, key = f.head.pred, index_key(f.head)
            if key is None:
                earlier = by_pred.get(pred, [])
            else:
                earlier = sorted(
                    by_key.get((pred, key), []) + by_key.get((pred, None), [])
                )
            for j in earlier:
                g = axioms[j]
                if f == g:
                    self.warnings.append(
                        f"duplicate axiom formula {render_horn(f)}"
                    )
                elif (
                    match(f.head, g.head) is not None
                    or match(g.head, f.head) is not None
                ):
                    self.warnings.append(
                        f"overlapping heads: {render_atom(f.head)} and "
                        f"{render_atom(g.head)}"
                    )
            by_key.setdefault((pred, key), []).append(i)
            by_pred.setdefault(pred, []).append(i)
        return arity

    def process(self):
        next_id = len(self.module.decls)

        def namer() -> str:
            nonlocal next_id
            name = f"genLemm{next_id}"
            next_id += 1
            return name

        for i, d in enumerate(self.module.decls):
            if d.kind == "axiom":
                self.env = self.env.extended(axiom(f"Ax{i}", d.formula))
                continue
            name = f"goalLem{i}"
            if d.kind == "lemma":
                report = self._prove_lemma(d)
            else:
                report = auto(self.env, d.formula, self.cfg, namer)
            result = GoalResult(name, d, report)
            self.goals.append(result)
            if report.outcome not in (PROVEN, DIRECTLY_PROVEN):
                self.failed = True
                return
            self.env = self.env.extended(*report.lemmas)
            result.proof_env = self.env
            self.env = self.env.extended(lemma(name, d.formula, report.evidence))

    def _prove_lemma(self, d: Decl) -> AutoReport:
        try:
            ev = prove_horn(self.env, d.formula, self.cfg)
            return AutoReport(DIRECTLY_PROVEN, evidence=ev)
        except (FuelExhausted, Stuck, GuardViolation) as ex:
            return AutoReport(INCONCLUSIVE, reason=f"lemma proof failed: {ex}")


# ---------------------------------------------------------------------------
# Report rendering


def _pos(p: Path) -> str:
    return "<" + ",".join(str(i) for i in p) + ">"


def _tree_lines(tree, positions: list[Path], critical, out: list[str], indent: str):
    """Print the tree's nodes at `positions`, given in breadth-first order,
    relative to the first."""
    base = len(positions[0])
    for p in positions:
        st = tree.status[p]
        if st is NodeStatus.SUCCESS:
            text = "[]"
        elif p in critical:
            text = f"{render_atom(tree.nodes[p])}  [critical]"
        elif st is NodeStatus.STUCK:
            text = f"{render_atom(tree.nodes[p])}  [irreducible]"
        else:
            text = f"{render_atom(tree.nodes[p])}  [{tree.clause_at[p]}]"
        out.append(f"{indent}{'  ' * (len(p) - base)}{_pos(p[base:])} {text}")


def _explain_lines(name: str, analysis: LoopAnalysis) -> list[str]:
    out = [f"Loop analysis for {name}"]
    root = analysis.closed.root if analysis.closed else ()
    inner = [t for t in analysis.triples if t.upper != root]
    shown = [t for t in analysis.triples if t.upper == root]
    out.append("  critical triples:")
    for t in shown:
        out.append(
            f"    {t.projection.clause}^{t.projection.index} between "
            f"{_pos(t.upper)} and {_pos(t.lower)}"
        )
    if inner:
        out.append(
            f"  note: {len(inner)} critical triple(s) whose upper is an inner "
            "node were ignored"
        )
    if analysis.closed is not None:
        cs = analysis.closed
        out.append(f"  closed subtree rooted at {_pos(cs.root)}:")
        _tree_lines(cs.tree, cs.positions, set(cs.critical_leaves), out, "    ")
    if analysis.abstract is not None:
        at = analysis.abstract
        out.append("  abstract tree:")
        _tree_lines(at, list(at.nodes), set(at.frontier), out, "    ")
    return out


def _report(session: Session) -> dict:
    """The record both printers format: the --json document without `steps`
    and `exit_code`, with each formula and proof rendered once.  Its
    definitions are the environment's clauses, which `Session.process`
    extends in declaration order."""
    defs = []
    for e in session.env.clauses():
        ev = e.evidence
        if isinstance(ev, EMu):  # the definition's own fixed point, named
            ev = subst_evidence(ev.body, ev.binder, EAxiom(e.name))
        shown = e.name if e.kind is EntryKind.AXIOM else render_evidence(ev)
        defs.append(
            {
                "name": e.name,
                "formula": render_horn(e.formula),
                "evidence": shown,
                "kind": e.kind.value,
            }
        )
    by_name = {d["name"]: d for d in defs}
    goals = []
    for g in session.goals:
        r = g.report
        d = by_name.get(g.name)  # a proven goal's own definition
        if d is None:
            formula, evidence = render_horn(g.decl.formula), None
        else:
            formula, evidence = d["formula"], d["evidence"]
            if isinstance(r.evidence, EMu):
                evidence = render_evidence(r.evidence)
        goals.append(
            {
                "name": g.name,
                "declared": g.decl.kind,
                "formula": formula,
                "outcome": r.outcome,
                "evidence": evidence,
                "lemmas": [lem.name for lem in r.lemmas],
                "candidate": r.candidate and render_horn(r.candidate.formula),
                "reason": r.reason or None,
            }
        )
    return {
        "module": session.module.name,
        "definitions": defs,
        "axioms": [d["name"] for d in reversed(defs) if d["kind"] == "axiom"],
        "lemmas": [d["name"] for d in reversed(defs) if d["kind"] == "lemma"],
        "goals": goals,
        "warnings": session.warnings,
    }


def _report_text(session: Session, cfg: RunConfig) -> str:
    record = _report(session)
    lines = ["Parsing success!", "Type Checking success!", "Program Definitions"]
    for d in record["definitions"]:
        lines.append(f"  {d['name']} :: {d['formula']}")
        lines.append(f"  = {d['evidence']}")
    formula = {d["name"]: d["formula"] for d in record["definitions"]}
    for section in ("Axioms", "Lemmas"):
        lines.append(section)
        lines.extend(f"  {n} :: {formula[n]}" for n in record[section.lower()])
    if cfg.explain:
        for g in session.goals:
            if g.report.analysis is not None:
                lines.extend(_explain_lines(g.name, g.report.analysis))
    if cfg.trace:
        for g in session.goals:
            states = g.replay(small_step_trace, cfg.fuel)
            if states is not None:
                lines.append(f"Trace for {g.name} {render_atom(g.decl.formula.head)}")
                lines.extend(f"  {render_evidence(state)}" for state in states)
    if cfg.obs_check is not None:
        ax_env = _axiom_env(session.module)
        for g in session.goals:
            f = g.decl.formula
            if not f.body and not free_vars(f):
                lines.extend(_obs_lines(ax_env, f.head, cfg.obs_check, cfg))
    for g in record["goals"]:
        if g["outcome"] not in (PROVEN, DIRECTLY_PROVEN):
            lines.append(f"Proof failed for {g['declared']} {g['formula']}")
            lines.append(f"  outcome: {g['outcome']}")
            if g["candidate"] is not None:
                lines.append(f"  candidate: {g['candidate']}")
            if g["reason"]:
                lines.append(f"  reason: {g['reason']}")
    return "\n".join(lines) + "\n"


def emit_json(session: Session, cfg: RunConfig, exit_code: int) -> str:
    """Machine-readable mirror of the text report."""
    doc = _report(session)
    for goal, g in zip(doc["goals"], session.goals):
        steps = g.report.steps
        goal["steps"] = steps if steps is not None else g.replay(count_steps, cfg.fuel)
    doc["exit_code"] = exit_code
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Observational equivalence report


def _obs_lines(env: AxiomEnv, goal: Atom, n: int, cfg: ProofConfig) -> list[str]:
    out = [f"Observational equivalence for {render_atom(goal)} (n={n})"]
    loop = detect_simple_loop(env, goal, cfg.fuel)
    if loop is None:
        out.append("  no simple loop detected")
        return out
    formula = HornFormula(loop.hypotheses, goal)
    out.append(f"  loop formula: {render_horn(formula)}")
    try:
        ev = prove_horn(env, formula, cfg)
    except (FuelExhausted, Stuck, GuardViolation) as ex:
        out.append(f"  loop formula not provable: {ex}")
        return out
    out.append(f"  evidence: {render_evidence(ev)}")
    try:
        obs = observational_points(loop, n, cfg.fuel)
        cor = corecursive_points(ev, loop.hypotheses, n, cfg.fuel)
    except FuelExhausted:
        out.append("  equivalent: no")
        out.append(f"  fuel ran out after {cfg.fuel} steps, before m={n}")
        return out
    for m in range(1, n + 1):
        out.append(f"  m={m}")
        o = render_evidence(obs[m - 1].context) if m <= len(obs) else "(none)"
        c = render_evidence(cor[m - 1].context) if m <= len(cor) else "(none)"
        out.append(f"    resolution : {o}")
        out.append(f"    evidence   : {c}")
    ok, why = compare_points(loop, obs, cor, n)
    out.append(f"  equivalent: {'yes' if ok else 'no'}")
    if why:
        out.append(f"  {why}")
    return out


# ---------------------------------------------------------------------------
# Entry points


class _LoadError(Exception):
    """An unreadable or malformed input; the message is the stderr text of
    the exit-2 failure."""


def _load_session(path: str, cfg: ProofConfig, goal_text: Optional[str] = None):
    """A session on the file's module that passed `load_checks`, the
    `--goal` atom if given, checked against the module's arities, and the
    stderr text of the load warnings.  Raises _LoadError with `check`'s
    exit-2 text."""
    try:
        # no newline translation: a lone CR is a blank, as `parse_module` reads it
        with open(path, encoding="utf-8", newline="") as f:
            text = f.read()
    except OSError as ex:
        raise _LoadError(f"error: {ex}\n") from None
    except UnicodeDecodeError as ex:
        raise _LoadError(f"error: {path}: {ex}\n") from None
    try:
        session = Session(parse_module(text), cfg)
        arity = session.load_checks()
    except (ParseError, ScopeError) as ex:
        raise _LoadError(f"{path}:{ex}\n") from None
    try:
        goal = None if goal_text is None else parse_atom(goal_text)
    except ParseError as ex:
        raise _LoadError(f"error: {ex}\n") from None
    if goal is not None and arity.get(goal.pred, len(goal.args)) != len(goal.args):
        raise _LoadError(
            f"error: predicate {goal.pred} used with arity {len(goal.args)} "
            f"and {arity[goal.pred]}\n"
        )
    return session, goal, "".join(f"warning: {w}\n" for w in session.warnings)


def _axiom_env(module: SourceModule) -> AxiomEnv:
    """The module's axioms alone, named as `Session` names them."""
    return AxiomEnv(
        axiom(f"Ax{i}", d.formula)
        for i, d in enumerate(module.decls)
        if d.kind == "axiom"
    )


def run(cfg: RunConfig) -> tuple[int, str, str]:
    """The `check` behavior: returns (exit code, stdout text, stderr text)."""
    try:
        session, _, err = _load_session(cfg.path, cfg)
    except _LoadError as ex:
        return 2, "", str(ex)
    session.process()
    code = 1 if session.failed else 0
    out = emit_json(session, cfg, code) if cfg.json else _report_text(session, cfg)
    return code, out, err


def run_trace(path: str, goal_text: str, steps: int, fuel: int = 10_000) -> tuple[int, str, str]:
    try:
        session, goal, err = _load_session(path, ProofConfig(fuel=fuel), goal_text)
    except _LoadError as ex:
        return 2, "", str(ex)
    session.process()
    if session.failed:
        err += "warning: some declarations failed; tracing under the partial environment\n"
    states = small_step_trace(session.env, goal, steps)
    out = "".join(render_evidence(s) + "\n" for s in states)
    return 0, out, err


def run_obs(path: str, goal_text: str, n: int, fuel: int = 10_000) -> tuple[int, str, str]:
    try:
        session, goal, err = _load_session(path, ProofConfig(fuel=fuel), goal_text)
    except _LoadError as ex:
        return 2, "", str(ex)
    lines = _obs_lines(_axiom_env(session.module), goal, n, session.cfg)
    code = 0 if any(l.strip() == "equivalent: yes" for l in lines) else 1
    return code, "".join(l + "\n" for l in lines), err


def _int_at_least(low: int):
    """An argparse type accepting integers >= low, so an out-of-range bound
    is a usage error (exit 2) instead of a traceback."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


@lru_cache(maxsize=1)
def _arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built by the first `main` call.  Parsing
    fills a new namespace each time and leaves the parser as it was, so
    every later call in the process reuses it."""
    p = argparse.ArgumentParser(prog="cohorn")
    sub = p.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="prove every lemma and auto goal in a file")
    check.add_argument("file")
    check.add_argument("--fuel", type=_positive_int, default=10_000)
    check.add_argument("--depth", type=_positive_int, default=50)
    check.add_argument("--rounds", type=_positive_int, default=3)
    check.add_argument("--trace", action="store_true")
    check.add_argument("--explain", action="store_true")
    check.add_argument("--obs-check", type=_positive_int, default=None, metavar="N")
    check.add_argument("--json", action="store_true")

    tr = sub.add_parser("trace", help="dump the small-step resolution trace of a goal")
    tr.add_argument("file")
    tr.add_argument("--goal", required=True)
    tr.add_argument("--steps", type=_int_at_least(0), default=100)
    tr.add_argument("--fuel", type=_positive_int, default=10_000)

    obs = sub.add_parser(
        "obs", help="compare resolution and evidence reduction on a simple loop"
    )
    obs.add_argument("file")
    obs.add_argument("--goal", required=True)
    obs.add_argument("-n", type=_positive_int, default=3)
    obs.add_argument("--fuel", type=_positive_int, default=10_000)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = _arg_parser().parse_args(argv)
    if args.command == "check":
        cfg = RunConfig(
            path=args.file,
            fuel=args.fuel,
            tree_depth=args.depth,
            max_lemma_rounds=args.rounds,
            trace=args.trace,
            explain=args.explain,
            obs_check=args.obs_check,
            json=args.json,
        )
        code, out, err = run(cfg)
    elif args.command == "trace":
        code, out, err = run_trace(args.file, args.goal, args.steps, args.fuel)
    else:
        code, out, err = run_obs(args.file, args.goal, args.n, args.fuel)
    sys.stdout.write(out)
    sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
