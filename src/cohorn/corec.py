"""Corecursive resolution for Horn-formula goals and the end-to-end auto
pipeline: detect divergence, extract a candidate lemma, prove it as a
fixed point, and retry the original goal with the lemma in scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

from .evidence import hnf, type_check
from .loopdetect import (
    CandidateLemma,
    ClosedSubtree,
    CriticalTriple,
    NoClosedSubtree,
    abstract_representation,
    candidate_lemma,
    closed_subtree,
    find_critical_triples,
)
from .resolve import (
    AxiomEnv,
    Entry,
    Fuel,
    FuelExhausted,
    GuardViolation,
    OverlapError,
    ResolutionTree,
    Stuck,
    build_tree,
    cohypothesis,
    hypothesis,
    lemma,
    resolve,
)
from .syntax import (
    Atom,
    EApp,
    EAxiom,
    ELam,
    EMu,
    Eigen,
    Evidence,
    HornFormula,
    Subst,
    apply,
    free_evars,
    free_vars,
    render_horn,
)


# the resolution tree's node bound, the smaller bounds of the breadth-first
# prefixes tried first, and the abstract unfolding budget
TREE_NODES = 10_000
TREE_PREFIXES = (16, 64, 256)
ABSTRACT_FUEL = 1_000


@dataclass(frozen=True)
class ProofConfig:
    fuel: int = 10_000
    max_lemma_rounds: int = 3
    tree_depth: int = 50

    def __post_init__(self):
        for name in ("fuel", "max_lemma_rounds", "tree_depth"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def _fresh_binder(env: AxiomEnv, base: str) -> str:
    name = base
    k = 0
    while env.lookup(name) is not None:
        name = f"{base}_{k}"
        k += 1
    return name


def prove_horn(
    env: AxiomEnv, goal: HornFormula, cfg: ProofConfig = ProofConfig()
) -> Evidence:
    """Prove a Horn formula corecursively.

    The goal itself is assumed as coinductive hypothesis, its variables are
    instantiated with fresh proof-local constants, its body atoms become
    hypotheses, and the head is resolved with them in scope
    (hypotheses first, the coinductive hypothesis only at guarded
    positions, then axioms and lemmas newest-first).  The result is
    mu-wrapped exactly when the coinductive hypothesis was used, in which
    case the body is checked to be head-normal.

    The result is type-checked against `env` before it is returned.
    Raises GuardViolation, FuelExhausted or Stuck on failure.
    """
    mu_name = _fresh_binder(env, "r")
    co = cohypothesis(mu_name, goal)
    gamma: Subst = {}
    for i, v in enumerate(free_vars(goal), start=1):
        gamma[v] = Eigen(f"{v}#{i}")
    binders = []
    hyps = []
    work = env.extended(co)
    for i, b in enumerate(goal.body):
        name = _fresh_binder(work, f"b{i}")
        binders.append(name)
        hyps.append(hypothesis(name, apply(gamma, b)))
        work = work.extended(hyps[-1])
    ev = resolve(work, apply(gamma, goal.head), Fuel(cfg.fuel))
    body = ev
    for b in reversed(binders):
        body = ELam(b, body)
    if mu_name in free_evars(ev):
        if not hnf(body):
            raise GuardViolation(goal.head)
        result: Evidence = EMu(mu_name, body)
    else:
        result = body
    _check_proof(env, result, goal)
    return result


def _check_proof(env: AxiomEnv, ev: Evidence, goal: HornFormula):
    """The independent check every proof passes once, where it is made."""
    ok, log = type_check(env, ev, goal)
    if not ok:
        raise AssertionError(
            f"internal error: proof of {render_horn(goal)} does not "
            f"type-check: {log[-1] if log else ''}"
        )


# ---------------------------------------------------------------------------
# The auto pipeline


PROVEN = "Proven"
DIRECTLY_PROVEN = "DirectlyProven"
LEMMA_UNPROVABLE = "LemmaUnprovable"
NO_LOOP_FOUND = "NoLoopFound"
INCONCLUSIVE = "Inconclusive"


@dataclass
class LoopAnalysis:
    """What the divergence analysis of one round saw, kept for --explain."""

    env: AxiomEnv
    goal: Atom
    depth: int
    closed: Optional[ClosedSubtree]
    abstract: Optional[ResolutionTree]  # the abstract representation

    @cached_property
    def triples(self) -> list[CriticalTriple]:
        """Every critical triple of the full bounded tree, which is built
        again on first use: only --explain reads them, and the closed
        subtree may have been found on a prefix."""
        return find_critical_triples(
            build_tree(self.env, self.goal, self.depth, TREE_NODES)
        )


def _find_closed_subtree(
    env: AxiomEnv, goal: Atom, depth: int
) -> Union[ClosedSubtree, NoClosedSubtree]:
    """`closed_subtree` of the breadth-first tree bounded by TREE_NODES,
    read off the smallest of TREE_PREFIXES that settles it.

    A node expanded in a prefix was expanded before the first node the
    bound refused, so it, its clause and its children are those of the full
    tree.  A prefix therefore settles the answer when it is not truncated
    (it is the full tree), or when its least critical-triple upper is the
    root, the least possible one, and the depth-first walk from there met
    no unexpanded node.  The full tree raises OverlapError on any node
    two clause heads match, and a prefix could miss that node, so prefixes
    are tried only when `heads_overlap` rules that out.  Raises
    OverlapError."""
    prefixes = () if env.heads_overlap() else TREE_PREFIXES
    for n in (*(n for n in prefixes if n < TREE_NODES), TREE_NODES):
        tree = build_tree(env, goal, depth, n)
        cs = closed_subtree(tree)
        reached_frontier = isinstance(cs, NoClosedSubtree) and cs.inconclusive
        if not tree.truncated or (cs.root == () and not reached_frontier):
            break
    return cs


@dataclass
class AutoReport:
    outcome: str
    evidence: Optional[Evidence] = None
    lemmas: tuple[Entry, ...] = ()
    candidate: Optional[CandidateLemma] = None
    reason: str = ""
    analysis: Optional[LoopAnalysis] = None
    # the small-step trace length of a resolved ground goal, when the search
    # that proved it determines it (`_trace_length`)
    steps: Optional[int] = None


def _trace_length(ev: Evidence, spent: int) -> Optional[int]:
    """The length of the small-step trace of the goal `resolve` proved
    with `ev`, spending `spent` fuel, or None when the search does not
    determine it.

    The length is the application count of `ev`: its EAxiom nodes, counted
    as a tree and memoised by identity, because replayed subproofs are
    shared.  It is exact when `ev` holds no EMu or EVar and `spent` equals
    that count.  Each clause application spends one fuel unit, and a
    replayed subgoal is charged its recorded count, the size of its
    choice-free proof.  So the fuel spent is the proof's size plus the
    applications that backtracking abandoned, and each backtrack abandons
    at least one: the alternative already applied at that choice point.
    Spent equals size exactly when the search never backtracked.  Then
    every proof node took the first of its `candidates`; with no
    assumption in the proof, that is the newest matching clause, which is
    what `StepMachine` rewrites with.  The trace applies the same clauses,
    one step each, and ends at the same size."""
    size: dict[int, int] = {}
    stack: list[Evidence] = [ev]
    while stack:
        node = stack[-1]
        if id(node) in size:
            stack.pop()
        elif node.__class__ is EAxiom:
            size[id(node)] = 1
            stack.pop()
        elif node.__class__ is EApp:
            fun, arg = node.fun, node.arg
            if id(fun) in size and id(arg) in size:
                size[id(node)] = size[id(fun)] + size[id(arg)]
                stack.pop()
            else:
                stack += (fun, arg)
        else:  # an EMu or EVar: an assumption was used
            return None
    return size[id(ev)] if size[id(ev)] == spent else None


def auto(
    env: AxiomEnv,
    goal: HornFormula,
    cfg: ProofConfig = ProofConfig(),
    namer: Optional[Callable[[], str]] = None,
) -> AutoReport:
    """Prove a goal, generating candidate lemmas from loop analysis when
    plain resolution diverges.  Always returns a report within the
    configured bounds.

    Goals with a body or free variables go straight to the corecursive
    prover.  Bodiless ground goals are resolved directly; on fuel
    exhaustion the resolution tree is analyzed for a closed subtree, the
    candidate lemma is proven and added to the environment, and resolution
    is retried, up to max_lemma_rounds times.
    """
    if namer is None:
        counter = [0]

        def namer():
            counter[0] += 1
            return f"genLemm{counter[0]}"

    if goal.body or free_vars(goal):
        try:
            ev = prove_horn(env, goal, cfg)
            return AutoReport(DIRECTLY_PROVEN, evidence=ev)
        except (FuelExhausted, Stuck, GuardViolation) as ex:
            return AutoReport(INCONCLUSIVE, reason=f"direct proof failed: {ex}")

    new_lemmas: list[Entry] = []
    analysis: Optional[LoopAnalysis] = None
    cur = env
    for round_no in range(cfg.max_lemma_rounds + 1):
        try:
            fuel = Fuel(cfg.fuel)
            ev = resolve(cur, goal.head, fuel)
            _check_proof(cur, ev, goal)
            return AutoReport(
                PROVEN if new_lemmas else DIRECTLY_PROVEN,
                evidence=ev,
                lemmas=tuple(new_lemmas),
                analysis=analysis,
                steps=_trace_length(ev, cfg.fuel - fuel.remaining),
            )
        except (Stuck, GuardViolation) as ex:
            return AutoReport(INCONCLUSIVE, lemmas=tuple(new_lemmas), reason=str(ex))
        except FuelExhausted:
            pass
        if round_no == cfg.max_lemma_rounds:
            return AutoReport(
                INCONCLUSIVE,
                lemmas=tuple(new_lemmas),
                reason=f"no proof within {cfg.max_lemma_rounds} lemma rounds",
                analysis=analysis,
            )
        try:
            cs = _find_closed_subtree(cur, goal.head, cfg.tree_depth)
        except OverlapError as ex:
            return AutoReport(INCONCLUSIVE, reason=str(ex))
        if isinstance(cs, NoClosedSubtree):
            analysis = LoopAnalysis(cur, goal.head, cfg.tree_depth, None, None)
            outcome = INCONCLUSIVE if cs.inconclusive else NO_LOOP_FOUND
            return AutoReport(outcome, reason=cs.reason, analysis=analysis)
        try:
            at = abstract_representation(cs, cur, ABSTRACT_FUEL)
        except FuelExhausted:
            analysis = LoopAnalysis(cur, goal.head, cfg.tree_depth, cs, None)
            return AutoReport(
                INCONCLUSIVE,
                reason="abstract unfolding diverged",
                analysis=analysis,
            )
        except OverlapError as ex:
            return AutoReport(INCONCLUSIVE, reason=str(ex))
        analysis = LoopAnalysis(cur, goal.head, cfg.tree_depth, cs, at)
        cand, why = candidate_lemma(at, cur)
        if cand is None:
            return AutoReport(NO_LOOP_FOUND, reason=why, analysis=analysis)
        try:
            lev = prove_horn(cur, cand.formula, cfg)
        except (FuelExhausted, Stuck, GuardViolation) as ex:
            return AutoReport(
                LEMMA_UNPROVABLE,
                candidate=cand,
                reason=f"candidate lemma {render_horn(cand.formula)} failed: {ex}",
                analysis=analysis,
            )
        entry = lemma(namer(), cand.formula, lev)
        new_lemmas.append(entry)
        cur = cur.extended(entry)
    raise AssertionError("unreachable")


def wf_check(env: AxiomEnv) -> tuple[bool, list[str]]:
    """Well-formedness of an environment a library caller built: every
    proven-lemma entry's evidence must type-check at its formula against
    the entries before it; axioms and hypotheses pass trivially.  Proofs
    made by `prove_horn` and `auto` were already checked where they were
    made."""
    failures = []
    prefix = AxiomEnv()
    for entry in env:
        if entry.kind.name == "LEMMA":
            ok, log = type_check(prefix, entry.evidence, entry.formula)
            if not ok:
                failures.append(
                    f"{entry.name} : {render_horn(entry.formula)} -- "
                    f"{log[-1] if log else 'no trace'}"
                )
        prefix = prefix.extended(entry)
    return not failures, failures
