"""Corecursive resolution for Horn-formula goals and the end-to-end auto
pipeline: detect divergence, extract a candidate lemma, prove it as a
fixed point, and retry the original goal with the lemma in scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from .evidence import hnf, type_check
from .loopdetect import (
    AbstractTree,
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
    CorecPolicy,
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


# the unfolding budget of the abstract representation
ABSTRACT_FUEL = 1_000


@dataclass(frozen=True)
class ProofConfig:
    fuel: int = 10_000
    max_lemma_rounds: int = 3
    tree_depth: int = 50
    tree_nodes: int = 10_000

    def __post_init__(self):
        for name in ("fuel", "max_lemma_rounds", "tree_depth", "tree_nodes"):
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
    hypotheses, and the head is resolved under the corecursive policy
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
        gamma[v] = Eigen(f"{v}#{i}", origin=f"{mu_name}:{render_horn(goal)}")
    binders = []
    hyps = []
    work = env.extended(co)
    for i, b in enumerate(goal.body):
        name = _fresh_binder(work, f"b{i}")
        binders.append(name)
        hyps.append(hypothesis(name, apply(gamma, b)))
        work = work.extended(hyps[-1])
    ev = resolve(work, apply(gamma, goal.head), Fuel(cfg.fuel), CorecPolicy())
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

    tree: ResolutionTree
    closed: Optional[ClosedSubtree]
    abstract: Optional[AbstractTree]

    @cached_property
    def triples(self) -> list[CriticalTriple]:
        """Every critical triple of the tree, computed on first use: only
        --explain reads them."""
        return find_critical_triples(self.tree)


@dataclass
class AutoReport:
    goal: HornFormula
    outcome: str
    evidence: Optional[Evidence] = None
    lemmas: tuple[Entry, ...] = ()
    candidate: Optional[CandidateLemma] = None
    reason: str = ""
    analysis: Optional[LoopAnalysis] = None


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
            return AutoReport(goal, DIRECTLY_PROVEN, evidence=ev)
        except (FuelExhausted, Stuck, GuardViolation) as ex:
            return AutoReport(goal, INCONCLUSIVE, reason=f"direct proof failed: {ex}")

    new_lemmas: list[Entry] = []
    analysis: Optional[LoopAnalysis] = None
    cur = env
    for round_no in range(cfg.max_lemma_rounds + 1):
        try:
            ev = resolve(cur, goal.head, Fuel(cfg.fuel))
            _check_proof(cur, ev, goal)
            outcome = PROVEN if new_lemmas else DIRECTLY_PROVEN
            return AutoReport(
                goal, outcome, evidence=ev, lemmas=tuple(new_lemmas), analysis=analysis
            )
        except Stuck as ex:
            return AutoReport(
                goal, INCONCLUSIVE, lemmas=tuple(new_lemmas), reason=str(ex)
            )
        except FuelExhausted:
            pass
        if round_no == cfg.max_lemma_rounds:
            return AutoReport(
                goal,
                INCONCLUSIVE,
                lemmas=tuple(new_lemmas),
                reason=f"no proof within {cfg.max_lemma_rounds} lemma rounds",
                analysis=analysis,
            )
        try:
            tree = build_tree(cur, goal.head, cfg.tree_depth, cfg.tree_nodes)
        except OverlapError as ex:
            return AutoReport(goal, INCONCLUSIVE, reason=str(ex))
        cs = closed_subtree(tree)
        if isinstance(cs, NoClosedSubtree):
            analysis = LoopAnalysis(tree, None, None)
            outcome = INCONCLUSIVE if cs.inconclusive else NO_LOOP_FOUND
            return AutoReport(goal, outcome, reason=cs.reason, analysis=analysis)
        try:
            at = abstract_representation(cs, cur, ABSTRACT_FUEL)
        except FuelExhausted:
            analysis = LoopAnalysis(tree, cs, None)
            return AutoReport(
                goal,
                INCONCLUSIVE,
                reason="abstract unfolding diverged",
                analysis=analysis,
            )
        except OverlapError as ex:
            return AutoReport(goal, INCONCLUSIVE, reason=str(ex))
        analysis = LoopAnalysis(tree, cs, at)
        cand, why = candidate_lemma(at, cur)
        if cand is None:
            return AutoReport(goal, NO_LOOP_FOUND, reason=why, analysis=analysis)
        try:
            lev = prove_horn(cur, cand.formula, cfg)
        except (FuelExhausted, Stuck, GuardViolation) as ex:
            return AutoReport(
                goal,
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
