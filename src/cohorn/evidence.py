"""Evidence-level machinery: Howard-style type checking of proof terms,
weak-head reduction, small-step evidence reduction over mixed terms, and
the observational-equivalence harness for simple loops.

Type checking is algorithmic: applications are checked head-first, with
instantiation realized by matching the head formula against the goal atom,
and generalization by instantiating quantified variables with fresh
proof-local constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .resolve import (
    AxiomEnv,
    Fuel,
    FuelExhausted,
    Path,
    iter_atoms,
    replace_at,
    step,
    subterm_at,
)
from .syntax import (
    Atom,
    EAxiom,
    EApp,
    ELam,
    EMu,
    EVar,
    Eigen,
    Evidence,
    Hole,
    HornFormula,
    MAtom,
    Mixed,
    Subst,
    apply,
    fact,
    free_vars,
    match,
    mk_eapp,
    render_atom,
    render_evidence,
    render_horn,
    spine_evidence,
    subst_evidence,
)


def hnf(e: Mixed) -> bool:
    """True iff e is a head normal form: lambdas over an application spine
    headed by an axiom or proven-lemma constant."""
    while isinstance(e, ELam):
        e = e.body
    head, _ = spine_evidence(e)
    return isinstance(head, EAxiom)


# ---------------------------------------------------------------------------
# Typing


def type_check(
    env: AxiomEnv, e: Evidence, f: HornFormula
) -> tuple[bool, list[str]]:
    """Check e against the Horn formula f.  Returns (ok, log); the log is
    empty on success and on failure holds one line naming the rule that
    failed and where.

    Global names resolve in `env`; the `mu` and lambda binders the term
    opens live in a local scope that is searched first, so a binder shadows
    an entry of the same name."""
    log: list[str] = []
    counter = [0]

    def fail(msg: str) -> bool:
        log.append(f"FAIL: {msg}")
        return False

    def check(scope: dict, e: Evidence, f: HornFormula) -> bool:
        if isinstance(e, EMu):
            if not hnf(e.body):
                return fail(
                    f"mu rule needs a head-normal body, got {render_evidence(e.body)}"
                )
            return check({**scope, e.binder: f}, e.body, f)
        fvs = free_vars(f)
        if f.body or fvs:
            binders = []
            inner = e
            while isinstance(inner, ELam) and len(binders) < len(f.body):
                binders.append(inner.binder)
                inner = inner.body
            if len(binders) != len(f.body):
                return fail(
                    f"{render_evidence(e)} does not bind the {len(f.body)} "
                    f"hypotheses of {render_horn(f)}"
                )
            gamma: Subst = {}
            for v in fvs:
                counter[0] += 1
                gamma[v] = Eigen(f"{v}#{counter[0]}", origin=render_horn(f))
            inner_scope = dict(scope)
            for b, atom in zip(binders, f.body):
                inner_scope[b] = fact(apply(gamma, atom))
            return check(inner_scope, inner, fact(apply(gamma, f.head)))
        goal = f.head
        head, args = spine_evidence(e)
        if not isinstance(head, (EAxiom, EVar)):
            return fail(
                f"head of {render_evidence(e)} is not an assumption constant "
                f"or variable"
            )
        hf = scope.get(head.name)
        if hf is None:
            entry = env.lookup(head.name)
            if entry is None:
                return fail(f"assumption {head.name} is not in scope")
            hf = entry.formula
        sigma = match(hf.head, goal)
        if sigma is None:
            return fail(
                f"head of {head.name} : {render_horn(hf)} does not match "
                f"{render_atom(goal)}"
            )
        if len(args) != len(hf.body):
            return fail(
                f"{head.name} applied to {len(args)} arguments but has "
                f"{len(hf.body)} hypotheses"
            )
        return all(
            check(scope, a, fact(apply(sigma, b))) for a, b in zip(args, hf.body)
        )

    ok = check({}, e, f)
    # `check` refers to itself; unbinding it frees the closure, and the
    # environment it holds, without waiting for the cycle collector
    del check
    return ok, log


# ---------------------------------------------------------------------------
# Weak-head reduction


def whnf(e: Evidence, fuel: int = 10_000) -> Evidence:
    """Reduce mu-unfoldings and betas at the weak head position only, until
    the term is `kappa es`, `alpha es` or a lambda.  Terminates within fuel
    on every type-checked term; FuelExhausted signals ill-typed or
    unguarded input."""
    budget = Fuel(fuel)
    while True:
        head, args = spine_evidence(e)
        if isinstance(head, EMu):
            budget.spend()
            e = mk_eapp(subst_evidence(head.body, head.binder, head), *args)
        elif isinstance(head, ELam) and args:
            budget.spend()
            e = mk_eapp(subst_evidence(head.body, head.binder, args[0]), *args[1:])
        else:
            return e


# ---------------------------------------------------------------------------
# Small-step evidence reduction over mixed terms


def _find_redex(state: Mixed) -> Optional[tuple[Path, Mixed]]:
    """Leftmost outermost redex: a mu binder or a beta application not
    contained in another redex.  Reduction never descends under binders;
    atoms are inert values."""
    stack: list[tuple[Mixed, Path]] = [(state, ())]
    while stack:
        node, path = stack.pop()
        if isinstance(node, EMu):
            return path, node
        if isinstance(node, EApp):
            if isinstance(node.fun, ELam):
                return path, node
            stack.append((node.arg, path + (1,)))
            stack.append((node.fun, path + (0,)))
    return None


def _contract(node: Mixed) -> Mixed:
    if isinstance(node, EMu):
        return subst_evidence(node.body, node.binder, node)
    return subst_evidence(node.fun.body, node.fun.binder, node.arg)


def ev_step(state: Mixed) -> Optional[Mixed]:
    """Contract the leftmost outermost mu- or beta-redex, or None when the
    term has no redex."""
    found = _find_redex(state)
    if found is None:
        return None
    path, node = found
    return replace_at(state, path, _contract(node))


# ---------------------------------------------------------------------------
# Simple loops


@dataclass
class SimpleLoop:
    """A divergent resolution with a single iteration point: the trace
    reaches C[sigma goal] where every other atom of C is irreducible, and
    each such atom D recurs as sigma D ->* C_D[D] with no other atoms."""

    env: AxiomEnv
    goal: Atom
    loop_state: Mixed
    loop_position: Path
    sigma: Subst
    hypotheses: tuple[Atom, ...]
    hypothesis_evidence_contexts: dict[Atom, Mixed]  # holes at the D spots


def _reducible(env: AxiomEnv, atom: Atom) -> bool:
    return any(
        match(e.formula.head, atom) is not None for e in env.clauses_for(atom)
    )


def _hyp_context(env: AxiomEnv, start: Atom, d: Atom, fuel: int) -> Optional[Mixed]:
    """Trace `start` until a state whose atoms are all exactly `d`; return
    it with those occurrences holed, or None when no such state shows up."""
    state: Mixed = MAtom(start)
    for _ in range(fuel):
        occ = list(iter_atoms(state))
        if occ and all(a == d for _, a in occ):
            out = state
            for path, _ in occ:
                out = replace_at(out, path, Hole())
            return out
        nxt = step(env, state)
        if nxt is None:
            return None
        state = nxt
    return None


def _fill_holes(ctx: Mixed, inner: Mixed) -> Mixed:
    if isinstance(ctx, Hole):
        return inner
    if isinstance(ctx, EApp):
        return EApp(_fill_holes(ctx.fun, inner), _fill_holes(ctx.arg, inner))
    if isinstance(ctx, (ELam, EMu)):
        return type(ctx)(ctx.binder, _fill_holes(ctx.body, inner))
    return ctx


def iterate_context(ctx: Mixed, d: Atom, m: int) -> Mixed:
    """C^m[D]: the hypothesis context applied m times to its atom."""
    out: Mixed = MAtom(d)
    for _ in range(m):
        out = _fill_holes(ctx, out)
    return out


def detect_simple_loop(
    env: AxiomEnv, goal: Atom, fuel: int = 10_000
) -> Optional[SimpleLoop]:
    """Search the resolution trace of `goal` for a verified simple loop.

    A state qualifies when some subterm is a match-instance of the goal,
    every other atom is irreducible, and each of those hypothesis atoms D
    satisfies sigma D ->* C_D[D] with no further atoms, all within fuel.
    The trace is stepped lazily and the search stops at the first verified
    loop.
    """
    state: Mixed = MAtom(goal)
    for _ in range(fuel):
        nxt = step(env, state)
        if nxt is None:
            return None
        state = nxt
        occurrences = list(iter_atoms(state))
        candidates = [
            (path, match(goal, atom)) for path, atom in occurrences
        ]
        candidates = [(p, s) for p, s in candidates if s is not None]
        if not candidates:
            continue
        reducible_paths = {
            p for p, a in occurrences if _reducible(env, a)
        }
        for path, sigma in candidates:
            if reducible_paths - {path}:
                continue
            others = [a for p, a in occurrences if p != path]
            hyps = tuple(dict.fromkeys(others))
            ctxs: dict[Atom, Mixed] = {}
            for d in hyps:
                c = _hyp_context(env, apply(sigma, d), d, fuel)
                if c is None:
                    break
                ctxs[d] = c
            else:
                return SimpleLoop(env, goal, state, path, sigma, hyps, ctxs)
    return None


# ---------------------------------------------------------------------------
# Observational and corecursive points


@dataclass(frozen=True)
class ObservationRecord:
    kind: str  # "observational" | "corecursive"
    index: int  # m = 1, 2, ...
    context: Mixed  # exactly one focus, replaced by Hole
    redex_args: tuple[Mixed, ...] = ()  # corecursive points only


def observational_points(
    loop: SimpleLoop, n: int, fuel: int = 10_000
) -> list[ObservationRecord]:
    """The first n states of the resolution trace where an instance of the
    goal appears as the next loop iterate: some subterm matches the goal
    and the remaining atoms are exactly the loop hypotheses."""
    records: list[ObservationRecord] = []
    if n <= 0:
        return records
    hypset = set(loop.hypotheses)
    state: Mixed = MAtom(loop.goal)
    for _ in range(fuel):
        nxt = step(loop.env, state)
        if nxt is None:
            return records
        state = nxt
        occurrences = list(iter_atoms(state))
        for path, atom in occurrences:
            if match(loop.goal, atom) is None:
                continue
            if {a for p, a in occurrences if p != path} != hypset:
                continue
            records.append(
                ObservationRecord(
                    "observational", len(records) + 1, replace_at(state, path, Hole())
                )
            )
            break
        if len(records) == n:
            return records
    raise FuelExhausted()


def _mu_spine_top(state: Mixed, path: Path) -> Path:
    """Walk from a mu redex up through `fun` edges to the top of its
    application spine."""
    nodes = [state]
    for i in path:
        nodes.append(subterm_at(nodes[-1], (i,)))
    j = len(path)
    while j > 0 and path[j - 1] == 0 and isinstance(nodes[j - 1], EApp):
        j -= 1
    return path[:j]


def corecursive_points(
    e: Evidence, hyps: tuple[Atom, ...], n: int, fuel: int = 10_000
) -> list[ObservationRecord]:
    """Reduce e applied to the hypothesis atoms (inert arguments) and
    record, for m = 1..n, each state after the first whose next contraction
    unfolds the fixed point; the hole covers the whole mu application."""
    records: list[ObservationRecord] = []
    if n <= 0:
        return records
    state: Mixed = mk_eapp(e, *(MAtom(d) for d in hyps))
    budget = Fuel(fuel)
    first = True
    while len(records) < n:
        found = _find_redex(state)
        if found is None:
            return records
        path, node = found
        if isinstance(node, EMu) and not first:
            top = _mu_spine_top(state, path)
            _, args = spine_evidence(subterm_at(state, top))
            records.append(
                ObservationRecord(
                    "corecursive",
                    len(records) + 1,
                    replace_at(state, top, Hole()),
                    tuple(args),
                )
            )
        first = False
        budget.spend()
        state = replace_at(state, path, _contract(node))
    return records


def check_obs_equiv(
    env: AxiomEnv, loop: SimpleLoop, e: Evidence, n: int, fuel: int = 10_000
) -> tuple[bool, Optional[str]]:
    """Observational equivalence up to n iterations: the m-th observational
    and corecursive contexts must coincide syntactically, and the m-th mu
    application must carry C_i^m[D_i] for each hypothesis.  Raises
    ValueError when n < 1, which would compare nothing."""
    if n < 1:
        raise ValueError("observational equivalence needs n >= 1")
    obs = observational_points(loop, n, fuel)
    cor = corecursive_points(e, loop.hypotheses, n, fuel)
    return compare_points(loop, obs, cor, n)


def compare_points(
    loop: SimpleLoop,
    obs: list[ObservationRecord],
    cor: list[ObservationRecord],
    n: int,
) -> tuple[bool, Optional[str]]:
    """The comparison behind `check_obs_equiv`, on point lists already
    computed."""
    for m in range(1, n + 1):
        if m > len(obs) or m > len(cor):
            return False, f"diverges at m={m}: trace ended early"
        o, c = obs[m - 1], cor[m - 1]
        if o.context != c.context:
            return False, (
                f"diverges at m={m}: resolution context "
                f"{render_evidence(o.context)} != evidence context "
                f"{render_evidence(c.context)}"
            )
        expected = tuple(
            iterate_context(loop.hypothesis_evidence_contexts[d], d, m)
            for d in loop.hypotheses
        )
        if c.redex_args != expected:
            return False, (
                f"diverges at m={m}: fixed point applied to "
                f"{[render_evidence(a) for a in c.redex_args]}, expected "
                f"{[render_evidence(a) for a in expected]}"
            )
    return True, None
