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
    StepMachine,
    iter_atoms,
    subst_leaf,
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
    an entry of the same name.  The checks wait on a work stack of (scope,
    evidence, goal), arguments pushed last first, so they run depth-first
    and left to right, as the rules nest, at any depth of evidence: the
    first failure met is the one logged.  A goal is a formula, generalized
    when it has hypotheses or variables, or a bare atom known to be ground:
    the generalized head, and the body of an `Entry.scoped` clause matched
    at a ground goal, which needs no `free_vars` scan."""

    def fail(msg: str) -> tuple[bool, list[str]]:
        return False, [f"FAIL: {msg}"]

    eigens = 0
    work: list[tuple[dict, Evidence, HornFormula | Atom]] = [({}, e, f)]
    while work:
        scope, e, f = work.pop()
        if isinstance(e, EMu):
            if not hnf(e.body):
                return fail(
                    f"mu rule needs a head-normal body, got {render_evidence(e.body)}"
                )
            bound = fact(f) if f.__class__ is Atom else f
            work.append(({**scope, e.binder: bound}, e.body, f))
            continue
        if f.__class__ is Atom:
            goal = f
        else:
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
                    eigens += 1
                    gamma[v] = Eigen(f"{v}#{eigens}")
                inner_scope = dict(scope)
                for b, atom in zip(binders, f.body):
                    inner_scope[b] = fact(apply(gamma, atom))
                work.append((inner_scope, inner, apply(gamma, f.head)))
                continue
            goal = f.head
        head, args = spine_evidence(e)
        if not isinstance(head, (EAxiom, EVar)):
            return fail(
                f"head of {render_evidence(e)} is not an assumption constant "
                f"or variable"
            )
        hf = scope.get(head.name)
        scoped = False
        if hf is None:
            entry = env.lookup(head.name)
            if entry is None:
                return fail(f"assumption {head.name} is not in scope")
            hf, scoped = entry.formula, entry.scoped
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
        for a, b in zip(reversed(args), reversed(hf.body)):
            b = apply(sigma, b)
            work.append((scope, a, b if scoped else fact(b)))
    return True, []


# ---------------------------------------------------------------------------
# Evidence reduction over mixed terms


class EvReducer:
    """Leftmost-outermost evidence reduction over a mixed term.  A redex is
    a mu binder or a beta application; the walk enters applications only,
    so it never descends under binders, and atoms are inert values.  The
    cursor is a zipper: the focus and the applications above it, each with
    the child taken (0 for `fun`, 1 for `arg`); `state()` zips it up in
    O(depth)."""

    def __init__(self, state: Mixed):
        self._focus = state
        self._above: list[tuple[EApp, int]] = []

    def redex(self) -> Optional[Mixed]:
        """Move the cursor to the next redex, the focus included, and
        return it, or None at a normal form, leaving the cursor at the
        root."""
        focus, above = self._focus, self._above
        while True:
            if isinstance(focus, EMu):
                break
            if isinstance(focus, EApp):
                if isinstance(focus.fun, ELam):
                    break
                above.append((focus, 0))
                focus = focus.fun
                continue
            # climb past `arg` edges, then enter the next `arg`
            while above and above[-1][1]:
                focus = EApp(above.pop()[0].fun, focus)
            if not above:
                self._focus = focus
                return None
            node = EApp(focus, above.pop()[0].arg)
            above.append((node, 1))
            focus = node.arg
        self._focus = focus
        return focus

    def position(self) -> Path:
        """The path from the root to the cursor."""
        return tuple(i for _, i in self._above)

    def state(self, focus: Optional[Mixed] = None) -> Mixed:
        """The current state, or `focus` plugged in at the cursor."""
        out = self._focus if focus is None else focus
        for node, i in reversed(self._above):
            out = EApp(out, node.arg) if i == 0 else EApp(node.fun, out)
        return out

    def contract(self):
        """Contract the redex at the cursor, then back up to the top of its
        spine: only the applications above it on the spine can have become
        redexes."""
        node = self._focus
        if isinstance(node, EMu):
            self._focus = subst_evidence(node.body, node.binder, node)
        else:
            self._focus = subst_evidence(node.fun.body, node.fun.binder, node.arg)
        self.spine_top()

    def spine_top(self) -> Mixed:
        """Move the cursor up past trailing `fun` edges and return the
        application there."""
        above = self._above
        while above and not above[-1][1]:
            self._focus = EApp(self._focus, above.pop()[0].arg)
        return self._focus


def whnf(e: Evidence, fuel: int = 10_000) -> Evidence:
    """Reduce mu-unfoldings and betas at the weak head position only, until
    the term is `kappa es`, `alpha es` or a lambda.  Terminates within fuel
    on every type-checked term; FuelExhausted signals ill-typed or
    unguarded input."""
    budget = Fuel(fuel)
    r = EvReducer(e)
    while r.redex() is not None and not any(r.position()):
        budget.spend()
        r.contract()
    return r.state()


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
    sigma: Subst
    hypotheses: tuple[Atom, ...]
    hypothesis_evidence_contexts: dict[Atom, Mixed]  # holes at the D spots


def _hyp_context(env: AxiomEnv, start: Atom, d: Atom, fuel: int) -> Optional[Mixed]:
    """The first state of `start`'s trace whose atoms are all exactly `d`,
    with them holed, or None.  `d` is a loop hypothesis, irreducible, so
    only a normal form reached within fuel can qualify."""
    m = StepMachine(env, MAtom(start))
    while m.steps < fuel - 1 and m.advance():
        pass
    if fuel < 1 or m.reducible or set(iter_atoms(m.state())) != {d}:
        return None
    return subst_leaf(m.state(), MAtom(d), Hole())


def iterate_context(ctx: Mixed, d: Atom, m: int) -> Mixed:
    """C^m[D]: the hypothesis context applied m times to its atom."""
    out: Mixed = MAtom(d)
    for _ in range(m):
        out = subst_leaf(ctx, Hole(), out)
    return out


def _instance_of(goal: Atom):
    """atom -> match(goal, atom).  A ground goal matches only itself, so an
    atom with another cached hash is rejected in O(1), not by walking both
    terms; a goal with variables always goes to `match`."""
    h = None if free_vars(goal) else hash(goal)
    return lambda atom: None if h is not None and hash(atom) != h else match(goal, atom)


def detect_simple_loop(
    env: AxiomEnv, goal: Atom, fuel: int = 10_000
) -> Optional[SimpleLoop]:
    """Search the resolution trace of `goal` for a verified simple loop.

    A state qualifies when some subterm is a match-instance of the goal,
    every other atom is irreducible, and each of those hypothesis atoms D
    satisfies sigma D ->* C_D[D] with no further atoms, all within fuel.
    The trace is stepped lazily and the search stops at the first verified
    loop.  Instances of the goal are reducible, so a qualifying state has
    one reducible atom, the next redex; other states cost O(1) to reject,
    and so does a redex other than a ground goal itself (`_instance_of`).
    """
    m = StepMachine(env, MAtom(goal))
    instance = _instance_of(goal)
    while m.steps < fuel and m.advance():
        if m.reducible != 1:
            continue
        atom = m.redex()
        sigma = instance(atom)
        if sigma is None:
            continue
        state = m.state()
        hyps = tuple(dict.fromkeys(a for a in iter_atoms(state) if a != atom))
        ctxs: dict[Atom, Mixed] = {}
        for d in hyps:
            c = _hyp_context(env, apply(sigma, d), d, fuel)
            if c is None:
                break
            ctxs[d] = c
        else:
            return SimpleLoop(env, goal, state, sigma, hyps, ctxs)
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
    m = StepMachine(loop.env, MAtom(loop.goal))
    instance = _instance_of(loop.goal)
    while m.steps < fuel and m.advance():
        # the hypotheses are irreducible and an instance of the goal is
        # reducible, so only a state with one reducible atom can qualify
        if m.reducible != 1:
            continue
        atom = m.redex()
        if instance(atom) is None:
            continue
        if {a for a in iter_atoms(m.state()) if a != atom} != hypset:
            continue
        records.append(
            ObservationRecord("observational", len(records) + 1, m.state(Hole()))
        )
        if len(records) == n:
            return records
    if m.steps < fuel:  # the trace reached a normal form
        return records
    raise FuelExhausted()


def corecursive_points(
    e: Evidence, hyps: tuple[Atom, ...], n: int, fuel: int = 10_000
) -> list[ObservationRecord]:
    """Reduce e applied to the hypothesis atoms (inert arguments) and
    record, for m = 1..n, each state after the first whose next contraction
    unfolds the fixed point; the hole covers the whole mu application."""
    records: list[ObservationRecord] = []
    if n <= 0:
        return records
    r = EvReducer(mk_eapp(e, *(MAtom(d) for d in hyps)))
    budget = Fuel(fuel)
    first = True
    while len(records) < n:
        node = r.redex()
        if node is None:
            return records
        if isinstance(node, EMu) and not first:
            _, args = spine_evidence(r.spine_top())
            records.append(
                ObservationRecord(
                    "corecursive", len(records) + 1, r.state(Hole()), tuple(args)
                )
            )
            r.redex()  # back down the spine to the mu
        first = False
        budget.spend()
        r.contract()
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
