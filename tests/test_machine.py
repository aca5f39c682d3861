"""The incremental small-step machine and the evidence reducer against the
whole-state rescans they replaced, kept here as reference versions, plus
their cost bounds."""

import contextlib
import io
import json
import pathlib
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import fields, is_dataclass
from itertools import islice

import pytest

from conftest import (
    CORPUS,
    best_time,
    ev_step,
    first_step,
    random_loop_goal,
    random_looping_env,
    random_sharing_env,
    random_sharing_term,
    random_terminating_case,
    run_at_the_default_limit,
)
from cohorn import cli, evidence
from cohorn.corec import ProofConfig, prove_horn
from cohorn.evidence import (
    ObservationRecord,
    SimpleLoop,
    _hyp_context,
    corecursive_points,
    detect_simple_loop,
    observational_points,
    whnf,
)
from cohorn.parser import parse_atom, parse_module
from cohorn.resolve import (
    AxiomEnv,
    Entry,
    Fuel,
    FuelExhausted,
    GuardViolation,
    StepMachine,
    Stuck,
    axiom,
    count_steps,
    small_steps,
    trace,
)
from cohorn.syntax import (
    App,
    Atom,
    Const,
    EApp,
    EAxiom,
    ELam,
    EMu,
    EVar,
    Hole,
    HornFormula,
    MAtom,
    Var,
    apply,
    fact,
    match,
    mk_app,
    mk_eapp,
    pair,
    spine_evidence,
    subst_evidence,
)

from test_contract import GROUND_GOALS

# ---------------------------------------------------------------------------
# Reference versions: each step and each loop check rescans the whole state


def ref_atoms(state):
    """(path, atom) for every atom leaf, leftmost-outermost first."""
    stack = [(state, ())]
    while stack:
        node, path = stack.pop()
        if isinstance(node, MAtom):
            yield path, node.atom
        elif isinstance(node, EApp):
            stack.append((node.arg, path + (1,)))
            stack.append((node.fun, path + (0,)))
        elif isinstance(node, (ELam, EMu)):
            stack.append((node.body, path + (0,)))


def ref_newest_first(env, atom):
    """Every (entry, sigma) whose head matches `atom`, newest first, by a
    scan of all clauses."""
    out = []
    for e in reversed(env.clauses()):
        s = match(e.formula.head, atom)
        if s is not None:
            out.append((e, s))
    return out


def ref_step(env, state):
    for path, atom in ref_atoms(state):
        cands = ref_newest_first(env, atom)
        if not cands:
            continue
        entry, sigma = cands[0]
        new = mk_eapp(
            entry.ref(), *(MAtom(apply(sigma, b)) for b in entry.formula.body)
        )
        return replace_at(state, path, new)
    return None


def ref_steps(env, state):
    while state is not None:
        yield state
        state = ref_step(env, state)


def ref_reducible(env, atom):
    return bool(ref_newest_first(env, atom))


def ref_hyp_context(env, start, d, fuel):
    for state in islice(ref_steps(env, MAtom(start)), fuel):
        occ = list(ref_atoms(state))
        if occ and all(a == d for _, a in occ):
            out = state
            for path, _ in occ:
                out = replace_at(out, path, Hole())
            return out
    return None


def ref_detect_simple_loop(env, goal, fuel):
    for state in islice(ref_steps(env, MAtom(goal)), 1, fuel + 1):
        occurrences = list(ref_atoms(state))
        candidates = [(p, match(goal, a)) for p, a in occurrences]
        candidates = [(p, s) for p, s in candidates if s is not None]
        if not candidates:
            continue
        reducible_paths = {p for p, a in occurrences if ref_reducible(env, a)}
        for path, sigma in candidates:
            if reducible_paths - {path}:
                continue
            hyps = tuple(dict.fromkeys(a for p, a in occurrences if p != path))
            ctxs = {}
            for d in hyps:
                c = ref_hyp_context(env, apply(sigma, d), d, fuel)
                if c is None:
                    break
                ctxs[d] = c
            else:
                return SimpleLoop(env, goal, state, sigma, hyps, ctxs)
    return None


def ref_observational_points(loop, n, fuel):
    records = []
    if n <= 0:
        return records
    hypset = set(loop.hypotheses)
    stepped = 0
    for state in islice(ref_steps(loop.env, MAtom(loop.goal)), 1, fuel + 1):
        stepped += 1
        occurrences = list(ref_atoms(state))
        for path, atom in occurrences:
            if match(loop.goal, atom) is None:
                continue
            if {a for p, a in occurrences if p != path} != hypset:
                continue
            ctx = replace_at(state, path, Hole())
            records.append(ObservationRecord("observational", len(records) + 1, ctx))
            break
        if len(records) == n:
            return records
    if stepped < fuel:
        return records
    raise FuelExhausted()


# Evidence reduction as it was before it drove the shared cursor: each step
# finds the redex by a path-building walk and rebuilds the state along the
# path.  Kept verbatim, with the public functions renamed `ref_*`.

Path = tuple[int, ...]


def _child(node, i: int):
    if isinstance(node, EApp):
        return node.fun if i == 0 else node.arg
    return node.body  # ELam / EMu


def _rebuild(node, i: int, child):
    if isinstance(node, EApp):
        return EApp(child, node.arg) if i == 0 else EApp(node.fun, child)
    if isinstance(node, ELam):
        return ELam(node.binder, child)
    return EMu(node.binder, child)


def subterm_at(state, path: Path):
    for i in path:
        state = _child(state, i)
    return state


def replace_at(state, path: Path, new):
    nodes = [state]
    for i in path:
        nodes.append(_child(nodes[-1], i))
    out = new
    for node, i in zip(reversed(nodes[:-1]), reversed(path)):
        out = _rebuild(node, i, out)
    return out


def ref_whnf(e, fuel: int = 10_000):
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


def _find_redex(state):
    """Leftmost outermost redex: a mu binder or a beta application not
    contained in another redex.  Reduction never descends under binders;
    atoms are inert values."""
    stack = [(state, ())]
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


def _contract(node):
    if isinstance(node, EMu):
        return subst_evidence(node.body, node.binder, node)
    return subst_evidence(node.fun.body, node.fun.binder, node.arg)


def ref_ev_step(state):
    """Contract the leftmost outermost mu- or beta-redex, or None when the
    term has no redex."""
    found = _find_redex(state)
    if found is None:
        return None
    path, node = found
    return replace_at(state, path, _contract(node))


def ref_corecursive_points(e, hyps, n: int, fuel: int = 10_000):
    """Reduce e applied to the hypothesis atoms (inert arguments) and
    record, for m = 1..n, each state after the first whose next contraction
    unfolds the fixed point; the hole covers the whole mu application."""
    records = []
    if n <= 0:
        return records
    state = mk_eapp(e, *(MAtom(d) for d in hyps))
    budget = Fuel(fuel)
    first = True
    while len(records) < n:
        found = _find_redex(state)
        if found is None:
            return records
        path, node = found
        if isinstance(node, EMu) and not first:
            # _find_redex only passes through applications, so the top of
            # the mu's spine is the path without its trailing `fun` edges
            top = path
            while top and top[-1] == 0:
                top = top[:-1]
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


# ---------------------------------------------------------------------------
# Program shapes


S, Z, Nil, Int = Const("S"), Const("Z"), Const("Nil"), Const("Int")
x, xs = Var("x"), Var("xs")


def eq(t):
    return Atom("Eq", (t,))


def nat(n):
    t = Z
    for _ in range(n):
        t = App(S, t)
    return t


CHAIN = AxiomEnv(
    [axiom("KZ", fact(eq(Z))), axiom("KS", HornFormula((eq(x),), eq(App(S, x))))]
)
LIST = AxiomEnv(
    [
        axiom("KInt", fact(eq(Int))),
        axiom("KNil", fact(eq(Nil))),
        axiom("KCons", HornFormula((eq(x), eq(xs)), eq(mk_app(Const("Cons"), x, xs)))),
    ]
)
PAIR = AxiomEnv(
    [
        axiom("KInt", fact(eq(Int))),
        axiom("KPair", HornFormula((eq(x), eq(Var("y"))), eq(pair(x, Var("y"))))),
    ]
)


def random_list(rng, n):
    t = Nil
    for _ in range(n):
        t = mk_app(Const("Cons"), rng.choice([Int, Const("Unit")]), t)
    return t


def random_pair(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([Int, Int, Const("Unit")])
    return pair(random_pair(rng, depth - 1), random_pair(rng, depth - 1))


def cases(seed, count):
    """(env, goal) pairs of every generated shape: overlapping and
    non-overlapping looping programs, terminating programs, and chain, list
    and pair goals (some with an irreducible atom inside)."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        shape = k % 6
        if shape < 2:
            env = random_looping_env(rng, overlapping=shape == 0)
            out.append((env, random_loop_goal(rng, env)))
        elif shape == 2:
            out.append(random_terminating_case(rng))
        elif shape == 3:
            out.append((CHAIN, eq(nat(rng.randint(0, 60)))))
        elif shape == 4:
            out.append((LIST, eq(random_list(rng, rng.randint(0, 30)))))
        else:
            out.append((PAIR, eq(random_pair(rng, rng.randint(0, 5)))))
    return out


def random_state(rng, depth):
    """A mixed term with atoms under applications, lambdas and fixed
    points, beside axioms, variables and holes."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(
            [
                MAtom(eq(random_pair(rng, 2))),
                MAtom(eq(Const("Unit"))),
                MAtom(eq(random_list(rng, 2))),
                EAxiom("K"),
                EVar("v"),
                Hole(),
            ]
        )
    if roll < 0.75:
        return EApp(random_state(rng, depth - 1), random_state(rng, depth - 1))
    return rng.choice([ELam, EMu])("b", random_state(rng, depth - 1))


# ---------------------------------------------------------------------------
# The machine against the reference `step`


def test_small_steps_yield_exactly_the_reference_states():
    ended = cut = 0
    for env, goal in cases(11, 180):
        expected = list(islice(ref_steps(env, MAtom(goal)), 121))
        got = list(islice(small_steps(env, MAtom(goal)), 121))
        assert got == expected
        if len(expected) <= 120:
            ended += 1
        else:
            cut += 1
    assert ended > 40 and cut > 10  # both normal forms and budget cuts


def test_step_on_mixed_states_matches_the_reference():
    rng = random.Random(3)
    env = LIST.extended(*PAIR.clauses()[1:])
    for _ in range(300):
        state = random_state(rng, 5)
        assert first_step(env, state) == ref_step(env, state)
        got = list(islice(small_steps(env, state), 60))
        assert got == list(islice(ref_steps(env, state), 60))


def test_step_count_is_the_trace_length():
    for env, goal in cases(12, 60):
        total = sum(1 for _ in islice(ref_steps(env, MAtom(goal)), 401)) - 1
        for k in (0, 1, 40, 400):
            assert count_steps(env, goal, k) == len(trace(env, goal, k)) - 1
            assert count_steps(env, goal, k) == min(k, total)
            assert StepMachine(env, MAtom(goal)).run(k) == min(k, total)
        # a run resumed at a larger limit ends where one run to it does
        for k1, k2 in ((0, 40), (1, 40), (40, 400), (40, 40)):
            m, fresh = StepMachine(env, MAtom(goal)), StepMachine(env, MAtom(goal))
            m.run(k1)
            assert m.run(k2) == fresh.run(k2) == min(k2, total)
            assert m.state() == fresh.state()


class CountedMachine(StepMachine):
    """A `StepMachine` that counts its moves, the `advance` calls that
    changed its state, and lists itself in `made`."""

    made: list = []

    def __init__(self, env, state):
        super().__init__(env, state)
        self.moves = 0
        self.made.append(self)

    def advance(self, *limit):
        moved = super().advance(*limit)
        self.moves += moved
        return moved


def test_a_run_that_replays_finished_atoms_ends_where_single_steps_do(monkeypatch):
    # `run` may put a finished atom's normal form in its place in one move;
    # it must stop at the state, count of reducible atoms and step count
    # that as many single `advance` calls reach
    monkeypatch.setattr(CountedMachine, "made", [])
    rng = random.Random(16)
    starts = [(env, MAtom(goal)) for env, goal in cases(16, 120)]
    mixed = LIST.extended(*PAIR.clauses()[1:])
    starts += [(mixed, random_state(rng, 5)) for _ in range(60)]
    for _ in range(60):  # goals with repeated components
        term = random_sharing_term(rng, rng.randint(1, 8))
        starts.append((random_sharing_env(rng), MAtom(eq(term))))
    folded = 0
    for env, start in starts:
        for k in (0, 1, 5, 40, 150):
            m, single = CountedMachine(env, start), StepMachine(env, start)
            m.run(k)
            while single.steps < k and single.advance():
                pass
            assert (m.steps, m.reducible) == (single.steps, single.reducible)
            assert m.state() == single.state()
            folded += m.moves < m.steps
    assert folded > 50


def test_machine_keeps_the_count_of_reducible_atoms():
    for env, goal in cases(13, 60):
        m = StepMachine(env, MAtom(goal))
        for state in islice(ref_steps(env, MAtom(goal)), 80):
            assert m.state() == state
            assert m.reducible == sum(ref_reducible(env, a) for _, a in ref_atoms(state))
            if m.reducible:
                atom = next(a for _, a in ref_atoms(state) if ref_reducible(env, a))
                assert m.redex() == atom
            m.advance()


def test_machine_plugs_a_focus_in_at_the_cursor_of_mixed_states():
    # the stack folds back into the state around applications, lambdas
    # and fixed points of the first state, with a hole at the cursor
    rng = random.Random(5)
    env = LIST.extended(*PAIR.clauses()[1:])
    for _ in range(300):
        m = StepMachine(env, random_state(rng, 5))
        for state in islice(ref_steps(env, m.state()), 12):
            assert m.state() == state
            found = [(p, a) for p, a in ref_atoms(state) if ref_reducible(env, a)]
            if not found:
                assert (m.redex(), m.state(Hole())) == (None, Hole())
                break
            path, atom = found[0]
            assert m.redex() == atom
            assert m.state(Hole()) == replace_at(state, path, Hole())
            m.advance()


def test_machine_instantiates_a_body_only_when_it_rewrites_its_atom(monkeypatch):
    # counts of work, not times: each step instantiates one clause body, and
    # each atom the machine makes, the goal and every body atom, is matched
    # once, whether or not it is ever rewritten, and folding states adds none
    calls = Counter()
    instantiate, matching = Entry.instantiate, AxiomEnv.matching

    def counted_instantiate(entry, sigma):
        ref, body = instantiate(entry, sigma)
        calls["instantiate"] += 1
        calls["atoms made"] += len(body)
        return ref, body

    def counted_matching(env, atom):
        calls["matching"] += 1
        return matching(env, atom)

    monkeypatch.setattr(Entry, "instantiate", counted_instantiate)
    monkeypatch.setattr(AxiomEnv, "matching", counted_matching)
    cut = 0
    for k, (env, goal) in enumerate(cases(14, 120)):
        calls.clear()
        m = StepMachine(env, MAtom(goal))
        while m.steps < 30 and m.advance():
            if k % 2:
                m.state(), m.state(Hole())
        assert calls["instantiate"] == m.steps
        assert calls["matching"] == 1 + calls["atoms made"]
        cut += m.reducible > 0
    assert cut > 10  # runs that left atoms matched and counted, never instantiated


def test_deep_contexts_and_states_need_no_recursion_limit():
    # a 10,000-deep hypothesis context, read off a trace's normal form and
    # iterated, and states and a focus folded off the stack
    # 5,000 steps into a 10,000-step trace
    out = run_at_the_default_limit(
        """
from cohorn.evidence import _hyp_context, iterate_context
from cohorn.resolve import AxiomEnv, StepMachine, axiom
from cohorn.syntax import App, Atom, Const, Hole, HornFormula, MAtom, Var
S, Z, x = Const("S"), Const("Z"), Var("x")
P = lambda t: Atom("P", (t,))
env = AxiomEnv([axiom("K", HornFormula((P(x),), P(App(S, x))))])
t = Z
for _ in range(10_000):
    t = App(S, t)

def spine(state):
    n = 0
    while hasattr(state, "arg"):
        state, n = state.arg, n + 1
    return n, type(state).__name__

ctx = _hyp_context(env, P(t), P(Z), 20_000)
m = StepMachine(env, MAtom(P(t)))
while m.steps < 5_000 and m.advance():
    pass
print(*spine(ctx), *spine(iterate_context(ctx, P(Z), 2)))
print(*spine(m.state()), *spine(m.state(Hole())))
"""
    )
    assert out.split() == ["10000", "Hole", "20000", "MAtom", "5000", "MAtom", "5000", "Hole"]


# ---------------------------------------------------------------------------
# Loop detection against the reference versions


def corpus_goals():
    out = []
    for name, goal in GROUND_GOALS:
        env = cli._axiom_env(parse_module((CORPUS / name).read_text()))
        out.append((env, parse_atom(goal)))
    return out


def loop_cases(ground=60, open_=40):
    """The corpus goals, then generated ground goals and open clause-head
    goals (which often have simple loops) of looping programs."""
    out = corpus_goals()
    rng = random.Random(21)
    for k in range(ground):
        env = random_looping_env(rng, overlapping=k % 2 == 0)
        out.append((env, random_loop_goal(rng, env)))
    rng = random.Random(22)
    for k in range(open_):
        env = random_looping_env(rng, overlapping=k % 2 == 0)
        head = rng.choice([e.formula.head for e in env])
        out.append((env, head))
    return out


def raised(fn, *args):
    try:
        return fn(*args)
    except FuelExhausted:
        return "FuelExhausted"


def tagged(x):
    """`x` as JSON data that keeps each node's class: a dataclass becomes
    [class name, *fields], so a `Var` and a `Const` of one name, an `EAxiom`
    and an `EVar`, or an `MAtom` and an application that prints like it stay
    apart.  A dict becomes its sorted [key, value] pairs.  A simple loop's
    environment is left out: its case rebuilds it from the same seed."""
    if is_dataclass(x):
        return [type(x).__name__] + [
            tagged(getattr(x, f.name)) for f in fields(x) if f.name != "env"
        ]
    if isinstance(x, (tuple, list)):
        return [tagged(y) for y in x]
    if isinstance(x, dict):
        return sorted(([tagged(k), tagged(v)] for k, v in x.items()), key=json.dumps)
    return x


def loop_answers(cases, detect, points, fuel):
    """For each (env, goal) case: its goal, the simple loop `detect` finds
    within fuel, and `points` of that loop at n = 1 and n = 3."""
    out = []
    for env, goal in cases:
        loop = detect(env, goal, fuel)
        out.append((goal, loop, loop and [raised(points, loop, n, fuel) for n in (1, 3)]))
    return out


# The reference's answers at fuel 400 on 8 + 8 generated cases, which take it
# about 5 s: `tagged(loop_answers(loop_cases(8, 8), ref_detect_simple_loop,
# ref_observational_points, 400))`, recorded when the reference's answers
# equalled the live machine's on the same cases, as objects.
LOOP_RECORD = pathlib.Path(__file__).parent / "snapshot_loops.json"


@pytest.mark.parametrize("fuel,generated", [(40, 50), (150, 50), (400, 8)])
def test_loop_detection_and_points_match_the_reference(fuel, generated):
    cases = loop_cases(generated, generated)
    got = loop_answers(cases, detect_simple_loop, observational_points, fuel)
    if (fuel, generated) == (400, 8):
        got = tagged(got)
        expected = json.loads(LOOP_RECORD.read_text(encoding="utf-8"))
    else:
        expected = loop_answers(cases, ref_detect_simple_loop, ref_observational_points, fuel)
    assert len(got) == len(expected)
    for answer, reference in zip(got, expected):
        assert answer == reference, answer[0]
    assert sum(loop is not None for _, loop, _ in got) >= 3


def test_hypothesis_contexts_match_the_reference():
    # the contexts are asked of irreducible atoms, the loop hypotheses
    found = 0
    for env, goal in loop_cases()[10:]:
        seen = {a for s in islice(ref_steps(env, MAtom(goal)), 12) for _, a in ref_atoms(s)}
        starts = sorted((a for a in seen if ref_reducible(env, a)), key=repr)[:3]
        hyps = sorted((a for a in seen if not ref_reducible(env, a)), key=repr)[:3]
        for start in starts:
            for d in hyps:
                for fuel in (0, 1, 3, 40):
                    got = _hyp_context(env, start, d, fuel)
                    assert got == ref_hyp_context(env, start, d, fuel)
                    found += got is not None
    assert found > 20


def test_evidence_reduction_matches_the_reference():
    # the proof of each detected simple loop's formula, applied to the loop
    # hypotheses, reduced by the shared cursor and by the reference; the
    # generated programs alternate between the two overlap settings
    proved = overlapping = recorded = exhausted = 0
    for env, goal in loop_cases(200, 200)[len(GROUND_GOALS) :]:
        loop = detect_simple_loop(env, goal, 150)
        if loop is None:
            continue
        formula = HornFormula(loop.hypotheses, goal)
        try:
            ev = prove_horn(env, formula, ProofConfig(fuel=1000))
        except (FuelExhausted, GuardViolation, Stuck):
            continue
        proved += 1
        overlapping += env.heads_overlap()
        hyps = loop.hypotheses
        for n in (1, 2, 3):
            for fuel in (1, 2, 5, 10_000):
                got = raised(corecursive_points, ev, hyps, n, fuel)
                assert got == raised(ref_corecursive_points, ev, hyps, n, fuel)
                exhausted += got == "FuelExhausted"
                recorded += got != "FuelExhausted" and len(got) == n
        state = mk_eapp(ev, *(MAtom(d) for d in hyps))
        assert raised(whnf, state, 200) == raised(ref_whnf, state, 200)
        new = ref = state
        for _ in range(50):
            new, ref = ev_step(new), ref_ev_step(ref)
            assert new == ref
            if new is None:
                break
    assert proved >= 50 and overlapping >= 10, (proved, overlapping)
    assert recorded >= 200 and exhausted >= 200, (recorded, exhausted)


# ---------------------------------------------------------------------------
# Bounded cost


@pytest.mark.parametrize(
    "name,goal,most",
    [
        ("bush.asl", "Eq (Mu HBush Unit)", 10),
        ("lam_auto.asl", "Eq (Mu HLam Unit)", 10),
        ("mutual_auto.asl", "Eq (Mu H1 H2 Unit)", 10),
        ("hptree.asl", "Eq (Mu HPTree Int)", 200),
    ],
)
def test_simple_loop_search_stops_where_the_goal_recurs(monkeypatch, name, goal, most):
    # counts of work, not times, at fuel 10,000: bush, lam and mutual come
    # back to the goal within 5 steps, where the search ends; hptree never
    # does, and its trace of 10,000 steps is walked mostly by replaying
    # finished atoms
    monkeypatch.setattr(CountedMachine, "made", [])
    monkeypatch.setattr(evidence, "StepMachine", CountedMachine)
    env = cli._axiom_env(parse_module((CORPUS / name).read_text()))
    assert detect_simple_loop(env, parse_atom(goal), 10_000) is None
    walk = CountedMachine.made[0]
    assert walk.steps == (10_000 if name == "hptree.asl" else walk.moves)
    assert sum(m.moves for m in CountedMachine.made) <= most


def test_detect_simple_loop_on_bush_at_the_default_fuel():
    env = cli._axiom_env(parse_module((CORPUS / "bush.asl").read_text()))
    start = time.perf_counter()
    assert detect_simple_loop(env, parse_atom("Eq (Mu HBush Unit)"), 10_000) is None
    assert time.perf_counter() - start < 10  # well under 1 s on a quiet host


@pytest.mark.parametrize("name,goal", GROUND_GOALS)
def test_obs_ends_at_the_default_fuel(name, goal):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["obs", str(CORPUS / name), "--goal", goal, "-n", "3"])
    verdict = out.getvalue().splitlines()[-1].strip()
    if name == "evenodd.asl":
        assert (code, verdict) == (0, "equivalent: yes")
    else:
        assert (code, verdict) == (1, "no simple loop detected")


def test_obs_check_ends_at_the_default_fuel():
    for name, goal in GROUND_GOALS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["check", str(CORPUS / name), "--obs-check", "3"])
        lines = out.getvalue().splitlines()
        at = lines.index(f"Observational equivalence for {goal} (n=3)")
        expected = "equivalent: yes" if name == "evenodd.asl" else "no simple loop detected"
        assert expected in [line.strip() for line in lines[at:]]


def test_step_count_scales_linearly_in_depth():
    small, large = eq(nat(500)), eq(nat(4000))
    assert count_steps(CHAIN, large) == 4001
    t_small = best_time(lambda: count_steps(CHAIN, small))
    t_large = best_time(lambda: count_steps(CHAIN, large))
    assert t_large < 20 * t_small  # linear is about 8x


def test_machine_needs_no_recursion_limit_on_deep_chains():
    # in a child, because `cli.main` raises this interpreter's limit
    code = """
import sys
from cohorn.resolve import AxiomEnv, StepMachine, axiom
from cohorn.syntax import App, Atom, Const, HornFormula, MAtom, Var, fact
assert sys.getrecursionlimit() <= 1000
S, Z, x = Const("S"), Const("Z"), Var("x")
env = AxiomEnv([axiom("KZ", fact(Atom("Eq", (Z,)))),
                axiom("KS", HornFormula((Atom("Eq", (x,)),), Atom("Eq", (App(S, x),))))])
t = Z
for _ in range(10_000):
    t = App(S, t)
m = StepMachine(env, MAtom(Atom("Eq", (t,))))
while m.advance():
    pass
state, depth = m.state(), 0
while hasattr(state, "arg"):
    state, depth = state.arg, depth + 1
print(m.steps, depth)
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(CORPUS.parent.parent / "src")},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["10001", "10000"]


def test_json_steps_builds_no_state(monkeypatch):
    def no_trace(*args):
        raise AssertionError("the JSON step count replayed the trace")

    monkeypatch.setattr(cli, "small_step_trace", no_trace)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["check", str(CORPUS / "pair.asl"), "--json"]) == 0
    assert '"steps": 3' in out.getvalue()


def test_simple_loop_search_needs_no_recursion_limit_on_deep_chains():
    # matching the goal against each redex walks the chain's argument spine
    # in a loop; in a child, because `cli.main` raises this interpreter's limit
    code = """
import sys
from cohorn.evidence import detect_simple_loop
from cohorn.resolve import AxiomEnv, axiom
from cohorn.syntax import App, Atom, Const, HornFormula, Var, fact
assert sys.getrecursionlimit() <= 1000
S, Z, x = Const("S"), Const("Z"), Var("x")
env = AxiomEnv([axiom("KZ", fact(Atom("Eq", (Z,)))),
                axiom("KS", HornFormula((Atom("Eq", (x,)),), Atom("Eq", (App(S, x),))))])
t = Z
for _ in range(2000):
    t = App(S, t)
print(detect_simple_loop(env, Atom("Eq", (t,))))
"""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(CORPUS.parent.parent / "src")},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["None"]
