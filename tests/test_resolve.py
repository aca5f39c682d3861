from __future__ import annotations

import importlib
import json
import pathlib
import pickle
import random
import sys
import threading
import time
from collections import Counter
from typing import Optional

import pytest

from cohorn import cli
from cohorn.evidence import type_check
from cohorn.parser import parse_atom
from cohorn.resolve import (
    AxiomEnv,
    EntryKind,
    Fuel,
    FuelExhausted,
    GuardViolation,
    NodeStatus,
    OverlapError,
    StepMachine,
    Stuck,
    _ClauseStore,
    _unique_clause,
    axiom,
    build_tree,
    candidates,
    cohypothesis,
    hypothesis,
    index_key,
    lemma,
    resolve,
    small_steps,
    trace,
)
from cohorn.syntax import (
    App,
    Atom,
    Const,
    EApp,
    EAxiom,
    HornFormula,
    MAtom,
    Var,
    apply,
    fact,
    match,
    mk_app,
    mk_eapp,
    pair,
    render_atom,
    render_evidence,
)
from conftest import (
    SHARING_CLAUSES,
    axioms_env,
    best_time,
    eq,
    first_step,
    parse_horn,
    random_index_goal,
    random_index_head,
    random_loop_body,
    random_loop_clause,
    random_loop_goal,
    random_looping_env,
    random_sharing_corec,
    random_sharing_env,
    random_sharing_term,
    random_terminating_case,
)

resolve_module = importlib.import_module("cohorn.resolve")  # not the function
Int = Const("Int")
KPAIR_INT_INT = mk_eapp(EAxiom("KPair"), EAxiom("KInt"), EAxiom("KInt"))


# ---------------------------------------------------------------------------
# big-step resolution


def test_resolve_pair_of_ints(phi_pair):
    assert resolve(phi_pair, eq(pair(Int, Int))) == KPAIR_INT_INT


def test_resolve_single_fact(phi_pair):
    assert resolve(phi_pair, eq(Int)) == EAxiom("KInt")


def test_resolve_hptree_exhausts_fuel(phi_hptree):
    goal = eq(mk_app(Const("Mu"), Const("HPTree"), Int))
    with pytest.raises(FuelExhausted):
        resolve(phi_hptree, goal, fuel=200)


def test_resolve_stuck_reports_the_unmatched_subgoal(phi_pair):
    with pytest.raises(Stuck) as exc:
        resolve(phi_pair, eq(Const("Bool")))
    assert exc.value.goal == eq(Const("Bool"))


def test_resolve_backtracks_across_clause_choices():
    # the newer clause matches first but its subgoal is unprovable
    x = Var("x")
    env = AxiomEnv(
        [
            axiom("KGood", HornFormula((Atom("Q", (x,)),), Atom("P", (x,)))),
            axiom("KBad", HornFormula((Atom("R", (x,)),), Atom("P", (x,)))),
            axiom("KQ", fact(Atom("Q", (Int,)))),
        ]
    )
    got = resolve(env, Atom("P", (Int,)))
    assert got == EApp(EAxiom("KGood"), EAxiom("KQ"))


def test_resolve_newest_first_prefers_lemmas(phi_q):
    from cohorn.resolve import lemma
    from cohorn.syntax import ELam, EMu, EVar

    x = Var("x")
    q = lambda t: Atom("Q", (t,))
    ev = EMu("r", ELam("b0", mk_eapp(EAxiom("KS"), EApp(EVar("r"), EApp(EAxiom("KG"), EVar("b0"))), EVar("b0"))))
    env = phi_q.extended(lemma("lem", HornFormula((q(x),), q(App(Const("S"), x))), ev))
    got = resolve(env, q(App(Const("S"), Const("Z"))))
    assert got == EApp(EAxiom("lem"), EAxiom("KZ"))


# ---------------------------------------------------------------------------
# small-step resolution


def test_step_rewrites_the_goal(phi_pair):
    got = first_step(phi_pair, MAtom(eq(pair(Int, Int))))
    assert got == mk_eapp(EAxiom("KPair"), MAtom(eq(Int)), MAtom(eq(Int)))


def test_step_rewrites_leftmost_atom(phi_pair):
    state = mk_eapp(EAxiom("KPair"), EAxiom("KInt"), MAtom(eq(Int)))
    assert first_step(phi_pair, state) == KPAIR_INT_INT


def test_step_on_pure_evidence_is_absent(phi_pair):
    assert first_step(phi_pair, KPAIR_INT_INT) is None


def test_trace_pair_has_three_rewrites(phi_pair):
    states = trace(phi_pair, eq(pair(Int, Int)))
    assert len(states) == 4
    assert states[-1] == KPAIR_INT_INT


def test_trace_ab_prefix(phi_ab):
    x = Var("x")
    states = trace(phi_ab, Atom("A", (x,)), max_steps=2)
    assert states == [
        MAtom(Atom("A", (x,))),
        EApp(EAxiom("KA"), MAtom(Atom("B", (x,)))),
        EApp(EAxiom("KA"), EApp(EAxiom("KB"), MAtom(Atom("A", (x,))))),
    ]


def test_trace_zero_steps(phi_pair):
    goal = eq(pair(Int, Int))
    assert trace(phi_pair, goal, max_steps=0) == [MAtom(goal)]


def test_small_steps_yields_the_states_step_reaches():
    rng = random.Random(5)
    for k in range(120):
        if k % 2:
            env, goal = random_terminating_case(rng)
        else:
            env = random_looping_env(rng, overlapping=True)
            goal = random_loop_goal(rng, env)
        expected = [MAtom(goal)]
        while len(expected) <= 40:
            nxt = first_step(env, expected[-1])  # a fresh machine per step
            if nxt is None:
                break
            expected.append(nxt)
        got = small_steps(env, MAtom(goal))
        assert [s for _, s in zip(range(41), got)] == expected
        if len(expected) <= 40:  # a normal form ends the trace
            assert next(got, None) is None


# ---------------------------------------------------------------------------
# resolution trees


def test_tree_hptree_fig_prefix(phi_hptree):
    goal = eq(mk_app(Const("Mu"), Const("HPTree"), Int))
    tree = build_tree(phi_hptree, goal, depth_bound=4)
    n = tree.nodes
    assert n[()] == goal
    assert n[(1,)] == eq(mk_app(Const("HPTree"), App(Const("Mu"), Const("HPTree")), Int))
    assert n[(1, 1)] == eq(Int)
    assert n[(1, 2)] == eq(mk_app(Const("Mu"), Const("HPTree"), pair(Int, Int)))
    assert tree.status[(1, 1, 1)] is NodeStatus.SUCCESS
    assert tree.status[(1, 2, 1)] is NodeStatus.UNEXPANDED
    assert tree.clause_at[()] == "KMu"
    assert tree.clause_at[(1,)] == "KHPTree"
    assert tree.truncated


def test_tree_pair_fact(phi_pair):
    tree = build_tree(phi_pair, eq(Int), depth_bound=4)
    assert tree.status[(1,)] is NodeStatus.SUCCESS
    assert tree.clause_at[()] == "KInt"
    assert not tree.truncated


def test_tree_q_depth_two(phi_q):
    S, G, Z = Const("S"), Const("G"), Const("Z")
    tree = build_tree(phi_q, Atom("Q", (App(S, Z),)), depth_bound=2)
    assert tree.nodes[(1,)] == Atom("Q", (App(S, App(G, Z)),))
    assert tree.status[(1,)] is NodeStatus.UNEXPANDED
    # the empty-body clause completes to success even at the bound
    assert tree.nodes[(2,)] == Atom("Q", (Z,))
    assert tree.status[(2, 1)] is NodeStatus.SUCCESS


def test_tree_overlapping_heads_error():
    x = Var("x")
    env = AxiomEnv(
        [
            axiom("K1", fact(Atom("P", (x,)))),
            axiom("K2", fact(Atom("P", (Int,)))),
        ]
    )
    with pytest.raises(OverlapError):
        build_tree(env, Atom("P", (Int,)))


def test_tree_children_match_clause_body_lengths(phi_hptree):
    goal = eq(mk_app(Const("Mu"), Const("HPTree"), Int))
    tree = build_tree(phi_hptree, goal, depth_bound=6)
    for pos, name in tree.clause_at.items():
        body = tree.formulas[name].body
        kids = tree.children(pos)
        if body:
            assert len(kids) == len(body)
        else:
            assert len(kids) == 1
            assert tree.status[kids[0]] is NodeStatus.SUCCESS


# ---------------------------------------------------------------------------
# big-step and small-step resolution coincide


def test_big_step_and_small_step_coincide():
    rng = random.Random(41)
    for _ in range(200):
        env, goal = random_terminating_case(rng)
        ev = resolve(env, goal)
        states = trace(env, goal)
        assert states[-1] == ev
        # and conversely: the trace ended in evidence, so resolve succeeds
        assert ev is not None


def test_env_rejects_duplicate_names():
    with pytest.raises(ValueError):
        AxiomEnv([axiom("K", fact(eq(Int))), axiom("K", fact(eq(Const("Unit"))))])


def test_axiom_entries_are_self_evident(phi_pair):
    for entry in phi_pair:
        assert entry.evidence == EAxiom(entry.name)
        assert entry.ref() == EAxiom(entry.name)


def test_resolve_is_deterministic(phi_hbush):
    goal = eq(mk_app(Const("Mu"), Const("HBush"), Const("Unit")))
    first = None
    for _ in range(2):
        try:
            resolve(phi_hbush, goal, fuel=150)
        except FuelExhausted:
            pass
        states = trace(phi_hbush, goal, max_steps=40)
        if first is None:
            first = states
        else:
            assert states == first


# ---------------------------------------------------------------------------
# the clause index agrees with a brute-force scan of the environment

CLAUSE_KINDS = (EntryKind.AXIOM, EntryKind.LEMMA)


# The two clause-selection policies that `candidates` replaced, kept as the
# reference clause order of `reference_resolve`.
# They are verbatim but for `env.clauses_for(goal)`, now the function below:
# a scan of the environment's clauses that shares no code with the index.


def clauses_for(env, goal):
    """The axioms and lemmas whose head may match `goal`, oldest first:
    those of its predicate keyed like it or keyed None, a superset of those
    that match, so callers still `match` each."""
    key = index_key(goal)
    return [
        e
        for e in env.clauses()
        if e.formula.head.pred == goal.pred and index_key(e.formula.head) in (key, None)
    ]


class NewestFirst:
    """Plain resolution order: lemmas shadow axioms, newest entry first.

    A policy orders the environment entries tried against one subgoal:
    `candidates` returns the list of (entry, substitution) pairs to try, in
    order, and a flag that is set when a cohypothesis matched but was
    withheld by the guardedness restriction."""

    def candidates(self, env, goal, guard_depth):
        out = []
        for e in reversed(clauses_for(env, goal)):
            s = match(e.formula.head, goal)
            if s is not None:
                out.append((e, s))
        return out, False


class CorecPolicy:
    """Order used while proving a Horn formula corecursively: hypotheses
    first (exact atom match), then the coinductive hypothesis when the
    subgoal sits strictly beneath at least one axiom or lemma application,
    then axioms and lemmas newest-first."""

    def candidates(self, env, goal, guard_depth):
        hyps = []
        cohyps = []
        rest = []
        blocked = False
        for e in reversed(env.assumptions):
            if e.kind is EntryKind.HYP:
                if e.formula.head == goal:
                    hyps.append((e, {}))
            else:
                s = match(e.formula.head, goal)
                if s is not None:
                    if guard_depth >= 1:
                        cohyps.append((e, s))
                    else:
                        blocked = True
        for e in reversed(clauses_for(env, goal)):
            s = match(e.formula.head, goal)
            if s is not None:
                rest.append((e, s))
        return hyps + cohyps + rest, blocked


NEWEST_FIRST = NewestFirst()


def brute_newest_first(env, goal):
    out = []
    for e in reversed(env.entries):
        if e.kind in CLAUSE_KINDS:
            s = match(e.formula.head, goal)
            if s is not None:
                out.append((e, s))
    return out


def brute_corec(env, goal, guard_depth):
    hyps, cohyps, rest, blocked = [], [], [], False
    for e in reversed(env.entries):
        if e.kind is EntryKind.HYP:
            if e.formula.head == goal:
                hyps.append((e, {}))
            continue
        s = match(e.formula.head, goal)
        if s is None:
            continue
        if e.kind is not EntryKind.COHYP:
            rest.append((e, s))
        elif guard_depth >= 1:
            cohyps.append((e, s))
        else:
            blocked = True
    return hyps + cohyps + rest, blocked


def brute_unique_names(env, goal):
    return [
        e.name
        for e in env.entries
        if e.kind in CLAUSE_KINDS and match(e.formula.head, goal) is not None
    ]


def random_index_env(rng):
    """An environment built by chains of `extended` from random index-shaped
    heads, with hypotheses and cohypotheses interleaved, plus goals."""
    heads, entries = [], []
    for i in range(rng.randint(1, 30)):
        head = random_index_head(rng, ["x", "y", "f", "a"])
        heads.append(head)
        roll = rng.random()
        if roll < 0.6:
            entries.append(axiom(f"K{i}", fact(head)))
        elif roll < 0.8:
            entries.append(lemma(f"L{i}", fact(head), EAxiom(f"L{i}")))
        elif roll < 0.9:
            entries.append(cohypothesis(f"r{i}", fact(head)))
        else:
            entries.append(hypothesis(f"b{i}", random_index_goal(rng, heads)))
    env = AxiomEnv(entries[:2])
    i = 2
    while i < len(entries):
        k = rng.randint(1, 3)
        env = env.extended(*entries[i : i + k])
        i += k
    assert env.entries == tuple(entries)
    goals = [random_index_goal(rng, heads) for _ in range(20)]
    goals += [e.formula.head for e in entries if e.kind is EntryKind.HYP]
    return env, goals


def test_clause_index_agrees_with_brute_force_scan(monkeypatch):
    rng = random.Random(2024)
    policy = CorecPolicy()
    hits = 0
    for k in range(300):
        # compiled heads from the first `matching` call of a (pred, key) on,
        # from its third, or never
        monkeypatch.setattr(resolve_module, "COLD_LOOKUPS", (0, 2, 10**9)[k % 3])
        env, goals = random_index_env(rng)
        for e in env.entries:  # compiled heads against `match`, identity included
            for goal in (e.formula.head, *goals[:5]):
                assert e.matcher(goal) == match(e.formula.head, goal)
        for goal in goals:
            expected = brute_newest_first(env, goal)
            hits += bool(expected)
            assert list(env.matching(goal)) == expected
            assert NEWEST_FIRST.candidates(env, goal, 0) == (expected, False)
            for depth in (0, 1):
                got = candidates(env, goal, depth)
                assert got == policy.candidates(env, goal, depth)
                assert got == brute_corec(env, goal, depth)
            names = brute_unique_names(env, goal)
            if len(names) > 1:
                with pytest.raises(OverlapError) as exc:
                    _unique_clause(env, goal)
                assert exc.value.names == names
            else:
                found = _unique_clause(env, goal)
                assert (found[0].name if found else None) == (
                    names[0] if names else None
                )
            assert (StepMachine(env, MAtom(goal)).reducible == 1) == bool(names)
            if goal.args:  # the same predicate at another arity
                other = Atom(goal.pred, goal.args[1:])
                assert list(env.matching(other)) == brute_newest_first(env, other)
    # the generator must exercise the matching side, not only misses
    assert hits > 1000


def brute_overlap(heads: list[Atom]) -> bool:
    """Two heads of one predicate with equal keys, or one of them keyed None."""
    keyed = [(h.pred, index_key(h)) for h in heads]
    return any(
        p == q and (k == l or k is None or l is None)
        for i, (p, k) in enumerate(keyed)
        for q, l in keyed[:i]
    )


def test_heads_overlap_is_the_index_key_rule():
    rng = random.Random(808)
    kinds = Counter()
    for _ in range(600):
        heads = [random_index_head(rng, ["x", "y", "f", "a"]) for _ in range(5)]
        envs = [AxiomEnv()]
        for i, h in enumerate(heads):  # one shared store
            envs.append(envs[-1].extended(axiom(f"K{i}", fact(h))))
        k = rng.randint(0, 4)  # a branch at size k copies the store
        branch = [envs[k]]
        for i, h in enumerate(random_index_head(rng, ["x", "y"]) for _ in range(3)):
            branch.append(branch[-1].extended(axiom(f"B{i}", fact(h))))
        assert branch[1]._store is not envs[k]._store
        for env in envs + branch:  # at every size, after the branch too
            clause_heads = [e.formula.head for e in env.clauses()]
            expected = brute_overlap(clause_heads)
            assert env.heads_overlap() == expected
            kinds[expected] += 1
            if not expected:
                # no goal matches two heads, so no tree can raise OverlapError
                for _ in range(3):
                    _unique_clause(env, random_index_goal(rng, clause_heads))
    assert min(kinds.values()) >= 1000, kinds


def test_heads_overlap_is_kept_per_store_and_size():
    P = lambda t: Atom("P", (t,))
    env = AxiomEnv([axiom("K0", fact(P(Const("A"))))])
    wider = env.extended(axiom("K1", fact(P(Var("x")))))
    assert not env.heads_overlap() and wider.heads_overlap()
    assert env._store is wider._store and env._store.overlap_from == 2
    other = env.extended(axiom("K2", fact(P(Const("B")))))  # a copy
    assert other._store is not env._store and not other.heads_overlap()
    again = env.extended(axiom("K3", fact(P(Const("A")))))  # another copy
    assert again.heads_overlap() and not other.heads_overlap()
    assert [e._store.overlap_from for e in (wider, other, again)] == [2, None, 2]


@pytest.mark.parametrize("cold", [0, 2])
def test_the_index_stays_exact_under_interleaved_appends_and_lookups(cold, monkeypatch):
    # one head at a time, with lookups on every snapshot after each append:
    # a goal key warms on its predicate's None list before a head with that
    # key arrives, and heads keyed None arrive after keyed lists exist
    monkeypatch.setattr(resolve_module, "COLD_LOOKUPS", cold)
    rng = random.Random(26 + cold)
    events = Counter()
    for _ in range(100):
        heads, snapshots = [], [AxiomEnv()]
        for i in range(rng.randint(1, 16)):
            head = random_index_head(rng, ["x", "y", "f", "a"])
            pred, key = head.pred, index_key(head)
            store = snapshots[-1]._store
            lists = store.index.get(pred, {})
            if key is None:
                events["None head after a keyed list"] += len(lists) > 1
            elif key not in lists:
                warm = store.lookups.get((pred, key)).__class__ is list
                events["new list for a key warmed on the None list"] += warm
            heads.append(head)
            snapshots.append(snapshots[-1].extended(axiom(f"K{i}", fact(head))))
            goals = [random_index_goal(rng, heads) for _ in range(4)]
            for env in snapshots:
                clause_heads = [e.formula.head for e in env.clauses()]
                assert env.heads_overlap() == brute_overlap(clause_heads)
                for goal in goals:
                    expected = brute_newest_first(env, goal)
                    events["hit"] += bool(expected)
                    assert env.matching(goal) == expected
                    for depth in (0, 1):
                        assert candidates(env, goal, depth) == (expected, False)
                    names = brute_unique_names(env, goal)
                    if len(names) > 1:
                        with pytest.raises(OverlapError) as exc:
                            _unique_clause(env, goal)
                        assert exc.value.names == names
                    else:
                        found = _unique_clause(env, goal)
                        assert ([found[0].name] if found else []) == names
    assert len(events) == 3 and min(events.values()) >= 20, events


def test_branched_snapshots_are_isolated(monkeypatch):
    x = Var("x")
    base = AxiomEnv([axiom("K0", fact(eq(Int)))])
    a = axiom("KA", fact(eq(App(Const("List"), x))))
    b = lemma("KB", fact(eq(App(Const("List"), Int))), EAxiom("KB"))
    e1 = base.extended(a)
    e2 = base.extended(b)
    goal = eq(App(Const("List"), Int))
    assert [e.name for e, _ in e1.matching(goal)] == ["KA"]
    assert [e.name for e, _ in e2.matching(goal)] == ["KB"]
    assert list(base.matching(goal)) == []
    assert e1.lookup("KB") is None and e2.lookup("KA") is None
    assert base.lookup("KA") is None and base.lookup("KB") is None
    assert e1.entries == (base.entries[0], a)
    assert e2.entries == (base.entries[0], b)
    # re-adding the same entry to a snapshot fast-forwards onto the stored
    # clause; a different entry copies the prefix into a new store
    again = base.extended(a)
    assert again._store is e1._store and again.entries == e1.entries
    assert e2._store is not e1._store
    # the same name may be reused on another branch
    other = base.extended(axiom("KA", fact(eq(Const("Unit")))))
    assert other.lookup("KA").formula == fact(eq(Const("Unit")))
    assert e1.lookup("KA") is a
    # duplicate names still raise, on the tip path and on the copy path
    dup = axiom("K0", fact(eq(Const("Bool"))))
    with pytest.raises(ValueError):
        e1.extended(dup)  # e1 is its store's tip
    with pytest.raises(ValueError):
        base.extended(dup)  # base is not
    with pytest.raises(ValueError):
        e2.extended(lemma("KB", fact(eq(Int)), EAxiom("KB")))
    with pytest.raises(ValueError):
        base.extended(a, axiom("KA", fact(eq(Int))))
    assert e1.entries == (base.entries[0], a)
    # the index stays exact when the tip grows and when a snapshot below
    # the tip copies the store
    monkeypatch.setattr(resolve_module, "COLD_LOOKUPS", 0)
    heads = [eq(App(Const("List"), x)), eq(x), eq(App(Const("List"), Int)), eq(Int)]
    goals = [eq(App(Const("List"), Int)), eq(Int), eq(Const("Unit")), Atom("R")]
    chain = [AxiomEnv([axiom("H0", fact(heads[0]))])]
    for i, h in enumerate(heads[1:], start=1):
        chain.append(chain[-1].extended(axiom(f"H{i}", fact(h))))
    for env in chain:
        for goal in goals:
            assert list(env.matching(goal)) == brute_newest_first(env, goal)
    store = chain[-1]._store
    tip = chain[-1].extended(axiom("T", fact(eq(x))))
    copied = chain[1].extended(lemma("C", fact(eq(Int)), EAxiom("C")))
    assert tip._store is store and copied._store is not store
    for env in (*chain, tip, copied):
        for goal in goals:
            assert list(env.matching(goal)) == brute_newest_first(env, goal)
    for s in (store, copied._store):
        # each list holds, ascending and once each, exactly the heads of its
        # predicate keyed `key` or None
        for pred, lists in s.index.items():
            for key, ps in lists.items():
                assert ps == [
                    p
                    for p, e in enumerate(s.entries)
                    if e.formula.head.pred == pred
                    and index_key(e.formula.head) in (key, None)
                ]
        # each goal key is warm, and reads its own list, or the None list
        # while it has none
        assert s.lookups.keys() == {(g.pred, index_key(g)) for g in goals}
        for (pred, key), ps in s.lookups.items():
            assert ps is s.heads(pred, key)


def test_pickled_entries_carry_no_compiled_clause(phi_hptree, monkeypatch):
    monkeypatch.setattr(resolve_module, "COLD_LOOKUPS", 0)
    goal = eq(mk_app(Const("Mu"), Const("HPTree"), Int))
    with pytest.raises(FuelExhausted):
        resolve(phi_hptree, goal, 300)
    used = [e for e in phi_hptree.entries if "matcher" in vars(e)]
    assert len(used) == 4 and all("builder" in vars(e) for e in used)
    copies = []
    for e in used:
        assert not {"matcher", "builder"} & set(e.__reduce_ex__(2)[2])
        copy = pickle.loads(pickle.dumps(e))
        assert copy == e and not {"matcher", "builder"} & set(vars(copy))
        copies.append(copy)
    fresh = AxiomEnv(pickle.loads(pickle.dumps(phi_hptree.entries)))
    for env in (fresh, AxiomEnv(copies)):
        fuel = Fuel(300)
        with pytest.raises(FuelExhausted):
            resolve(env, goal, fuel)
        assert fuel.remaining == -1
    assert resolve(fresh, eq(pair(Int, Int))) == KPAIR_INT_INT


def test_snapshots_read_safely_while_the_store_grows():
    # one writer extends the store's tip while readers query an older
    # snapshot of the same store; a reader must never see a later clause
    x = Var("x")
    base = AxiomEnv([axiom("K0", fact(eq(App(Const("List"), x))))])
    goal = eq(App(Const("List"), Int))
    expected = list(base.matching(goal))
    stop = threading.Event()
    errors = []

    def write():
        env = base
        i = 1
        while not stop.is_set():
            env = env.extended(axiom(f"K{i}", fact(eq(App(Const("List"), x)))))
            i += 1

    def read():
        while not stop.is_set():
            if list(base.matching(goal)) != expected:
                errors.append("reader saw a clause beyond its snapshot")
                stop.set()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=write)] + [
        threading.Thread(target=read) for _ in range(3)
    ]
    try:
        for t in threads:
            t.start()
        time.sleep(0.5)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10)
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(base) == 1


def test_a_key_warmed_as_a_writer_files_its_list_reads_that_list(monkeypatch):
    # the interleaving a concurrent writer can cause, forced: the writer
    # files the key's own list after a reader read the None list for the
    # key, and before the reader stores it as the key's list
    monkeypatch.setattr(resolve_module, "COLD_LOOKUPS", 0)
    P, C = (lambda t: Atom("P", (t,))), Const("C")
    base = AxiomEnv([axiom("W", fact(P(Var("x"))))])  # a head keyed None
    heads, tip = _ClauseStore.heads, []

    def interleaved(store, pred, key):
        ps = heads(store, pred, key)
        if not tip:
            tip.append(base.extended(axiom("K", fact(P(C)))))
        return ps

    monkeypatch.setattr(_ClauseStore, "heads", interleaved)
    assert [e.name for e, _ in base.matching(P(C))] == ["W"]
    assert [e.name for e, _ in tip[0].matching(P(C))] == ["K", "W"]
    assert base._store.lookups[P(C).pred, index_key(P(C))] == [0, 1]


# ---------------------------------------------------------------------------
# the cycle rule never changes what resolve returns or raises


class _RefFrame:
    def __init__(self, ref, pending, done=None):
        self.ref, self.pending, self.done = ref, pending, done or []

    def snapshot(self):
        return _RefFrame(self.ref, list(self.pending), list(self.done))


def reference_resolve(env, goal, fuel, policy=NEWEST_FIRST, guard_depth=0):
    """`resolve` without the cycle rule: it always burns its whole budget
    on a divergent search."""
    stack = [_RefFrame(None, [(goal, guard_depth)])]
    choices = []
    stuck_at = None
    saw_blocked = False

    def enter(entry, sigma, depth):
        fuel.spend()
        inc = 1 if entry.kind in CLAUSE_KINDS else 0
        pending = [(apply(sigma, b), depth + inc) for b in entry.formula.body]
        stack.append(_RefFrame(entry.ref(), pending))

    while True:
        top = stack[-1]
        if not top.pending:
            stack.pop()
            ev = top.done[0] if top.ref is None else mk_eapp(top.ref, *top.done)
            if not stack:
                return ev
            stack[-1].done.append(ev)
            continue
        atom, depth = top.pending.pop(0)
        cands, blocked = policy.candidates(env, atom, depth)
        saw_blocked = saw_blocked or blocked
        if cands:
            if len(cands) > 1:
                snap = [f.snapshot() for f in stack]
                snap[-1].pending.insert(0, (atom, depth))
                choices.append((cands, 1, snap))
            enter(*cands[0], depth)
            continue
        if stuck_at is None and not blocked:
            stuck_at = atom
        while choices:
            cands, i, snap = choices.pop()
            if i < len(cands):
                stack = [f.snapshot() for f in snap]
                if i + 1 < len(cands):
                    choices.append((cands, i + 1, snap))
                atom, depth = stack[-1].pending.pop(0)
                enter(*cands[i], depth)
                break
        else:
            if saw_blocked and stuck_at is None:
                raise GuardViolation(goal)
            raise Stuck(stuck_at if stuck_at is not None else goal)


def outcome(run):
    try:
        return "evidence", run()
    except (Stuck, GuardViolation) as ex:
        return type(ex).__name__, ex.goal
    except FuelExhausted:
        return "FuelExhausted", None


def corec_setting(rng, env):
    """`env` extended for the corecursive setting: a cohypothesis and
    hypotheses in scope; a cohypothesis with a variable head is blocked at
    every root goal."""
    co = random_loop_clause(rng)
    if rng.random() < 0.5:
        head = Atom(co.head.pred, (Var("x"),))
        co = HornFormula(random_loop_body(rng, head), head)
    return env.extended(
        cohypothesis("r", co),
        hypothesis("b0", random_loop_goal(rng, env)),
        hypothesis("b1", random_loop_goal(rng, env)),
    )


def test_cycle_rule_tells_an_unguarded_atom_from_its_guarded_repeat():
    # P n at depth 0 comes back as P n at depth 2, where the cohypothesis
    # Z x => P x is offered; proving Z n takes more than 16 applications, so
    # a checkpoint sees both P n frames on the path
    x, n = Var("x"), Const("O")
    for _ in range(20):
        n = App(Const("S"), n)
    p = lambda t: Atom("P", (t,))
    q = lambda t: Atom("Q", (t,))
    z = lambda t: Atom("Z", (t,))
    plain = AxiomEnv(
        [
            axiom("KP", HornFormula((q(x),), p(x))),
            axiom("KQ", HornFormula((p(x),), q(x))),
            axiom("KS", HornFormula((z(x),), z(App(Const("S"), x)))),
            axiom("KO", fact(z(Const("O")))),
        ]
    )
    env = plain.extended(cohypothesis("r", HornFormula((z(x),), p(x))))
    ev = resolve(env, p(n), 100)
    assert ev == reference_resolve(env, p(n), Fuel(100), CorecPolicy())
    with pytest.raises(FuelExhausted) as cycle:  # without the cohypothesis: a cycle
        resolve(plain, p(n), 100)
    # the exception names the repeated atom and its guard depth, and keeps
    # the empty message of a spent budget, which carries neither
    assert cycle.value.atom in (p(n), q(n)) and cycle.value.depth >= 1
    with pytest.raises(FuelExhausted) as spent:
        resolve(plain, z(n), 5)
    assert (spent.value.atom, spent.value.depth) == (None, None)
    assert str(cycle.value) == str(spent.value) == ""


def test_cycle_rule_agrees_with_the_full_fuel_burn():
    rng = random.Random(5)
    seen = {"evidence": 0, "Stuck": 0, "GuardViolation": 0, "FuelExhausted": 0}
    cut_short = 0
    for _ in range(24):
        env = random_looping_env(rng, overlapping=True)
        work = corec_setting(rng, env)
        for _ in range(4):
            goal = random_loop_goal(rng, env)
            for e, policy in ((env, NEWEST_FIRST), (work, CorecPolicy())):
                for budget in (40, 150, 400):
                    ref_fuel, new_fuel = Fuel(budget), Fuel(budget)
                    expected = outcome(
                        lambda: reference_resolve(e, goal, ref_fuel, policy)
                    )
                    got = outcome(lambda: resolve(e, goal, new_fuel))
                    assert got == expected, (e, goal, policy, budget)
                    seen[got[0]] += 1
                    cut_short += new_fuel.remaining > max(ref_fuel.remaining, 0)
    assert min(seen.values()) >= 10, seen
    assert cut_short >= 50, cut_short


# ---------------------------------------------------------------------------
# resolve agrees with the resolve that copied the whole stack at every choice
# point, down to the fuel it leaves.  That resolve's answers on 2,048
# generated runs, with the programs and goals they ran on, are recorded in
# SNAPSHOT_RECORD: 64 programs, 80% overlapping, each with four goals, run
# under plain and corecursive clause order at budgets 40, 150, 400 and 1500.
# The resolve itself, the recorder and a test that the record equals its
# live answers are in this file's history.

SNAPSHOT_RECORD = pathlib.Path(__file__).parent / "snapshot_resolve.json"


def answer(run):
    """What a run returned or raised, rendered: ("evidence", the proof),
    (the exception's name, its goal) or ("FuelExhausted", None)."""
    kind, detail = outcome(run)
    if kind == "evidence":
        return kind, render_evidence(detail)
    return kind, None if detail is None else render_atom(detail)


def load_program(program):
    """(plain environment, corecursive environment, goals) of a record."""
    env = axioms_env(program["axioms"])
    b0, b1 = map(parse_atom, program["hypotheses"])
    work = env.extended(
        cohypothesis("r", parse_horn(program["cohypothesis"])),
        hypothesis("b0", b0),
        hypothesis("b1", b1),
    )
    return env, work, [parse_atom(g) for g in program["goals"]]


@pytest.fixture(scope="module")
def snapshot_record():
    return json.loads(SNAPSHOT_RECORD.read_text(encoding="utf-8"))


def test_resolve_agrees_with_the_snapshotting_resolve(snapshot_record):
    seen = {"evidence": 0, "Stuck": 0, "GuardViolation": 0, "FuelExhausted": 0}
    runs = 0
    for program in snapshot_record["programs"]:
        env, work, goals = load_program(program)
        for g, order, budget, kind, detail, remaining in program["runs"]:
            e = env if order == "plain" else work
            fuel = Fuel(budget)
            got = answer(lambda: resolve(e, goals[g], fuel))
            assert (got, fuel.remaining) == ((kind, detail), remaining), (e, goals[g], budget)
            seen[kind] += 1
            runs += 1
    assert runs >= 2000
    assert min(seen.values()) >= 20, seen


def test_resolve_cost_is_linear_in_choice_points():
    # every level is a choice point: the newest clause leads to Q, which no
    # clause proves, so each level backtracks once before KS succeeds
    S, Z = Const("S"), Const("Z")
    x = Var("x")
    p = lambda t: Atom("P", (t,))
    env = AxiomEnv(
        [
            axiom("KZ", fact(p(Z))),
            axiom("KS", HornFormula((p(x),), p(App(S, x)))),
            axiom("KQ", HornFormula((Atom("Q", (x,)),), p(App(S, x)))),
        ]
    )

    def goal(n):
        t = Z
        for _ in range(n):
            t = App(S, t)
        return p(t)

    small, large = goal(300), goal(2400)
    ev, depth = resolve(env, large), 0
    while isinstance(ev, EApp):
        assert ev.fun == EAxiom("KS")
        ev, depth = ev.arg, depth + 1
    assert (ev, depth) == (EAxiom("KZ"), 2400)
    t_small = best_time(lambda: resolve(env, small))
    t_large = best_time(lambda: resolve(env, large))
    assert t_large < 20 * t_small  # linear is about 8x


# ---------------------------------------------------------------------------
# resolve with replay of solved subgoals agrees with the resolve that searched
# every subgoal again, down to the evidence and the fuel it leaves.  That
# resolve is kept below verbatim, renamed.

FIRST_CYCLE_CHECK = resolve_module.FIRST_CYCLE_CHECK


def unreplayed_resolve(env: AxiomEnv, goal: Atom, fuel: Fuel | int = 10_000) -> Evidence:
    """Prove an atomic goal by term-matching resolution, corecursively when
    `env` holds hypotheses or a coinductive hypothesis.

    Clause choice follows `candidates` with chronological backtracking, one
    fuel unit per clause application.  Raises FuelExhausted when the budget
    runs out, Stuck when every alternative fails, and GuardViolation when
    failure is due only to the guardedness restriction.

    The search state is immutable, so a choice point stores it in O(1):
    `todo` links pending work, leftmost first: subgoals (atom, depth, rest)
    and closers (ref, n, atom, depth, rest).  A closer follows the n body
    subgoals of the clause application that proved atom at guard depth
    `depth` and applies ref to their n proofs; `done` links the proofs found
    so far, newest first.  A choice point is (candidates, next index, atom,
    depth, todo, done).

    Cycle rule: FuelExhausted is also raised as soon as the current
    derivation path, the closers in `todo`, proves one atom twice at guard
    depths that are equal or both >= 1, since `candidates` offers the same
    pairs at such depths.  Subgoals share no variables, so the search
    below the repeat replays the search below its first occurrence: it
    meets the atom again, and the continuation that rejected the first
    occurrence's solutions rejects the repeat's.  No answer or failure can
    follow, and with any finite budget the run would end in FuelExhausted
    anyway.  The path is checked when the count of clause applications
    reaches 16, 32, 64, ..., so the checks cost amortised O(1) per
    application; terms cache their hashes, so hashing a path costs only its
    newly built terms.
    """
    if isinstance(fuel, int):
        fuel = Fuel(fuel)
    todo = (goal, 0, None)
    done = None
    choices: list[tuple] = []
    stuck_at: Optional[Atom] = None
    saw_blocked = False
    applied = 0
    next_check = FIRST_CYCLE_CHECK

    while todo is not None:
        if len(todo) == 5:  # a closer: apply ref to the n newest proofs
            ref, n, _, _, todo = todo
            args = []
            for _ in range(n):
                ev, done = done
                args.append(ev)
            done = (mk_eapp(ref, *reversed(args)), done)
            continue
        atom, depth, todo = todo
        cands, blocked = candidates(env, atom, depth)
        saw_blocked = saw_blocked or blocked
        i = 0
        if len(cands) > 1:
            choices.append((cands, 1, atom, depth, todo, done))
        elif not cands:
            # dead end: chronological backtracking
            if stuck_at is None and not blocked:
                stuck_at = atom
            if not choices:
                if saw_blocked and stuck_at is None:
                    raise GuardViolation(goal)
                raise Stuck(stuck_at if stuck_at is not None else goal)
            cands, i, atom, depth, todo, done = choices.pop()
            if i + 1 < len(cands):
                choices.append((cands, i + 1, atom, depth, todo, done))
        entry, sigma = cands[i]
        fuel.spend()
        ref, body = entry.instantiate(sigma)
        todo = (ref, len(body), atom, depth, todo)
        inc = 1 if entry.kind in CLAUSE_KINDS else 0
        for b in reversed(body):
            todo = (b, depth + inc, todo)
        applied += 1
        if applied == next_check:
            next_check *= 2
            seen = set(), set()  # atoms proved at depth 0, at depth >= 1
            rest = todo
            while rest is not None:
                if len(rest) == 5:
                    atoms = seen[rest[3] >= 1]
                    if rest[2] in atoms:
                        raise FuelExhausted()
                    atoms.add(rest[2])
                rest = rest[-1]
    return done[0]


class Meter(Fuel):
    """Fuel that notes `remaining` after each unit spend that did not run
    out, so a run can tell fuel lowered by a replay from fuel spent one
    unit at a time.  `resolve` spends a unit by lowering `remaining` by 1
    itself; a replay that happens to lower it by exactly 1 counts as a
    spend here, so the replay counts err low, never high."""

    def __init__(self, remaining):
        self._remaining = None
        super().__init__(remaining)
        self.spent_to = remaining
        self.spend_raised = False

    @property
    def remaining(self):
        return self._remaining

    @remaining.setter
    def remaining(self, value):
        spent = self._remaining is not None and value == self._remaining - 1
        self._remaining = value
        self.spend_raised = spent and value < 0
        if spent and value >= 0:
            self.spent_to = value


def compare_with_unreplayed(runs, monkeypatch):
    """Run resolve and unreplayed_resolve on each (env, goal, budget) and
    assert equal (outcome, evidence, remaining).  Returns counts of the
    replay cases met: runs with fewer `AxiomEnv.matching` calls than the
    reference, runs whose fuel ran out inside a replayed span, and
    checkpoints inside a replayed span with and without a path repeat."""
    counts = Counter()
    calls = [0]
    matching = AxiomEnv.matching
    path_repeats = resolve_module._path_repeats
    meter = None

    def counted_matching(env, goal):
        calls[0] += 1
        return matching(env, goal)

    def counted_path_repeats(todo, seen):
        found = path_repeats(todo, seen)
        if meter.remaining != meter.spent_to:  # lowered by a replay
            counts["checkpoint in replay, repeat" if found else "checkpoint in replay"] += 1
        return found

    monkeypatch.setattr(AxiomEnv, "matching", counted_matching)
    monkeypatch.setattr(resolve_module, "_path_repeats", counted_path_repeats)
    for e, goal, budget in runs:
        old_fuel, meter = Fuel(budget), Meter(budget)
        calls[0] = 0
        expected = outcome(lambda: unreplayed_resolve(e, goal, old_fuel))
        old_calls, calls[0] = calls[0], 0
        got = outcome(lambda: resolve(e, goal, meter))
        assert (got, meter.remaining) == (expected, old_fuel.remaining), (e, goal, budget)
        assert calls[0] <= old_calls
        counts["fewer matching calls"] += calls[0] < old_calls
        counts["exhausted in replay"] += (
            got[0] == "FuelExhausted" and meter.remaining == -1 and not meter.spend_raised
        )
        counts[got[0]] += 1
    return counts


def test_resolve_agrees_with_the_unreplayed_resolve(monkeypatch):
    # the programs, goals and budgets of SNAPSHOT_RECORD, against the live reference
    rng = random.Random(17)
    runs = []
    for k in range(64):
        env = random_looping_env(rng, overlapping=k % 5 != 0)
        work = corec_setting(rng, env)
        for _ in range(4):
            goal = random_loop_goal(rng, env)
            for e in (env, work):
                runs += [(e, goal, budget) for budget in (40, 150, 400, 1500)]
    counts = compare_with_unreplayed(runs, monkeypatch)
    assert len(runs) >= 2000
    assert min(counts[k] for k in ("evidence", "Stuck", "GuardViolation", "FuelExhausted")) >= 20, counts


def test_resolve_replays_shared_subgoals_exactly_at_every_budget(monkeypatch):
    # every budget from 1 to 300 puts the end of the fuel and the checkpoints
    # at 16, 32, ..., 256 at every offset into the replayed spans
    rng = random.Random(1511)
    runs = []
    for _ in range(12):
        env = random_sharing_env(rng)
        work = random_sharing_corec(rng, env)
        for _ in range(2):
            goal = Atom("Eq", (random_sharing_term(rng, rng.randint(3, 8)),))
            for e in (env, work):
                runs += [(e, goal, budget) for budget in range(1, 301)]
    # Eq (Loop A) proves A, then meets itself and replays A: the fuel runs
    # out inside that span before a checkpoint that would see the repeat
    env = axioms_env((*SHARING_CLAUSES[:3], "(Eq a, Eq (Loop a)) => Eq (Loop a)"))
    nested = Int
    for _ in range(5):
        nested = pair(nested, nested)
        runs += [(env, eq(App(Const("Loop"), nested)), budget) for budget in range(1, 301)]
    counts = compare_with_unreplayed(runs, monkeypatch)
    # every outcome, and replays that skip searches, run the fuel out and
    # cross checkpoints that do and do not find a repeat on the path above
    assert min(counts[k] for k in ("evidence", "Stuck", "FuelExhausted")) >= 500, counts
    assert counts["fewer matching calls"] >= 2000, counts
    assert counts["exhausted in replay"] >= 50, counts
    assert counts["checkpoint in replay, repeat"] >= 100, counts
    assert counts["checkpoint in replay"] >= 100, counts


def test_replay_makes_the_hptree_burn_linear(phi_hptree, corpus, monkeypatch, capsys):
    # level k of Eq (Mu HPTree Int) proves Eq of k nested pairs, 2^(k+1) - 1
    # applications searched once and then replayed: 100x the fuel reaches
    # only about 7 more levels
    goal = eq(mk_app(Const("Mu"), Const("HPTree"), Int))
    calls = Counter()
    matching = AxiomEnv.matching

    def counted(env, atom):
        calls[budget] += 1
        return matching(env, atom)

    monkeypatch.setattr(AxiomEnv, "matching", counted)
    for budget in (10_000, 1_000_000):
        fuel = Fuel(budget)
        with pytest.raises(FuelExhausted):
            resolve(phi_hptree, goal, fuel)
        assert fuel.remaining == -1
    assert calls[1_000_000] < 2 * calls[10_000], calls
    outputs = []
    for fuel_args in ([], ["--fuel", "1000000"]):
        assert cli.main(["check", str(corpus / "hptree.asl"), *fuel_args]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_the_plain_burn_takes_the_lone_candidate_step(phi_d, monkeypatch):
    # dz's burn takes the plain-environment path.  Once a (predicate, key)
    # has had its COLD_LOOKUPS `match` scans and one `AxiomEnv.matching`
    # call that maps it to its index list, an application reads the lone
    # candidate there, runs its two kernels and lowers `remaining` itself: no
    # further `matching` call and no `Fuel.spend`.  With `match` on every
    # lookup, every application goes through `matching`.  Both end alike,
    # checking the path at 16, 32, ..., 8192 applications.
    calls = Counter()
    matching, path_repeats = AxiomEnv.matching, resolve_module._path_repeats
    checked = []

    class Counted(Fuel):
        def spend(self, n=1):
            calls["spend"] += 1
            super().spend(n)

    def counted_matching(env, goal):
        calls["matching"] += 1
        return matching(env, goal)

    def counted_path_repeats(todo, seen):
        checked.append(10_000 - fuel.remaining)
        return path_repeats(todo, seen)

    monkeypatch.setattr(AxiomEnv, "matching", counted_matching)
    monkeypatch.setattr(resolve_module, "_path_repeats", counted_path_repeats)
    # dz's goals have two keys, Z and S _, so two lists of one candidate
    cold = resolve_module.COLD_LOOKUPS
    for cold, lookups in ((cold, 2 * (cold + 1)), (10**9, 10_001)):
        monkeypatch.setattr(resolve_module, "COLD_LOOKUPS", cold)
        calls.clear()
        checked.clear()
        fuel = Counted(10_000)
        with pytest.raises(FuelExhausted):
            resolve(AxiomEnv(phi_d.entries), Atom("D", (Const("Z"), Const("Z"))), fuel)
        assert fuel.remaining == -1
        assert calls == {"matching": lookups}
        assert checked == [2**k for k in range(4, 14)]


def test_a_ground_cohypothesis_is_matched_by_its_hash(monkeypatch):
    # a cohypothesis head with no variable matches only an equal atom, so
    # `candidates` compares hashes and calls no `match`; one with a
    # variable still goes through `match`
    S, Z = Const("S"), Const("Z")
    head = eq(mk_app(S, mk_app(S, Z)))
    calls = []
    monkeypatch.setattr(resolve_module, "match", lambda p, t: calls.append(p) or match(p, t))
    base = axioms_env(["Eq Z", "Eq x => Eq (S x)"])  # matched by `match` while cold
    env = base.extended(cohypothesis("r", fact(head)))
    for goal in (head, eq(mk_app(S, mk_app(S, Z))), eq(mk_app(S, Z)), eq(Var("x"))):
        hit = match(head, goal) is not None
        for depth in (0, 1):
            cands, blocked = candidates(env, goal, depth)
            assert (cands[:1] == [(env.lookup("r"), {})]) == (hit and depth == 1)
            assert blocked == (hit and depth == 0)
    assert not any(p is head for p in calls)
    open_head = eq(mk_app(S, Var("x")))
    open_env = base.extended(cohypothesis("r", fact(open_head)))
    assert [e.name for e, _ in candidates(open_env, head, 1)[0]][:1] == ["r"]
    assert sum(p is open_head for p in calls) == 1


# ---------------------------------------------------------------------------
# evidence soundness: what resolve returns type-checks


def test_resolve_evidence_type_checks_where_it_was_found():
    rng = random.Random(23)
    checked = 0
    for _ in range(60):
        env = random_looping_env(rng, overlapping=True)
        work = corec_setting(rng, env)
        for _ in range(4):
            goal = random_loop_goal(rng, env)
            for e in (env, work):
                try:
                    ev = resolve(e, goal, 400)
                except (FuelExhausted, Stuck, GuardViolation):
                    continue
                assert type_check(e, ev, fact(goal)) == (True, []), (e, goal, ev)
                checked += 1
    assert checked >= 100, checked

