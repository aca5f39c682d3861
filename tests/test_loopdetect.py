import pickle
import random
from collections import Counter

from cohorn.loopdetect import (
    ClosedSubtree,
    CriticalTriple,
    NoClosedSubtree,
    Projection,
    _bfs_order,
    _failing_projections,
    _is_critical_with,
    abstract_representation,
    candidate_lemma,
    closed_subtree,
    find_critical_triples,
    paterson_ok,
)
from cohorn.resolve import NodeStatus, build_tree
from cohorn.syntax import (
    App,
    Atom,
    Const,
    HornFormula,
    Var,
    free_vars,
    match,
    mk_app,
    pair,
    symbol_multiset,
    var_multiset,
)
from conftest import eq, random_loop_goal, random_looping_env, random_terminating_case

Int = Const("Int")
x, y, a, h = Var("x"), Var("y"), Var("a"), Var("h")


def combined(atom):
    return symbol_multiset(atom) + var_multiset(atom)


# ---------------------------------------------------------------------------
# Paterson's condition


def test_paterson_pair_projection_holds():
    p = Projection("KPair", 1, eq(x), eq(pair(x, y)))
    # direct multiset computation: {x} strictly inside {Pair, x, y}
    assert combined(p.body_atom) == Counter({"x": 1})
    assert combined(p.head) == Counter({"Pair": 1, "x": 1, "y": 1})
    assert paterson_ok(p.body_atom, p.head)


def test_paterson_mu_projection_fails():
    body = eq(mk_app(h, App(Const("Mu"), h), a))
    head = eq(mk_app(Const("Mu"), h, a))
    assert combined(body)["h"] == 2
    assert combined(head)["h"] == 1
    assert not paterson_ok(body, head)


def test_paterson_q_projection_fails():
    S, G = Const("S"), Const("G")
    body = Atom("Q", (App(S, App(G, x)),))
    head = Atom("Q", (App(S, x),))
    assert "G" not in combined(head)
    assert not paterson_ok(body, head)


# ---------------------------------------------------------------------------
# critical triples


def test_hptree_prefix_has_one_triple(phi_hptree):
    goal = eq(mk_app(Const("Mu"), Const("HPTree"), Int))
    tree = build_tree(phi_hptree, goal, depth_bound=4)
    triples = find_critical_triples(tree)
    assert len(triples) == 1
    t = triples[0]
    assert (t.projection.clause, t.projection.index) == ("KMu", 1)
    assert (t.upper, t.lower) == ((), (1, 2))


def test_terminating_tree_has_no_triples(phi_pair):
    tree = build_tree(phi_pair, eq(pair(Int, Int)))
    assert find_critical_triples(tree) == []


def test_evenodd_triple_on_second_projection(phi_evenodd):
    tree = build_tree(phi_evenodd, eq(App(Const("OddList"), Int)), depth_bound=4)
    triples = find_critical_triples(tree)
    assert [(t.projection.clause, t.projection.index, t.upper, t.lower) for t in triples] == [
        ("KOdd", 2, (), (2, 2))
    ]


def test_no_failing_projection_means_no_triples_anywhere():
    # soundness of the over-approximation on structurally terminating rules
    rng = random.Random(43)
    for _ in range(60):
        env, goal = random_terminating_case(rng)
        tree = build_tree(env, goal)
        assert find_critical_triples(tree) == []


# ---------------------------------------------------------------------------
# closed subtrees


def test_hptree_closed_subtree_prunes_the_infinite_branch(phi_hptree):
    goal = eq(mk_app(Const("Mu"), Const("HPTree"), Int))
    tree = build_tree(phi_hptree, goal)
    cs = closed_subtree(tree)
    assert isinstance(cs, ClosedSubtree)
    assert cs.root == ()
    assert cs.critical_leaves == [(1, 2)]
    assert cs.leaf_atoms() == [eq(mk_app(Const("Mu"), Const("HPTree"), pair(Int, Int)))]
    assert set(cs.positions) == {(), (1,), (1, 1), (1, 1, 1), (1, 2)}


def test_terminating_tree_has_no_closed_subtree(phi_pair):
    tree = build_tree(phi_pair, eq(pair(Int, Int)))
    got = closed_subtree(tree)
    assert isinstance(got, NoClosedSubtree)
    assert not got.inconclusive


def test_q_closed_subtree_allows_direct_child_repeat(phi_q):
    S, G, Z = Const("S"), Const("G"), Const("Z")
    tree = build_tree(phi_q, Atom("Q", (App(S, Z),)))
    cs = closed_subtree(tree)
    assert isinstance(cs, ClosedSubtree)
    assert cs.critical_leaves == [(1,)]
    assert cs.tree.nodes[(1,)] == Atom("Q", (App(S, App(G, Z)),))
    assert (2, 1) in cs.positions  # the success leaf below Q Z
    assert cs.tree.status[(2, 1)] is NodeStatus.SUCCESS


def test_truncated_before_closing_is_inconclusive(phi_hptree):
    goal = eq(mk_app(Const("Mu"), Const("HPTree"), Int))
    tree = build_tree(phi_hptree, goal, depth_bound=3)  # repeat not reachable
    got = closed_subtree(tree)
    assert isinstance(got, NoClosedSubtree)
    assert got.inconclusive


# ---------------------------------------------------------------------------
# abstract representation


def test_hptree_abstract_tree_matches_reference(phi_hptree):
    goal = eq(mk_app(Const("Mu"), Const("HPTree"), Int))
    cs = closed_subtree(build_tree(phi_hptree, goal))
    at = abstract_representation(cs, phi_hptree)
    v = at.root.args[0].arg
    assert isinstance(v, Var)
    assert at.root == eq(mk_app(Const("Mu"), Const("HPTree"), v))
    leaves = at.leaves()
    assert [(atom, crit) for _, atom, crit in leaves] == [
        (eq(v), False),
        (eq(mk_app(Const("Mu"), Const("HPTree"), pair(v, v))), True),
    ]


def test_hptree_abstract_tree_embeds_into_the_closed_subtree(phi_hptree):
    goal = eq(mk_app(Const("Mu"), Const("HPTree"), Int))
    cs = closed_subtree(build_tree(phi_hptree, goal))
    at = abstract_representation(cs, phi_hptree)
    for pos, atom in at.nodes.items():
        if atom is None:
            continue
        concrete = cs.tree.nodes.get(cs.root + pos)
        if concrete is not None:
            assert match(atom, concrete) is not None


def test_evenodd_abstract_tree_is_ground(phi_evenodd):
    goal = eq(App(Const("OddList"), Int))
    cs = closed_subtree(build_tree(phi_evenodd, goal))
    at = abstract_representation(cs, phi_evenodd)
    assert at.root == goal
    assert [(atom, crit) for _, atom, crit in at.leaves()] == [(goal, True)]


def test_q_abstract_tree(phi_q):
    S, G, Z = Const("S"), Const("G"), Const("Z")
    cs = closed_subtree(build_tree(phi_q, Atom("Q", (App(S, Z),))))
    at = abstract_representation(cs, phi_q)
    v = at.root.args[0].arg
    assert isinstance(v, Var)
    assert at.root == Atom("Q", (App(S, v),))
    assert [(atom, crit) for _, atom, crit in at.leaves()] == [
        (Atom("Q", (App(S, App(G, v)),)), True),
        (Atom("Q", (v,)), False),
    ]


def test_abstract_leaves_partition(phi_hptree, phi_evenodd, phi_q):
    cases = [
        (phi_hptree, eq(mk_app(Const("Mu"), Const("HPTree"), Int))),
        (phi_evenodd, eq(App(Const("OddList"), Int))),
        (phi_q, Atom("Q", (App(Const("S"), Const("Z")),))),
    ]
    for env, goal in cases:
        at = abstract_representation(closed_subtree(build_tree(env, goal)), env)
        for pos, st in at.status.items():
            if st is NodeStatus.INTERNAL:
                continue
            is_success = st is NodeStatus.SUCCESS
            is_critical = pos in at.frontier
            is_irreducible = st is NodeStatus.STUCK
            assert sum([is_success, is_critical, is_irreducible]) == 1


# ---------------------------------------------------------------------------
# candidate lemmas


def test_hptree_candidate(phi_hptree):
    goal = eq(mk_app(Const("Mu"), Const("HPTree"), Int))
    at = abstract_representation(closed_subtree(build_tree(phi_hptree, goal)), phi_hptree)
    cand, why = candidate_lemma(at, phi_hptree)
    assert cand is not None, why
    v = cand.formula.head.args[0].arg
    assert cand.formula == HornFormula((eq(v),), eq(mk_app(Const("Mu"), Const("HPTree"), v)))


def test_evenodd_candidate_has_empty_body(phi_evenodd):
    goal = eq(App(Const("OddList"), Int))
    at = abstract_representation(closed_subtree(build_tree(phi_evenodd, goal)), phi_evenodd)
    cand, _ = candidate_lemma(at, phi_evenodd)
    assert cand is not None
    assert cand.formula == HornFormula((), goal)


def test_q_candidate(phi_q):
    S, Z = Const("S"), Const("Z")
    at = abstract_representation(closed_subtree(build_tree(phi_q, Atom("Q", (App(S, Z),)))), phi_q)
    cand, _ = candidate_lemma(at, phi_q)
    assert cand is not None
    v = cand.formula.head.args[0].arg
    assert cand.formula == HornFormula((Atom("Q", (v,)),), Atom("Q", (App(S, v),)))


def test_candidate_invariants(phi_hptree, phi_q):
    for env, goal in [
        (phi_hptree, eq(mk_app(Const("Mu"), Const("HPTree"), Int))),
        (phi_q, Atom("Q", (App(Const("S"), Const("Z")),))),
    ]:
        at = abstract_representation(closed_subtree(build_tree(env, goal)), env)
        cand, _ = candidate_lemma(at, env)
        head_vars = set(free_vars(cand.formula.head))
        for b in cand.formula.body:
            assert set(free_vars(b)) <= head_vars
            assert paterson_ok(b, cand.formula.head)


def test_candidate_restating_a_clause_is_discarded(phi_hptree):
    # if an equivalent clause is already in scope the candidate is useless
    from cohorn.resolve import axiom

    goal = eq(mk_app(Const("Mu"), Const("HPTree"), Int))
    at = abstract_representation(closed_subtree(build_tree(phi_hptree, goal)), phi_hptree)
    w = Var("w")
    already = phi_hptree.extended(
        axiom("KLem", HornFormula((eq(w),), eq(mk_app(Const("Mu"), Const("HPTree"), w))))
    )
    cand, why = candidate_lemma(at, already)
    assert cand is None
    assert "restates" in why


# ---------------------------------------------------------------------------
# the one-pass analysis agrees with the O(nodes x depth) scan


def reference_triples(tree):
    """Every ancestor of every expanded node checked in turn."""
    failing = _failing_projections(tree)
    out = []
    for lower in _bfs_order(tree.clause_at):
        name = tree.clause_at[lower]
        for cut in range(len(lower)):
            upper = lower[:cut]
            if tree.clause_at.get(upper) != name:
                continue
            proj = failing.get((name, lower[cut]))
            if proj is not None:
                out.append(CriticalTriple(proj, upper, lower))
    return out


def reference_closed_subtree(tree):
    """The root read off the full triple list."""
    triples = reference_triples(tree)
    if not triples:
        return NoClosedSubtree(
            "no critical triple in the tree", inconclusive=tree.truncated
        )
    failing = _failing_projections(tree)
    root = min((t.upper for t in triples), key=lambda p: (len(p), p))
    positions, critical = [], []
    stack = [root]
    while stack:
        pos = stack.pop()
        positions.append(pos)
        if pos != root and _is_critical_with(tree, failing, root, pos):
            critical.append(pos)
            continue
        st = tree.status[pos]
        if st is NodeStatus.SUCCESS:
            continue
        if st is NodeStatus.UNEXPANDED:
            return NoClosedSubtree(
                f"truncation frontier reached at {pos} before the subtree closed",
                inconclusive=True,
            )
        if st is NodeStatus.STUCK:
            return NoClosedSubtree(
                f"branch ends irreducible at {tree.nodes[pos]} "
                "without forming a critical triple",
                inconclusive=False,
            )
        stack.extend(reversed(tree.children(pos)))
    return ClosedSubtree(tree, root, _bfs_order(positions), _bfs_order(critical))


def test_one_pass_analysis_agrees_with_the_full_scan():
    rng = random.Random(11)
    kinds = Counter()
    triples = 0
    for _ in range(1500):
        env = random_looping_env(rng, overlapping=False)
        goal = random_loop_goal(rng, env)
        tree = build_tree(env, goal, depth_bound=rng.randint(3, 12))
        expected = reference_triples(tree)
        assert find_critical_triples(tree) == expected
        triples += len(expected)
        got = closed_subtree(tree)
        assert got == reference_closed_subtree(tree)
        if isinstance(got, ClosedSubtree):
            kinds["root <>" if got.root == () else "inner root"] += 1
        else:
            kinds["inconclusive" if got.inconclusive else "no loop"] += 1
        kinds["truncated"] += tree.truncated
    assert min(kinds.values()) >= 20, kinds
    assert triples > 1000


def test_pickled_terms_carry_no_cached_hash():
    term = mk_app(Const("F"), Var("x"), pair(Int, Int))
    atom = eq(term)
    hash(atom)
    assert "_hash" in vars(term) and "_hash" in vars(atom)
    for obj in (term, atom):
        assert "_hash" not in obj.__reduce_ex__(2)[2]
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == obj and "_hash" not in vars(copy)
        assert hash(copy) == hash(obj)
