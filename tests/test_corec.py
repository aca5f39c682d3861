import contextlib
import io
import random
from collections import Counter

import pytest

from cohorn import cli, corec
from cohorn.corec import (
    DIRECTLY_PROVEN,
    INCONCLUSIVE,
    LEMMA_UNPROVABLE,
    NO_LOOP_FOUND,
    PROVEN,
    TREE_NODES,
    ProofConfig,
    auto,
    prove_horn,
    wf_check,
)
from cohorn.evidence import hnf, type_check
from cohorn.loopdetect import find_critical_triples
from cohorn.resolve import (
    AxiomEnv,
    Stuck,
    axiom,
    build_tree,
    cohypothesis,
    lemma,
    resolve,
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
    HornFormula,
    Var,
    fact,
    free_evars,
    mk_app,
    mk_eapp,
    pair,
    spine_evidence,
)
from conftest import (
    CORPUS,
    alpha_equal,
    eq,
    random_loop_goal,
    random_looping_env,
    random_sharing_corec,
    random_sharing_env,
    random_sharing_term,
)

Int, Unit, Mu = Const("Int"), Const("Unit"), Const("Mu")
x = Var("x")


def hptree_lemma_evidence():
    al, a1 = EVar("al"), EVar("a1")
    return EMu(
        "al",
        ELam(
            "a1",
            EApp(
                EAxiom("KMu"),
                mk_eapp(
                    EAxiom("KHPTree"), a1, EApp(al, mk_eapp(EAxiom("KPair"), a1, a1))
                ),
            ),
        ),
    )


def guarded(mu_term: EMu) -> bool:
    """Every free occurrence of the mu binder sits strictly beneath an
    axiom or lemma constant application."""
    name = mu_term.binder

    def go(e, under_const):
        if isinstance(e, EVar):
            return e.name != name or under_const
        if isinstance(e, EApp):
            head, args = spine_evidence(e)
            inside = under_const or isinstance(head, EAxiom)
            return go(head, under_const) and all(go(q, inside) for q in args)
        if isinstance(e, (ELam, EMu)):
            if e.binder == name:
                return True
            return go(e.body, under_const)
        return True

    return go(mu_term.body, False)


# ---------------------------------------------------------------------------
# prove_horn


def test_prove_horn_hptree_lemma(phi_hptree):
    formula = HornFormula((eq(x),), eq(mk_app(Mu, Const("HPTree"), x)))
    got = prove_horn(phi_hptree, formula)
    assert alpha_equal(got, hptree_lemma_evidence())


def test_prove_horn_q_lemma(phi_q):
    q = lambda t: Atom("Q", (t,))
    formula = HornFormula((q(x),), q(App(Const("S"), x)))
    got = prove_horn(phi_q, formula)
    expected = EMu(
        "al",
        ELam(
            "a1",
            mk_eapp(
                EAxiom("KS"),
                EApp(EVar("al"), EApp(EAxiom("KG"), EVar("a1"))),
                EVar("a1"),
            ),
        ),
    )
    assert alpha_equal(got, expected)


def test_prove_horn_ab(phi_ab):
    got = prove_horn(phi_ab, fact(Atom("A", (x,))))
    expected = EMu("al", EApp(EAxiom("KA"), EApp(EAxiom("KB"), EVar("al"))))
    assert alpha_equal(got, expected)


def test_prove_horn_drops_mu_when_hypothesis_unused(phi_pair):
    formula = HornFormula((eq(x),), eq(pair(x, x)))
    got = prove_horn(phi_pair, formula)
    assert got == ELam("b0", mk_eapp(EAxiom("KPair"), EVar("b0"), EVar("b0")))


def test_prove_horn_matches_resolve_on_non_looping_goals(phi_pair):
    goal = fact(eq(pair(Int, Int)))
    assert alpha_equal(prove_horn(phi_pair, goal), resolve(phi_pair, goal.head))


def test_prove_horn_root_failure_is_a_guard_violation(phi_pair):
    # the hypothesis always matches the root goal, so when nothing else
    # does the only derivation would use it unguarded
    from cohorn.resolve import GuardViolation

    with pytest.raises(GuardViolation):
        prove_horn(phi_pair, fact(eq(Const("Bool"))))


def test_prove_horn_deep_failure_is_stuck():
    env = AxiomEnv(
        [axiom("K", HornFormula((Atom("P", (x,)),), Atom("Q", (App(Const("F"), x),))))]
    )
    with pytest.raises(Stuck) as exc:
        prove_horn(env, fact(Atom("Q", (App(Const("F"), Int),))))
    assert exc.value.goal == Atom("P", (Int,))


def test_prove_horn_guardedness_and_soundness(phi_hptree, phi_ab, phi_evenodd, phi_q):
    cases = [
        (phi_hptree, HornFormula((eq(x),), eq(mk_app(Mu, Const("HPTree"), x)))),
        (phi_ab, fact(Atom("A", (x,)))),
        (phi_evenodd, fact(eq(App(Const("OddList"), Int)))),
        (phi_q, HornFormula((Atom("Q", (x,)),), Atom("Q", (App(Const("S"), x),)))),
    ]
    for env, formula in cases:
        got = prove_horn(env, formula)
        ok, _ = type_check(env, got, formula)
        assert ok
        if isinstance(got, EMu):
            assert hnf(got.body)
            assert guarded(got)


def test_prove_horn_eigenvariables_do_not_leak(phi_q):
    # evidence terms carry no first-order terms, so the instantiation
    # constants cannot appear; the binders that remain are the bound ones
    formula = HornFormula((Atom("Q", (x,)),), Atom("Q", (App(Const("S"), x),)))
    got = prove_horn(phi_q, formula)
    assert free_evars(got) == set()


# ---------------------------------------------------------------------------
# the auto pipeline


def test_auto_hbush_pipeline(phi_hbush):
    goal = fact(eq(mk_app(Mu, Const("HBush"), Unit)))
    report = auto(phi_hbush, goal)
    assert report.outcome == PROVEN
    (lem,) = report.lemmas
    v = lem.formula.head.args[0].arg
    assert lem.formula == HornFormula((eq(v),), eq(mk_app(Mu, Const("HBush"), v)))
    l = EAxiom(lem.name)
    b0 = EVar("b0")
    expected = EMu(
        "al",
        ELam(
            "b0",
            EApp(
                EAxiom("KMu"),
                mk_eapp(EAxiom("KHBush"), b0, EApp(l, EApp(l, b0))),
            ),
        ),
    )
    # the inner fixed point calls go through the stored lemma constant
    got_inlined = lem.evidence
    assert isinstance(got_inlined, EMu)
    from cohorn.syntax import subst_evidence

    assert alpha_equal(
        subst_evidence(got_inlined.body, got_inlined.binder, l), expected.body
    )
    assert report.evidence == EApp(l, EAxiom("KUnit"))


def test_auto_evenodd_cycle(phi_evenodd):
    goal = fact(eq(App(Const("OddList"), Int)))
    report = auto(phi_evenodd, goal)
    assert report.outcome == PROVEN
    (lem,) = report.lemmas
    expected = EMu(
        "al",
        mk_eapp(
            EAxiom("KOdd"),
            EAxiom("KInt"),
            mk_eapp(EAxiom("KEven"), EAxiom("KInt"), EVar("al")),
        ),
    )
    assert alpha_equal(lem.evidence, expected)
    assert report.evidence == EAxiom(lem.name)


def test_auto_ab_routes_through_the_prover(phi_ab):
    report = auto(phi_ab, fact(Atom("A", (x,))))
    assert report.outcome == DIRECTLY_PROVEN
    assert alpha_equal(
        report.evidence, EMu("al", EApp(EAxiom("KA"), EApp(EAxiom("KB"), EVar("al"))))
    )


def test_auto_dz_candidate_unprovable(phi_d):
    report = auto(phi_d, fact(Atom("D", (Const("Z"), Const("Z")))))
    assert report.outcome == LEMMA_UNPROVABLE
    assert report.candidate is not None
    head = report.candidate.formula.head
    assert head.pred == "D"
    assert head.args[0] == Const("Z")


def test_auto_terminating_goal_is_directly_proven(phi_pair):
    report = auto(phi_pair, fact(eq(pair(Int, Int))))
    assert report.outcome == DIRECTLY_PROVEN
    assert report.lemmas == ()


def test_auto_stuck_goal_is_inconclusive(phi_pair):
    report = auto(phi_pair, fact(eq(Const("Bool"))))
    assert report.outcome == INCONCLUSIVE
    assert "Bool" in report.reason


def test_auto_reports_an_unguarded_cohypothesis():
    report = auto(AxiomEnv([cohypothesis("r", fact(eq(x)))]), fact(eq(Int)))
    assert report.outcome == INCONCLUSIVE
    assert report.reason == (
        "coinductive hypothesis matches Eq Int only at an unguarded position"
    )


def test_auto_reports_with_assumptions_in_scope():
    # a caller's cohypothesis and hypotheses stay in scope in every round
    unguarded = 0
    for seed in range(400):
        rng = random.Random(seed)
        work = random_sharing_corec(rng, random_sharing_env(rng))
        goal = eq(random_sharing_term(rng, rng.randint(0, 6)))
        report = auto(work, fact(goal), ProofConfig(fuel=400))
        unguarded += report.reason.endswith("only at an unguarded position")
    assert unguarded >= 2


def test_auto_is_total_on_tiny_budgets(phi_d, phi_hbush, monkeypatch):
    monkeypatch.setattr(corec, "TREE_NODES", 200)
    cfg = ProofConfig(fuel=20, tree_depth=10, max_lemma_rounds=2)
    for env, goal in [
        (phi_d, fact(Atom("D", (Const("Z"), Const("Z"))))),
        (phi_hbush, fact(eq(mk_app(Mu, Const("HBush"), Unit)))),
    ]:
        report = auto(env, goal, cfg)
        assert report.outcome in (
            PROVEN,
            DIRECTLY_PROVEN,
            LEMMA_UNPROVABLE,
            NO_LOOP_FOUND,
            INCONCLUSIVE,
        )


def test_auto_proofs_type_check(phi_hbush, phi_evenodd):
    for env, goal in [
        (phi_hbush, fact(eq(mk_app(Mu, Const("HBush"), Unit)))),
        (phi_evenodd, fact(eq(App(Const("OddList"), Int)))),
    ]:
        report = auto(env, goal)
        final = env
        for lem in report.lemmas:
            ok, _ = type_check(final, lem.evidence, lem.formula)
            assert ok
            final = final.extended(lem)
        ok, _ = type_check(final, report.evidence, goal)
        assert ok


# ---------------------------------------------------------------------------
# the closed subtree read off a breadth-first prefix of the tree


def report_fields(report):
    """Everything a report shows, with the closed subtree by position: the
    tree it was read off may be a prefix."""
    analysis = report.analysis
    closed = analysis and analysis.closed
    return (
        report.outcome,
        report.reason,
        report.evidence,
        report.lemmas,
        report.candidate,
        closed and (closed.root, closed.positions, closed.critical_leaves),
        analysis and analysis.abstract,
    )


def record_trees(monkeypatch) -> list[tuple[int, int]]:
    """(node bound, nodes) of every tree `auto` builds from now on."""
    built = []
    original = corec.build_tree

    def recording(env, goal, depth_bound, node_bound, *rest):
        tree = original(env, goal, depth_bound, node_bound, *rest)
        built.append((node_bound, len(tree.nodes)))
        return tree

    monkeypatch.setattr(corec, "build_tree", recording)
    return built


def full_tree_only(monkeypatch, fn):
    with monkeypatch.context() as m:
        m.setattr(corec, "TREE_PREFIXES", ())
        return fn()


S, Z = Const("S"), Const("Z")


def inner_loop_case():
    """R Z unfolds to P Z, whose clause doubles into two bigger P atoms:
    the least critical-triple upper is (1,), not the root, so no prefix
    settles the closed subtree and the full tree is built."""
    P = lambda t: Atom("P", (t,))
    env = AxiomEnv(
        [
            axiom("KR", HornFormula((P(x),), Atom("R", (x,)))),
            axiom("KP", HornFormula((P(App(S, x)), P(App(S, x))), P(x))),
        ]
    )
    return env, fact(Atom("R", (Z,)))


def cycle_case(k: int):
    """The simple loop E (T0 B) -> E (T1 B) -> ... -> E (T0 B) through k
    clauses, each of which also asks for E of the argument: the root repeats
    at depth k, which deeper cycles reach only on larger prefixes."""
    E = lambda t: Atom("E", (t,))
    T = [Const(f"T{i}") for i in range(k)]
    a = Var("a")
    entries = [axiom("KB", fact(E(Const("B"))))]
    for i in range(k):
        body = (E(a), E(App(T[(i + 1) % k], a)))
        entries.append(axiom(f"K{i}", HornFormula(body, E(App(T[i], a)))))
    return AxiomEnv(entries), fact(E(App(T[0], Const("B"))))


def test_prefix_trees_give_the_full_trees_report(monkeypatch):
    rng = random.Random(31)
    monkeypatch.setattr(corec, "TREE_NODES", 1500)
    built = record_trees(monkeypatch)
    kinds = Counter()
    cases = [(*inner_loop_case(), ProofConfig(fuel=200))]
    for _ in range(60):
        cfg = ProofConfig(fuel=100, tree_depth=rng.randint(3, 50))
        cases.append((*cycle_case(rng.randint(2, 45)), cfg))
    for i in range(1500):
        env = random_looping_env(rng, overlapping=i % 3 == 0)
        goal = fact(random_loop_goal(rng, env))
        cfg = ProofConfig(
            fuel=rng.choice((30, 200)),
            max_lemma_rounds=rng.randint(1, 3),
            tree_depth=rng.randint(3, 30),
        )
        cases.append((env, goal, cfg))
    for env, goal, cfg in cases:
        built.clear()
        got = auto(env, goal, cfg)
        bounds = [n for n, _ in built]
        want = full_tree_only(monkeypatch, lambda: auto(env, goal, cfg))
        assert report_fields(got) == report_fields(want), (env, goal, cfg)
        kinds["OverlapError"] += "clause heads match" in got.reason
        escalated = (256, 1500) in zip(bounds, bounds[1:])
        kinds["every prefix, then the full tree"] += escalated
        # each round's trees end at the bound that settled it
        for n, after in zip(bounds, bounds[1:] + [0]):
            if after <= n:
                kinds["full tree" if n == 1500 else f"prefix {n}"] += 1
    assert min(kinds.values()) >= 10 and len(kinds) == 6, kinds


def test_prefixes_add_little_to_a_tree_that_never_settles(monkeypatch):
    env, goal = inner_loop_case()
    built = record_trees(monkeypatch)
    cfg = ProofConfig(fuel=200)
    report = auto(env, goal, cfg)
    assert report.outcome == PROVEN
    assert [n for n, _ in built] == [*corec.TREE_PREFIXES, TREE_NODES]
    full = built[-1][1]
    assert full >= TREE_NODES
    assert sum(nodes for _, nodes in built) <= 1.05 * full
    assert report_fields(report) == report_fields(
        full_tree_only(monkeypatch, lambda: auto(env, goal, cfg))
    )


def test_an_overlap_beyond_the_prefix_is_still_reported(monkeypatch):
    # P Z loops at the root on the first prefix, but the full tree meets
    # P (S^20 Z), which both heads match
    P = lambda t: Atom("P", (t,))
    deep = Z
    for _ in range(20):
        deep = App(S, deep)
    env = AxiomEnv(
        [
            axiom("K0", HornFormula((Atom("Q", (x,)),), P(deep))),
            axiom("K1", HornFormula((P(App(S, x)),), P(x))),
        ]
    )
    built = record_trees(monkeypatch)
    report = auto(env, fact(P(Z)), ProofConfig(fuel=200))
    assert report.outcome == INCONCLUSIVE
    assert report.reason.startswith("2 clause heads match P (S (S")
    assert built == [] and env.heads_overlap()


LOOPING_CORPUS = [
    "bush.asl", "dz.asl", "evenodd.asl", "hptree.asl", "lam_auto.asl", "mutual_auto.asl"
]


@pytest.mark.parametrize("name", LOOPING_CORPUS)
def test_corpus_loops_settle_on_a_small_prefix(monkeypatch, name):
    built = record_trees(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["check", str(CORPUS / name)])
    assert built and sum(nodes for _, nodes in built) < 64, built


def test_explain_triples_come_from_the_full_tree(phi_hbush, monkeypatch):
    built = record_trees(monkeypatch)
    report = auto(phi_hbush, fact(eq(mk_app(Mu, Const("HBush"), Unit))))
    analysis = report.analysis
    assert [n for n, _ in built] == [corec.TREE_PREFIXES[0]]
    prefix = analysis.closed.tree
    full = build_tree(analysis.env, analysis.goal, analysis.depth, TREE_NODES)
    assert analysis.triples == find_critical_triples(full)
    # the full tree has inner triples the prefix does not reach
    outside = [t for t in analysis.triples if t.lower not in prefix.clause_at]
    assert any(t.upper != () for t in outside)
    assert len(analysis.triples) > len(find_critical_triples(prefix))


# ---------------------------------------------------------------------------
# wf_check and hnf


def test_wf_check_axioms_only(phi_pair):
    ok, failures = wf_check(phi_pair)
    assert ok and failures == []


def test_wf_check_accepts_the_hptree_lemma(phi_hptree):
    formula = HornFormula((eq(x),), eq(mk_app(Mu, Const("HPTree"), x)))
    env = phi_hptree.extended(lemma("genLemm", formula, hptree_lemma_evidence()))
    ok, failures = wf_check(env)
    assert ok, failures


def test_wf_check_rejects_bad_evidence(phi_hptree):
    formula = HornFormula((eq(x),), eq(mk_app(Mu, Const("HPTree"), x)))
    env = phi_hptree.extended(lemma("bogus", formula, EAxiom("KInt")))
    ok, failures = wf_check(env)
    assert not ok
    assert "bogus" in failures[0]


def test_hnf():
    k, a = EAxiom("K"), EVar("a")
    assert hnf(ELam("a", EApp(k, a)))
    assert not hnf(ELam("a", a))
    al, a1 = EVar("al"), EVar("a1")
    body = ELam(
        "a1",
        EApp(
            EAxiom("KMu"),
            mk_eapp(EAxiom("KHPTree"), a1, EApp(al, mk_eapp(EAxiom("KPair"), a1, a1))),
        ),
    )
    assert hnf(body)

