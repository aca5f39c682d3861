import pytest

from cohorn.corec import prove_horn
from cohorn.evidence import (
    check_obs_equiv,
    corecursive_points,
    detect_simple_loop,
    ev_step,
    iterate_context,
    observational_points,
    type_check,
    whnf,
    _find_redex,
)
from cohorn.resolve import FuelExhausted, subterm_at
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
    fact,
    mk_app,
    mk_eapp,
    pair,
    subst_evidence,
)
from conftest import eq

Int, Mu, HPTree = Const("Int"), Const("Mu"), Const("HPTree")
x = Var("x")


def hptree_evidence():
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


def hptree_loop(phi_hptree):
    return detect_simple_loop(phi_hptree, eq(mk_app(Mu, HPTree, x)))


# ---------------------------------------------------------------------------
# type checking


def test_type_check_hptree_lemma(phi_hptree):
    formula = HornFormula((eq(x),), eq(mk_app(Mu, HPTree, x)))
    ok, log = type_check(phi_hptree, hptree_evidence(), formula)
    assert ok, log


def test_type_check_assumption(phi_pair):
    ok, _ = type_check(phi_pair, EAxiom("KInt"), fact(eq(Int)))
    assert ok


def test_type_check_head_mismatch(phi_pair):
    ok, log = type_check(phi_pair, EAxiom("KInt"), fact(eq(pair(Int, Int))))
    assert not ok
    assert "does not match" in log[-1]


def test_type_check_mu_requires_head_normal_body(phi_pair):
    ok, log = type_check(phi_pair, EMu("a", EVar("a")), fact(eq(Int)))
    assert not ok
    assert "head-normal" in log[-1]


def test_type_check_arity_mismatch(phi_pair):
    ok, log = type_check(phi_pair, EApp(EAxiom("KInt"), EAxiom("KInt")), fact(eq(Int)))
    assert not ok


def test_type_check_binder_shadows_an_axiom_of_the_same_name(phi_pair):
    # the axiom KInt : Eq Int does not match the goal; the binder KInt does
    formula = HornFormula((eq(pair(Int, Int)),), eq(pair(Int, Int)))
    ok, log = type_check(phi_pair, ELam("KInt", EAxiom("KInt")), formula)
    assert ok, log


def test_type_check_log_is_empty_on_success_and_one_line_on_failure(phi_hptree):
    formula = HornFormula((eq(x),), eq(mk_app(Mu, HPTree, x)))
    assert type_check(phi_hptree, hptree_evidence(), formula) == (True, [])
    ok, log = type_check(phi_hptree, EAxiom("KNope"), fact(eq(Int)))
    assert not ok
    assert log == ["FAIL: assumption KNope is not in scope"]


# ---------------------------------------------------------------------------
# weak-head reduction


def test_whnf_beta():
    k, k2 = EAxiom("K"), EAxiom("K2")
    assert whnf(EApp(ELam("a", EApp(k, EVar("a"))), k2)) == EApp(k, k2)


def test_whnf_mu_unfold_reaches_the_constant():
    k = EAxiom("K")
    e = EMu("al", EApp(k, EVar("al")))
    assert whnf(e) == EApp(k, e)


def test_whnf_hptree_application_two_steps():
    e = hptree_evidence()
    got = whnf(EApp(e, EAxiom("KInt")))
    expected = EApp(
        EAxiom("KMu"),
        mk_eapp(
            EAxiom("KHPTree"),
            EAxiom("KInt"),
            EApp(e, mk_eapp(EAxiom("KPair"), EAxiom("KInt"), EAxiom("KInt"))),
        ),
    )
    assert got == expected


def test_whnf_exhausts_on_unguarded_fixpoint():
    with pytest.raises(FuelExhausted):
        whnf(EMu("a", EVar("a")), fuel=50)


def test_whnf_terminates_on_checked_evidence(phi_hptree, phi_ab):
    terms = [
        hptree_evidence(),
        EApp(hptree_evidence(), EAxiom("KInt")),
        EMu("al", EApp(EAxiom("KA"), EApp(EAxiom("KB"), EVar("al")))),
    ]
    for e in terms:
        got = whnf(e, fuel=10_000)
        assert got is not None


# ---------------------------------------------------------------------------
# small-step evidence reduction


def test_ev_step_unfolds_the_applied_fixpoint():
    e = hptree_evidence()
    state = EApp(e, MAtom(eq(x)))
    got = ev_step(state)
    assert got == EApp(subst_evidence(e.body, e.binder, e), MAtom(eq(x)))


def test_ev_step_constant_headed_state_is_normal():
    assert ev_step(EApp(EAxiom("K"), MAtom(eq(x)))) is None


def test_ev_step_beta_with_atom_argument():
    got = ev_step(EApp(ELam("a", EVar("a")), MAtom(eq(Int))))
    assert got == MAtom(eq(Int))


def test_ev_step_contracts_an_outermost_redex():
    # no enclosing node of the contracted redex is itself a redex
    state = EApp(hptree_evidence(), MAtom(eq(x)))
    for _ in range(30):
        found = _find_redex(state)
        if found is None:
            break
        path, _ = found
        for cut in range(len(path)):
            node = subterm_at(state, path[:cut])
            assert not isinstance(node, EMu)
            assert not (isinstance(node, EApp) and isinstance(node.fun, ELam))
        state = ev_step(state)


# ---------------------------------------------------------------------------
# simple loops


def test_detect_simple_loop_hptree(phi_hptree):
    loop = hptree_loop(phi_hptree)
    assert loop is not None
    assert loop.sigma == {"x": pair(x, x)}
    assert loop.hypotheses == (eq(x),)
    assert loop.hypothesis_evidence_contexts[eq(x)] == mk_eapp(
        EAxiom("KPair"), Hole(), Hole()
    )


def test_detect_simple_loop_ab(phi_ab):
    loop = detect_simple_loop(phi_ab, Atom("A", (x,)))
    assert loop is not None
    assert loop.sigma == {}
    assert loop.hypotheses == ()
    assert loop.loop_state == EApp(
        EAxiom("KA"), EApp(EAxiom("KB"), MAtom(Atom("A", (x,))))
    )


def test_detect_simple_loop_absent_on_terminating_goal(phi_pair):
    assert detect_simple_loop(phi_pair, eq(pair(Int, Int))) is None


def test_detect_simple_loop_absent_without_looping(phi_q):
    # divergence that never revisits an instance of the goal
    goal = Atom("Q", (App(Const("S"), Const("Z")),))
    assert detect_simple_loop(phi_q, goal, fuel=300) is None


# ---------------------------------------------------------------------------
# observational and corecursive points


def obs_context_m1():
    return EApp(EAxiom("KMu"), mk_eapp(EAxiom("KHPTree"), MAtom(eq(x)), Hole()))


def obs_context_m2():
    inner = EApp(
        EAxiom("KMu"),
        mk_eapp(
            EAxiom("KHPTree"),
            mk_eapp(EAxiom("KPair"), MAtom(eq(x)), MAtom(eq(x))),
            Hole(),
        ),
    )
    return EApp(EAxiom("KMu"), mk_eapp(EAxiom("KHPTree"), MAtom(eq(x)), inner))


def test_observational_points_hptree(phi_hptree):
    loop = hptree_loop(phi_hptree)
    got = observational_points(loop, 2)
    assert [r.index for r in got] == [1, 2]
    assert got[0].context == obs_context_m1()
    assert got[1].context == obs_context_m2()


def test_observational_points_ab(phi_ab):
    loop = detect_simple_loop(phi_ab, Atom("A", (x,)))
    got = observational_points(loop, 1)
    assert got[0].context == EApp(EAxiom("KA"), EApp(EAxiom("KB"), Hole()))


def test_corecursive_points_hptree(phi_hptree):
    loop = hptree_loop(phi_hptree)
    got = corecursive_points(hptree_evidence(), loop.hypotheses, 2)
    assert got[0].context == obs_context_m1()
    assert got[1].context == obs_context_m2()
    assert got[0].redex_args == (mk_eapp(EAxiom("KPair"), MAtom(eq(x)), MAtom(eq(x))),)


def test_corecursive_points_zero_is_empty():
    assert corecursive_points(hptree_evidence(), (eq(x),), 0) == []


def test_corecursive_points_ab(phi_ab):
    e = EMu("al", EApp(EAxiom("KA"), EApp(EAxiom("KB"), EVar("al"))))
    got = corecursive_points(e, (), 1)
    assert got[0].context == EApp(EAxiom("KA"), EApp(EAxiom("KB"), Hole()))


def test_iterate_context():
    c = mk_eapp(EAxiom("KPair"), Hole(), Hole())
    d = eq(x)
    once = iterate_context(c, d, 1)
    assert once == mk_eapp(EAxiom("KPair"), MAtom(d), MAtom(d))
    assert iterate_context(c, d, 2) == mk_eapp(EAxiom("KPair"), once, once)


# ---------------------------------------------------------------------------
# observational equivalence


def test_check_obs_equiv_hptree(phi_hptree):
    loop = hptree_loop(phi_hptree)
    ok, why = check_obs_equiv(phi_hptree, loop, hptree_evidence(), 3)
    assert ok, why


def test_check_obs_equiv_rejects_n_below_one(phi_hptree):
    # n < 1 compares nothing, so it must not read as "equivalent"
    loop = hptree_loop(phi_hptree)
    assert check_obs_equiv(phi_hptree, loop, hptree_evidence(), 1) == (True, None)
    for n in (0, -2):
        with pytest.raises(ValueError):
            check_obs_equiv(phi_hptree, loop, hptree_evidence(), n)


def test_check_obs_equiv_rejects_wrong_evidence(phi_hptree):
    loop = hptree_loop(phi_hptree)
    al, a1 = EVar("al"), EVar("a1")
    wrong = EMu(
        "al",
        ELam("a1", EApp(EAxiom("KMu"), mk_eapp(EAxiom("KHPTree"), a1, EApp(al, a1)))),
    )
    ok, why = check_obs_equiv(phi_hptree, loop, wrong, 5)
    assert not ok
    assert "m=1" in why


def test_loop_formula_proofs_are_observationally_equivalent(phi_hptree, phi_ab, phi_evenodd):
    cases = [
        (phi_hptree, eq(mk_app(Mu, HPTree, x))),
        (phi_ab, Atom("A", (x,))),
        (phi_evenodd, eq(App(Const("OddList"), Int))),
    ]
    for env, goal in cases:
        loop = detect_simple_loop(env, goal)
        assert loop is not None
        ev = prove_horn(env, HornFormula(loop.hypotheses, goal))
        assert isinstance(ev, EMu)
        ok, why = check_obs_equiv(env, loop, ev, 5)
        assert ok, why
        ok, _ = type_check(env, ev, HornFormula(loop.hypotheses, goal))
        assert ok
