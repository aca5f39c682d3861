import contextlib
import importlib
import io
import random
from collections import Counter

import pytest

from cohorn import cli
from cohorn.corec import prove_horn
from cohorn.evidence import (
    EvReducer,
    check_obs_equiv,
    corecursive_points,
    detect_simple_loop,
    hnf,
    iterate_context,
    observational_points,
    type_check,
    whnf,
)
from cohorn.resolve import (
    AxiomEnv,
    FuelExhausted,
    GuardViolation,
    Stuck,
    axiom,
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
    Eigen,
    Hole,
    HornFormula,
    MAtom,
    Var,
    apply,
    fact,
    free_evars,
    free_vars,
    mk_app,
    match,
    mk_eapp,
    pair,
    render_atom,
    render_evidence,
    render_horn,
    spine_evidence,
    subst_evidence,
)
from conftest import (
    SHARING_CLAUSES,
    SHARING_COHYPOTHESES,
    best_time,
    eq,
    ev_step,
    parse_horn,
    random_sharing_corec,
    random_sharing_env,
    random_sharing_term,
)
from test_machine import replace_at, subterm_at

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


def ref_type_check(env, e, f):
    """The recursive type checker the work-stack one replaced."""
    log = []
    counter = [0]

    def fail(msg):
        log.append(f"FAIL: {msg}")
        return False

    def check(scope, e, f):
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
            gamma = {}
            for v in fvs:
                counter[0] += 1
                gamma[v] = Eigen(f"{v}#{counter[0]}")
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

    return check({}, e, f), log


def positions(e):
    """Every path into e, in the child indices of `subterm_at`."""
    out, stack = [], [(e, ())]
    while stack:
        node, path = stack.pop()
        out.append(path)
        if isinstance(node, EApp):
            stack += ((node.fun, path + (0,)), (node.arg, path + (1,)))
        elif isinstance(node, (ELam, EMu)):
            stack.append((node.body, path + (0,)))
    return out


def proofs(rng):
    """(env, evidence, formula) triples that type-check: resolved ground
    sharing goals, with and without assumptions in scope, and the proofs
    of the sharing cohypotheses as lemmas, with their binders and fixed
    points."""
    env = random_sharing_env(rng)
    work = random_sharing_corec(rng, env)
    out = []
    for c in SHARING_COHYPOTHESES:
        try:
            out.append((env, prove_horn(env, parse_horn(c)), parse_horn(c)))
        except (FuelExhausted, GuardViolation, Stuck):
            pass
    for e in (env, work):
        goal = Atom("Eq", (random_sharing_term(rng, rng.randint(0, 5)),))
        try:
            out.append((e, resolve(e, goal, 400), fact(goal)))
        except (FuelExhausted, GuardViolation, Stuck):
            pass
    return out


def mutated(rng, env, ev, formula):
    """ev with one subterm replaced, renamed, cut, extended or wrapped,
    or checked against another formula."""
    paths = positions(ev)
    at = rng.choice(paths)
    node = subterm_at(ev, at)
    roll = rng.random()
    if roll < 0.25:
        new = subterm_at(ev, rng.choice(paths))
    elif roll < 0.45:
        names = [e.name for e in env] + ["KNope", "b0", "r"]
        new = rng.choice([EAxiom, EVar])(rng.choice(names))
    elif roll < 0.6:
        new = node.fun if isinstance(node, EApp) else ELam("b0", node)
    elif roll < 0.7:
        new = EApp(node, EAxiom(rng.choice([e.name for e in env])))
    elif roll < 0.85:
        new = EMu("m", node)
    else:
        goal = Atom("Eq", (random_sharing_term(rng, rng.randint(0, 3)),))
        return ev, rng.choice([fact(goal), HornFormula((goal,), formula.head)])
    return replace_at(ev, at, new), formula


# a library-built clause whose body variable z is missing from its head,
# which the parser would reject, and a clause that proves its body atom
Wrap, z = Const("Wrap"), Var("z")
WRAP = HornFormula((eq(x), Atom("Q", (z,))), eq(App(Wrap, x)))


def wrapped_proofs(rng):
    """(env, evidence, formula) triples that type-check, built in layers
    around a resolved ground proof or a hypothesis `b0 : Eq a`: `KW p KQ`
    through `WRAP`, a fixed point `mu m . KLoop p m` whose binder is
    applied inside it, a list or a pair.  The fixed points of ground goals
    meet the checker inside the bodies of other clauses."""
    base = list(random_sharing_env(rng))
    env = AxiomEnv([*base, axiom("KQ", parse_horn("Q w")), axiom("KW", WRAP)])
    name = {e.formula: e.name for e in base}
    loop = name.get(parse_horn("(Eq a, Eq (Loop a)) => Eq (Loop a)"))
    lst = name.get(parse_horn("Eq a => Eq (List a)"))
    pair_rule = name[parse_horn("(Eq x, Eq y) => Eq (x, y)")]
    out = []
    for _ in range(4):
        if rng.random() < 0.3:
            t, p = Var("a"), EVar("b0")
        else:
            t = random_sharing_term(rng, rng.randint(0, 3))
            try:
                p = resolve(env, eq(t), 400)
            except (FuelExhausted, GuardViolation, Stuck):
                continue
        for k in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.35:
                t, p = App(Wrap, t), mk_eapp(EAxiom("KW"), p, EAxiom("KQ"))
            elif roll < 0.7 and loop:
                t, p = App(Const("Loop"), t), EMu(f"m{k}", mk_eapp(EAxiom(loop), p, EVar(f"m{k}")))
            elif roll < 0.85 and lst:
                t, p = App(Const("List"), t), EApp(EAxiom(lst), p)
            else:
                t, p = pair(t, t), mk_eapp(EAxiom(pair_rule), p, p)
        if free_vars(t):  # over the hypothesis
            out.append((env, ELam("b0", p), HornFormula((eq(Var("a")),), eq(t))))
        else:
            out.append((env, p, fact(eq(t))))
    return out


def kinds_of(ev) -> set[str]:
    """"unscoped" when ev applies `KW`, "mu" when the binder of a `mu` in
    ev occurs in its body."""
    nodes = [subterm_at(ev, p) for p in positions(ev)]
    return {"unscoped" for n in nodes if n == EAxiom("KW")} | {
        "mu" for n in nodes if isinstance(n, EMu) and n.binder in free_evars(n.body)
    }


# a phrase of each rule's failure line
RULES = ("mu rule", "does not bind", "not an assumption", "not in scope", "does not match", "arguments but")


def test_type_check_agrees_with_the_recursive_checker():
    rng = random.Random(29)
    failures = dict.fromkeys(RULES, 0)
    checked = 0
    kinds = Counter()
    for _ in range(60):
        for env, ev, formula in proofs(rng) + wrapped_proofs(rng):
            assert type_check(env, ev, formula) == (True, []), ev
            assert ref_type_check(env, ev, formula) == (True, [])
            kinds.update(kinds_of(ev))
            checked += 1
            for _ in range(12):
                bad, f = mutated(rng, env, ev, formula)
                got = type_check(env, bad, f)
                assert got == ref_type_check(env, bad, f), (bad, f)
                for rule in RULES:
                    failures[rule] += not got[0] and rule in got[1][0]
    assert checked >= 150, checked
    assert min(failures.values()) >= 5, failures
    # the generalization path: unscoped library clauses and `mu` binders
    assert kinds["unscoped"] >= 40 and kinds["mu"] >= 40, kinds


def test_entry_scoped_is_the_parsers_scope_rule():
    assert all(axiom("K", parse_horn(c)).scoped for c in SHARING_CLAUSES + SHARING_COHYPOTHESES)
    assert not axiom("KW", WRAP).scoped
    assert not axiom("K", HornFormula((eq(x), eq(z)), eq(pair(x, x)))).scoped


def test_type_check_scans_no_ground_body_atom(monkeypatch):
    """Work count: checking the proof of `Eq (S^n Z)` calls `free_vars` as
    often at n = 4,000 as at n = 1,000, since a scoped clause matched at a
    ground goal has a ground body.  Scanning every node's body atom made
    n + 1 calls."""
    calls = [0]

    def counting_free_vars(x):
        calls[0] += 1
        return free_vars(x)

    monkeypatch.setattr(importlib.import_module("cohorn.evidence"), "free_vars", counting_free_vars)
    S, Z = Const("S"), Const("Z")

    def count(n):
        env = AxiomEnv([axiom("K0", parse_horn("Eq Z")), axiom("K1", parse_horn("Eq x => Eq (S x)"))])
        t, ev = Z, EAxiom("K0")
        for _ in range(n):
            t, ev = App(S, t), EApp(EAxiom("K1"), ev)
        calls[0] = 0
        assert type_check(env, ev, fact(eq(t))) == (True, [])
        return calls[0]

    # the root formula's scan alone
    assert (count(1000), count(4000)) == (1, 1)


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
        r = EvReducer(state)
        if r.redex() is None:
            break
        path = r.position()
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


def test_simple_loop_search_matches_a_ground_goal_only_against_itself(monkeypatch):
    # E (S^n Z) steps down to E Z and back to itself: every state between
    # has one reducible atom, which a ground goal rejects on its hash
    evidence_module = importlib.import_module("cohorn.evidence")
    calls = [0]

    def counted(pattern, subject):
        calls[0] += 1
        return match(pattern, subject)

    monkeypatch.setattr(evidence_module, "match", counted)
    S, Z, y = Const("S"), Const("Z"), Var("y")
    e = lambda t: Atom("E", (t,))
    n = 500
    deep = Z
    for _ in range(n):
        deep = App(S, deep)
    env = AxiomEnv(
        [
            axiom("KS", HornFormula((e(x),), e(App(S, x)))),
            axiom("KZ", HornFormula((e(deep),), e(Z))),
        ]
    )
    loop = detect_simple_loop(env, e(deep))
    assert (loop.sigma, loop.hypotheses, calls[0]) == ({}, (), 1)
    calls[0] = 0
    assert [r.index for r in observational_points(loop, 3)] == [1, 2, 3]
    assert calls[0] == 3  # one per point; the other 3n states fail on the hash
    # a goal with variables is matched against the redex of every state
    open_goal = y
    for _ in range(n):
        open_goal = App(S, open_goal)
    calls[0] = 0
    assert detect_simple_loop(env, e(open_goal)) is None
    assert calls[0] == n - 1


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


def test_check_cost_is_near_linear_in_goal_depth(tmp_path):
    # type_check asks free_vars of every goal on the chain's spine; each
    # term caches its groundness, so that no longer walks the whole suffix
    def check(n):
        path = tmp_path / f"chain{n}.asl"
        goal = "(S " * n + "Z" + ")" * n
        clauses = "axiom Eq Z\naxiom Eq x => Eq (S x)"
        path.write_text(f"module c where\n{clauses}\nauto Eq {goal}\n")

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(["check", str(path)])

        return run

    small, large = check(300), check(3000)
    assert large() == 0
    assert best_time(large) < 20 * best_time(small)  # linear is about 10x
