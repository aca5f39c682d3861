"""Acceptance suite: one test per criterion, each printing a PASS line on
success (run with `pytest -s tests/test_acceptance.py` to see them).  All
tolerances are exact."""

import random
import re
import time

from cohorn.cli import RunConfig, Session, run
from cohorn.corec import DIRECTLY_PROVEN, PROVEN, auto, prove_horn, wf_check
from cohorn.evidence import check_obs_equiv, detect_simple_loop, type_check, whnf
from cohorn.parser import parse_module
from cohorn.resolve import EntryKind, resolve, trace
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
    anti_unify,
    fact,
    match,
    mk_app,
    mk_eapp,
    pair,
)
from conftest import alpha_equal, eq, random_atom, random_terminating_case

Int, Unit, Mu = Const("Int"), Const("Unit"), Const("Mu")
x = Var("x")


def passline(n: int, text: str):
    print(f"ACCEPTANCE {n}: PASS -- {text}")


def canon(e):
    """Rename lemma constants modulo their numeric suffix."""
    if isinstance(e, EAxiom):
        return EAxiom(re.sub(r"(genLemm|goalLem)\d+", r"\1#", e.name))
    if isinstance(e, EApp):
        return EApp(canon(e.fun), canon(e.arg))
    if isinstance(e, (ELam, EMu)):
        return type(e)(e.binder, canon(e.body))
    return e


def test_criterion_1_pair_baseline(phi_pair):
    goal = eq(pair(Int, Int))
    got = resolve(phi_pair, goal)
    assert got == mk_eapp(EAxiom("KPair"), EAxiom("KInt"), EAxiom("KInt"))
    states = trace(phi_pair, goal)
    assert len(states) - 1 == 3
    assert states[-1] == got
    passline(1, "Pair goal resolves to KPair KInt KInt in exactly 3 small steps")


def test_criterion_2_hptree_pipeline(phi_hptree):
    goal = fact(eq(mk_app(Mu, Const("HPTree"), Int)))
    report = auto(phi_hptree, goal)
    assert report.outcome == PROVEN
    (lem,) = report.lemmas
    v = lem.formula.head.args[0].arg
    assert isinstance(v, Var)
    assert lem.formula == HornFormula((eq(v),), eq(mk_app(Mu, Const("HPTree"), v)))
    a1, al = EVar("a1"), EVar("al")
    expected = EMu(
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
    assert alpha_equal(lem.evidence, expected)
    assert alpha_equal(report.evidence, EApp(EAxiom(lem.name), EAxiom("KInt")))
    passline(2, "auto derives Eq v => Eq (Mu HPTree v) and closes the goal with it")


def test_criterion_3_reference_corpus(corpus):
    # bush: the generated lemma body is \ b0 . Ax0 (Ax1 b0 (L (L b0)))
    session = _session(corpus / "bush.asl")
    assert not session.failed
    (gen,) = [e for e in session.env if e.name.startswith("genLemm")]
    from cohorn.syntax import subst_evidence

    L, b0 = EAxiom(gen.name), EVar("b0")
    body = subst_evidence(gen.evidence.body, gen.evidence.binder, L)
    expected_body = ELam(
        "b0",
        EApp(EAxiom("Ax0"), mk_eapp(EAxiom("Ax1"), b0, EApp(L, EApp(L, b0)))),
    )
    assert alpha_equal(body, expected_body)
    (goal,) = session.goals
    assert canon(goal.report.evidence) == EApp(EAxiom("genLemm#"), EAxiom("Ax2"))

    # lam: both variants prove the goal with (lemma) Ax2
    for name in ("lam_lemma.asl", "lam_auto.asl"):
        code, out, _ = run(RunConfig(path=str(corpus / name)))
        assert code == 0, name
        s = _session(corpus / name)
        assert canon(s.goals[-1].report.evidence) in (
            EApp(EAxiom("genLemm#"), EAxiom("Ax2")),
            EApp(EAxiom("goalLem#"), EAxiom("Ax2")),
        )

    # mutual: the lemma variant proves all three, auto fails finitely
    code, out, _ = run(RunConfig(path=str(corpus / "mutual_lemma.asl")))
    assert code == 0
    assert out.count("goalLem") >= 6
    start = time.perf_counter()
    code, out, _ = run(RunConfig(path=str(corpus / "mutual_auto.asl")))
    elapsed = time.perf_counter() - start
    assert code == 1 and elapsed < 10.0

    # dz: the generated candidate is reported unprovable
    code, out, _ = run(RunConfig(path=str(corpus / "dz.asl"), json=True))
    assert code == 1
    assert '"outcome": "LemmaUnprovable"' in out
    passline(3, "bush/lam/mutual/dz reproduce the reference behaviors")


def test_criterion_4_cycle_subsumption(phi_ab, phi_evenodd):
    report = auto(phi_ab, fact(Atom("A", (x,))))
    assert report.outcome == DIRECTLY_PROVEN
    assert alpha_equal(
        report.evidence, EMu("al", EApp(EAxiom("KA"), EApp(EAxiom("KB"), EVar("al"))))
    )
    report = auto(phi_evenodd, fact(eq(App(Const("OddList"), Int))))
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
    passline(4, "cycles fall out of the generic pipeline with mu evidence")


def test_criterion_5_q_lemma(phi_q):
    q = lambda t: Atom("Q", (t,))
    S, G, Z = Const("S"), Const("G"), Const("Z")
    formula = HornFormula((q(x),), q(App(S, x)))
    ev = prove_horn(phi_q, formula)
    expected = EMu(
        "al",
        ELam(
            "a1",
            mk_eapp(
                EAxiom("KS"), EApp(EVar("al"), EApp(EAxiom("KG"), EVar("a1"))), EVar("a1")
            ),
        ),
    )
    assert alpha_equal(ev, expected)
    from cohorn.resolve import lemma

    env = phi_q.extended(lemma("lem", formula, ev))
    assert resolve(env, q(App(S, Z))) == EApp(EAxiom("lem"), EAxiom("KZ"))
    passline(5, "Q lemma proven corecursively and used to close Q (S Z)")


def test_criterion_6_big_and_small_step_coincide():
    rng = random.Random(2024)
    checked = 0
    for _ in range(220):
        env, goal = random_terminating_case(rng)
        ev = resolve(env, goal)
        states = trace(env, goal)
        # direction 1: big-step evidence is the final small-step state
        assert states[-1] == ev
        # direction 2: the trace ended in pure evidence and resolve agrees
        from cohorn.resolve import iter_atoms

        assert list(iter_atoms(states[-1])) == []
        checked += 1
    assert checked >= 200
    passline(6, f"big-step and small-step coincide on {checked} random cases")


def test_criterion_7_soundness_and_normalization(corpus):
    checked = 0
    for name in CORPUS_FILES:
        session = _session(corpus / name)
        ok, failures = wf_check(session.env)
        assert ok, (name, failures)
        for i, entry in enumerate(session.env):
            if entry.kind is EntryKind.LEMMA:
                whnf(entry.evidence, fuel=10_000)
                checked += 1
        for goal in session.goals:
            if goal.report.evidence is not None and goal.proof_env is not None:
                ok, log = type_check(
                    goal.proof_env, goal.report.evidence, goal.decl.formula
                )
                assert ok, (name, log)
                whnf(goal.report.evidence, fuel=10_000)
                checked += 1
    assert checked >= 10
    passline(7, f"{checked} produced evidence terms type-check and head-normalize")


def test_criterion_8_observational_equivalence(phi_hptree, phi_ab):
    loop = detect_simple_loop(phi_hptree, eq(mk_app(Mu, Const("HPTree"), x)))
    ev = prove_horn(phi_hptree, HornFormula(loop.hypotheses, loop.goal))
    ok, why = check_obs_equiv(phi_hptree, loop, ev, 5)
    assert ok, why
    ab_loop = detect_simple_loop(phi_ab, Atom("A", (x,)))
    ab_ev = prove_horn(phi_ab, fact(Atom("A", (x,))))
    ok, why = check_obs_equiv(phi_ab, ab_loop, ab_ev, 5)
    assert ok, why
    a1, al = EVar("a1"), EVar("al")
    mutated = EMu(
        "al",
        ELam("a1", EApp(EAxiom("KMu"), mk_eapp(EAxiom("KHPTree"), a1, EApp(al, a1)))),
    )
    ok, why = check_obs_equiv(phi_hptree, loop, mutated, 5)
    assert not ok
    assert "m=1" in why
    passline(8, "resolution and evidence reduction coincide for n=5; mutation fails at m=1")


def test_criterion_9_anti_unification_laws():
    rng = random.Random(99)
    for _ in range(500):
        a = random_atom(rng, 2, [])
        b = random_atom(rng, 2, [])
        g = anti_unify(a, b)
        assert anti_unify(a, a) == a
        assert match(g, a) is not None
        assert match(g, b) is not None
        # phi-injectivity: duplicating the argument pair reuses the variable
        a2 = Atom("P", (a.args[0], a.args[0]))
        b2 = Atom("P", (b.args[0], b.args[0]))
        g2 = anti_unify(a2, b2)
        assert g2.args[0] == g2.args[1]
        if a.args[0] != b.args[0]:
            a3 = Atom("P", (a.args[0], b.args[0]))
            b3 = Atom("P", (b.args[0], a.args[0]))
            g3 = anti_unify(a3, b3)
            if isinstance(g3.args[0], Var) and isinstance(g3.args[1], Var):
                assert g3.args[0] != g3.args[1]
    passline(9, "idempotence, generality and phi-injectivity hold on 500 cases")


def test_criterion_10_totality_watchdog(corpus):
    for name in CORPUS_FILES:
        start = time.perf_counter()
        code, out, _ = run(RunConfig(path=str(corpus / name), fuel=20))
        elapsed = time.perf_counter() - start
        assert code in (0, 1, 2), name
        assert out.startswith("Parsing success!"), name
        assert elapsed < 1.0, (name, elapsed)
    passline(10, f"all {len(CORPUS_FILES)} corpus files finish definitely at fuel 20")


CORPUS_FILES = [
    "ab.asl",
    "bush.asl",
    "dz.asl",
    "evenodd.asl",
    "hptree.asl",
    "lam_auto.asl",
    "lam_lemma.asl",
    "mutual_auto.asl",
    "mutual_lemma.asl",
    "pair.asl",
    "q.asl",
]


def _session(path) -> Session:
    with open(path, encoding="utf-8") as f:
        module = parse_module(f.read())
    from cohorn.corec import ProofConfig

    session = Session(module, ProofConfig())
    session.load_checks()
    session.process()
    return session
