"""Shared environments (the running examples of the domain) and random
generators used by the property suites."""

import pathlib
import random
import subprocess
import sys
import time
from itertools import islice

import pytest

from cohorn.evidence import EvReducer
from cohorn.parser import parse_module
from cohorn.resolve import AxiomEnv, axiom, cohypothesis, hypothesis, small_steps
from cohorn.syntax import (
    App,
    Atom,
    Const,
    EApp,
    EAxiom,
    ELam,
    EMu,
    Eigen,
    EVar,
    Hole,
    HornFormula,
    MAtom,
    Term,
    Var,
    apply,
    fact,
    free_vars,
    mk_app,
    pair,
)

CORPUS = pathlib.Path(__file__).parent / "corpus"


def eq(t: Term) -> Atom:
    return Atom("Eq", (t,))


x, y, a, f, h = Var("x"), Var("y"), Var("a"), Var("f"), Var("h")
Int, Unit = Const("Int"), Const("Unit")
Mu = Const("Mu")


@pytest.fixture
def corpus():
    return CORPUS


@pytest.fixture
def phi_pair() -> AxiomEnv:
    return AxiomEnv(
        [
            axiom("KInt", fact(eq(Int))),
            axiom("KPair", HornFormula((eq(x), eq(y)), eq(pair(x, y)))),
        ]
    )


@pytest.fixture
def phi_hptree(phi_pair) -> AxiomEnv:
    hptree = Const("HPTree")
    return phi_pair.extended(
        axiom("KMu", HornFormula((eq(mk_app(h, App(Mu, h), a)),), eq(mk_app(Mu, h, a)))),
        axiom(
            "KHPTree",
            HornFormula((eq(a), eq(App(f, pair(a, a)))), eq(mk_app(hptree, f, a))),
        ),
    )


@pytest.fixture
def phi_hbush() -> AxiomEnv:
    hbush = Const("HBush")
    return AxiomEnv(
        [
            axiom("KMu", HornFormula((eq(mk_app(f, App(Mu, f), a)),), eq(mk_app(Mu, f, a)))),
            axiom(
                "KHBush",
                HornFormula((eq(a), eq(App(f, App(f, a)))), eq(mk_app(hbush, f, a))),
            ),
            axiom("KUnit", fact(eq(Unit))),
        ]
    )


@pytest.fixture
def phi_ab() -> AxiomEnv:
    return AxiomEnv(
        [
            axiom("KA", HornFormula((Atom("B", (x,)),), Atom("A", (x,)))),
            axiom("KB", HornFormula((Atom("A", (x,)),), Atom("B", (x,)))),
        ]
    )


@pytest.fixture
def phi_evenodd() -> AxiomEnv:
    odd = lambda t: eq(App(Const("OddList"), t))
    even = lambda t: eq(App(Const("EvenList"), t))
    return AxiomEnv(
        [
            axiom("KInt", fact(eq(Int))),
            axiom("KOdd", HornFormula((eq(a), even(a)), odd(a))),
            axiom("KEven", HornFormula((eq(a), odd(a)), even(a))),
        ]
    )


@pytest.fixture
def phi_q() -> AxiomEnv:
    q = lambda t: Atom("Q", (t,))
    S, G, Z = Const("S"), Const("G"), Const("Z")
    return AxiomEnv(
        [
            axiom("KS", HornFormula((q(App(S, App(G, x))), q(x)), q(App(S, x)))),
            axiom("KG", HornFormula((q(x),), q(App(G, x)))),
            axiom("KZ", fact(q(Z))),
        ]
    )


@pytest.fixture
def phi_d() -> AxiomEnv:
    d = lambda t, u: Atom("D", (t, u))
    S, Z = Const("S"), Const("Z")
    n, m = Var("n"), Var("m")
    return AxiomEnv(
        [
            axiom("K1", HornFormula((d(n, App(S, m)),), d(App(S, n), m))),
            axiom("K2", HornFormula((d(App(S, m), Z),), d(Z, m))),
        ]
    )


def run_at_the_default_limit(code: str) -> str:
    """stdout of `code` run in a fresh child interpreter at the default
    recursion limit (checked first), so that no limit this process has set
    can hide a deep recursion."""
    out = subprocess.run(
        [sys.executable, "-c", "import sys\nassert sys.getrecursionlimit() <= 1000\n" + code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(CORPUS.parent.parent / "src")},
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def alpha_equal(e1, e2) -> bool:
    """Equality up to consistent renaming of lambda and mu binders."""

    def go(a, b, m1: dict, m2: dict, depth: int) -> bool:
        if type(a) is not type(b):
            return False
        if isinstance(a, EVar):
            return m1.get(a.name, a.name) == m2.get(b.name, b.name)
        if isinstance(a, EAxiom):
            return a.name == b.name
        if isinstance(a, (MAtom,)):
            return a == b
        if isinstance(a, Hole):
            return True
        if isinstance(a, EApp):
            return go(a.fun, b.fun, m1, m2, depth) and go(a.arg, b.arg, m1, m2, depth)
        # binder: map both to the same canonical level marker
        n1 = dict(m1)
        n2 = dict(m2)
        n1[a.binder] = depth
        n2[b.binder] = depth
        return go(a.body, b.body, n1, n2, depth + 1)

    return go(e1, e2, {}, {}, 0)


def ev_step(state):
    """Contract the leftmost outermost mu- or beta-redex, or None when the
    term has no redex."""
    r = EvReducer(state)
    if r.redex() is None:
        return None
    r.contract()
    return r.state()


def first_step(env: AxiomEnv, state):
    """The state one small step after `state`, or None at a normal form:
    the second state of `small_steps`."""
    return next(islice(small_steps(env, state), 1, None), None)


def best_time(fn, repeats=3):
    """The shortest wall time of `repeats` calls of fn."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# Random generators


def random_terminating_case(rng: random.Random) -> tuple[AxiomEnv, Atom]:
    """A non-overlapping, structurally terminating environment (one clause
    per constructor, bodies on strict subterms) plus a ground goal.  Every
    goal over the constructors resolves successfully."""
    n_ctors = rng.randint(2, 4)
    ctors = [("F0", 0)]
    for i in range(1, n_ctors):
        ctors.append((f"F{i}", rng.randint(0, 2)))
    entries = []
    for i, (name, arity) in enumerate(ctors):
        args = [Var(f"x{j}") for j in range(arity)]
        head = Atom("P", (mk_app(Const(name), *args),))
        body = tuple(Atom("P", (v,)) for v in args)
        entries.append(axiom(f"K{i}", HornFormula(body, head)))

    def term(depth: int) -> Term:
        name, arity = rng.choice(ctors if depth > 0 else [ctors[0]])
        return mk_app(Const(name), *(term(depth - 1) for _ in range(arity)))

    return AxiomEnv(entries), Atom("P", (term(rng.randint(0, 4)),))


def random_term(rng: random.Random, depth: int, vars_: list[str]) -> Term:
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if vars_ and roll < 0.15:
            return Var(rng.choice(vars_))
        return Const(rng.choice(["Int", "Unit", "List", "Tree"]))
    head: Term = Const(rng.choice(["F", "G", "Pair"]))
    for _ in range(rng.randint(1, 2)):
        head = App(head, random_term(rng, depth - 1, vars_))
    return head


def random_atom(rng: random.Random, arity: int, vars_: list[str]) -> Atom:
    return Atom("P", tuple(random_term(rng, 3, vars_) for _ in range(arity)))


# Clause-index shapes: P has arity 2, Q arity 1 and R is nullary.
INDEX_ARITY = {"P": 2, "Q": 1, "R": 0}
EIGEN = Eigen("e#1")


def random_index_term(rng: random.Random, vars_: list[str]) -> Term:
    """A first argument of any index shape: constructor-headed, a variable,
    a variable spine head as in `f (Mu f) a`, or headed by an Eigen
    constant."""
    roll = rng.random()
    if roll < 0.15 and vars_:
        return Var(rng.choice(vars_))
    if roll < 0.3:
        return mk_app(Var("f"), App(Mu, Var("f")), Var("a"))
    if roll < 0.4:
        return EIGEN if rng.random() < 0.5 else App(EIGEN, random_term(rng, 1, vars_))
    return random_term(rng, 3, vars_)


def random_index_head(rng: random.Random, vars_: list[str]) -> Atom:
    pred = rng.choice(sorted(INDEX_ARITY))
    if not INDEX_ARITY[pred]:
        return Atom(pred)
    rest = (random_term(rng, 2, vars_) for _ in range(INDEX_ARITY[pred] - 1))
    return Atom(pred, (random_index_term(rng, vars_), *rest))


def random_index_goal(rng: random.Random, heads: list[Atom]) -> Atom:
    """An instance of one of the heads, with variables bound to ground
    terms, Eigen constants or opaque subject variables, or else a fresh
    random head."""
    if not heads or rng.random() < 0.3:
        return random_index_head(rng, ["z"])
    head = rng.choice(heads)
    sub = {}
    for v in free_vars(head):
        roll = rng.random()
        sub[v] = (
            Var("z") if roll < 0.2
            else EIGEN if roll < 0.3
            else Const("Mu") if v == "f" and roll < 0.6
            else random_term(rng, 2, [])
        )
    return apply(sub, head)


# Looping programs: unary predicates P and Q over the `random_term`
# constructors, with bodies that repeat the head's argument (exact cycles
# through the predicates), strip it to a variable, or grow it under F.
LOOP_PREDS = ("P", "Q")
LOOP_CTORS = (("F", 1), ("G", 1), ("Pair", 2), ("Int", 0), ("Unit", 0))


def random_loop_body(rng: random.Random, head: Atom) -> tuple[Atom, ...]:
    """Zero to two body atoms over the head's variables only."""
    hv = free_vars(head)
    body = []
    for _ in range(rng.choice((0, 1, 1, 2))):
        roll = rng.random()
        if roll < 0.3:
            t = head.args[0]
        elif roll < 0.55 and hv:
            t = Var(rng.choice(hv))
        elif roll < 0.8 and hv:
            t = App(Const("F"), Var(rng.choice(hv)))
        else:
            t = random_term(rng, 1, hv)
        body.append(Atom(rng.choice(LOOP_PREDS), (t,)))
    return tuple(body)


def random_loop_clause(rng: random.Random) -> HornFormula:
    """A clause whose head may overlap others: any `random_term` pattern,
    variables included."""
    head = Atom(rng.choice(LOOP_PREDS), (random_term(rng, 2, ["x", "y"]),))
    return HornFormula(random_loop_body(rng, head), head)


def random_looping_env(rng: random.Random, overlapping: bool) -> AxiomEnv:
    """Two to six random looping clauses, whose heads may overlap; or,
    without `overlapping`, four to nine whose heads are distinct
    constructors applied to distinct variables, so no two match one goal."""
    if overlapping:
        formulas = [random_loop_clause(rng) for _ in range(rng.randint(2, 6))]
    else:
        shapes = [(p, c) for p in LOOP_PREDS for c in LOOP_CTORS]
        formulas = []
        for pred, (ctor, arity) in rng.sample(shapes, rng.randint(4, 9)):
            arg = mk_app(Const(ctor), *(Var(v) for v in ("x", "y")[:arity]))
            head = Atom(pred, (arg,))
            formulas.append(HornFormula(random_loop_body(rng, head), head))
    return AxiomEnv([axiom(f"K{i}", f) for i, f in enumerate(formulas)])


def random_loop_term(rng: random.Random, depth: int) -> Term:
    """A ground term over the looping programs' constructors."""
    ctors = LOOP_CTORS if depth > 0 else [c for c in LOOP_CTORS if not c[1]]
    name, arity = rng.choice(ctors)
    return mk_app(Const(name), *(random_loop_term(rng, depth - 1) for _ in range(arity)))


def random_loop_goal(rng: random.Random, env: AxiomEnv) -> Atom:
    """A ground instance of a clause head, or a ground random atom."""
    if rng.random() < 0.3:
        return Atom(rng.choice(LOOP_PREDS), (random_loop_term(rng, 3),))
    head = rng.choice([e.formula.head for e in env])
    return apply({v: random_loop_term(rng, 2) for v in free_vars(head)}, head)


# Evidence whose binders and variables share a few names, `a` and its first
# renaming `a_0` among them, so a substitution often has to rename apart.
EVIDENCE_NAMES = ("a", "b", "a_0", "b_0")


def random_evidence(rng: random.Random, depth: int):
    """A mixed term over applications, lambdas and fixed points, with
    variables, axioms, atoms and holes at the leaves."""
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        leaf = rng.random()
        if leaf < 0.5:
            return EVar(rng.choice(EVIDENCE_NAMES))
        if leaf < 0.75:
            return EAxiom(rng.choice(["K0", "K1"]))
        return MAtom(eq(random_term(rng, 1, []))) if leaf < 0.9 else Hole()
    if roll < 0.7:
        return EApp(random_evidence(rng, depth - 1), random_evidence(rng, depth - 1))
    binder = rng.choice([ELam, EMu])
    return binder(rng.choice(EVIDENCE_NAMES), random_evidence(rng, depth - 1))


# Programs with shared repeated subgoals: Eq over nested pairs whose
# components repeat, and Mu-style unfoldings that grow them.  Clauses that
# overlap these put choice points and dead ends above and inside repeated
# subtrees; `Loop` puts a path repeat above one.
SHARING_CLAUSES = (
    "Eq Int",
    "Eq Unit",
    "(Eq x, Eq y) => Eq (x, y)",
    "Eq (h (Mu h) a) => Eq (Mu h a)",
    "(Eq a, Eq (f (a, a))) => Eq (HPTree f a)",
    "(Eq a, Eq (f (f a))) => Eq (Bush f a)",
    "Eq a => Eq (List a)",
    "(Eq a, Eq (Loop a)) => Eq (Loop a)",
    "Eq x => Eq (x, x)",
    "(Eq x, Q y) => Eq (x, y)",
    "Eq Unit => Eq Int",
    "Q Int",
    "Q (x, y)",
)
SHARING_COHYPOTHESES = ("Eq a => Eq (Mu HPTree a)", "Eq x => Eq (List x)", "Eq (x, x)")


def parse_horn(text: str) -> HornFormula:
    """One clause of the declaration language, such as `Eq a => Eq (List a)`."""
    (decl,) = parse_module(f"module m where\naxiom {text}").decls
    return decl.formula


def axioms_env(clauses) -> AxiomEnv:
    """Axioms K0, K1, ... from clause texts, oldest first."""
    return AxiomEnv([axiom(f"K{i}", parse_horn(c)) for i, c in enumerate(clauses)])


def random_sharing_env(rng: random.Random) -> AxiomEnv:
    """The first three `SHARING_CLAUSES`, most of the next five and about
    half of the rest, in a random order, named K0, K1, ... from oldest to
    newest."""
    chosen = list(SHARING_CLAUSES[:3])
    chosen += [c for c in SHARING_CLAUSES[3:8] if rng.random() < 0.85]
    chosen += [c for c in SHARING_CLAUSES[8:] if rng.random() < 0.5]
    rng.shuffle(chosen)
    return axioms_env(chosen)


def random_sharing_term(rng: random.Random, size: int) -> Term:
    """A ground term built in `size` steps, each a pair of two earlier
    terms (recent ones likelier, often the same one twice) or one of them
    under List, Loop or a Mu unfolding."""
    pool: list[Term] = [Int, Unit]
    pick = lambda: pool[-1 - min(int(rng.expovariate(0.7)), len(pool) - 1)]
    for _ in range(size):
        roll = rng.random()
        if roll < 0.6:
            t = pick()
            pool.append(pair(t, t if rng.random() < 0.6 else pick()))
        elif roll < 0.75:
            pool.append(App(Const(rng.choice(["List", "Loop"])), pick()))
        else:
            pool.append(mk_app(Mu, Const(rng.choice(["HPTree", "Bush"])), pick()))
    return pool[-1]


def random_sharing_corec(rng: random.Random, env: AxiomEnv) -> AxiomEnv:
    """`env` with one of `SHARING_COHYPOTHESES` and two hypotheses in scope."""
    co = parse_horn(rng.choice(SHARING_COHYPOTHESES))
    hyps = [Atom("Eq", (random_sharing_term(rng, rng.randint(0, 3)),)) for _ in range(2)]
    return env.extended(
        cohypothesis("r", co), hypothesis("b0", hyps[0]), hypothesis("b1", hyps[1])
    )
