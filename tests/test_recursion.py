"""The engine runs at the interpreter's default recursion limit: a guard
against functions that call themselves, `main` leaving the limit alone,
deep inputs through the CLI in a child interpreter, and the four walkers
that recursed on term depth against their recursive versions, kept here
verbatim as references (renamed `ref_*`), plus a count of the work
anti-unification does."""

import ast
import pathlib
import random
import sys
from collections import Counter
from dataclasses import fields, is_dataclass

from cohorn import cli, syntax
from cohorn.syntax import (
    App,
    Atom,
    Const,
    EApp,
    EAxiom,
    Eigen,
    ELam,
    EMu,
    EVar,
    PredicateMismatch,
    Var,
    anti_unify_all,
    apply,
    free_evars,
    free_vars,
    fresh_var_names,
    match_term,
    spine_term,
    subst_evidence,
)
from conftest import (
    CORPUS,
    EVIDENCE_NAMES,
    random_atom,
    random_evidence,
    random_index_goal,
    random_index_head,
    random_term,
    run_at_the_default_limit,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cohorn"

# ---------------------------------------------------------------------------
# No function calls itself, but for these, which input depth cannot drive


ALLOWED_SELF_CALLS = {
    "parser.render": "one level, from a module to its declarations",
    "syntax.apply": "one level, from a Horn formula to its atoms",
}


def self_calls(source: str, module: str) -> set[str]:
    """`module.name` for each function that calls itself by its bare name,
    in its own body or from a nested def.  Calls through an attribute, such
    as `super().__init__()` or `self.entries.append(e)`, are not counted."""
    out = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == fn.name
                ):
                    out.add(f"{module}.{fn.name}")
    return out


def test_self_calls_sees_nested_defs_and_skips_attribute_calls():
    source = """
def walk(t):
    def go(u):
        return go(u.fun) if u else walk(None)
    return go(t)

class Store:
    def __init__(self):
        super().__init__()
        self.append = [].append

    def append(self, x):
        self.append(x)
"""
    assert self_calls(source, "m") == {"m.walk", "m.go"}


def test_no_function_in_the_package_calls_itself():
    """Keeps out a recursion that no deep-input probe has found yet.  It
    does not catch mutual recursion (f calls g, which calls f), a call
    through an attribute or a variable, or recursion in generated code such
    as a dataclass's `__eq__`."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= self_calls(path.read_text(encoding="utf-8"), path.stem)
    assert found - ALLOWED_SELF_CALLS.keys() == set()
    assert ALLOWED_SELF_CALLS.keys() - found == set()  # drop an entry once it loops


# ---------------------------------------------------------------------------
# One configuration: the CLI and the library at the default limit


def test_main_leaves_the_recursion_limit_unchanged(capsys):
    before = sys.getrecursionlimit()
    goal = ["--goal", "Eq (OddList Int)"]
    assert cli.main(["check", str(CORPUS / "bush.asl")]) == 0
    assert cli.main(["obs", str(CORPUS / "evenodd.asl"), *goal]) == 0
    assert cli.main(["trace", str(CORPUS / "evenodd.asl"), *goal, "--steps", "3"]) == 0
    capsys.readouterr()
    assert sys.getrecursionlimit() == before


def test_deep_inputs_through_the_cli_need_no_recursion_limit(tmp_path):
    n = 10_000
    nat = "(S " * n + "Z" + ")" * n
    pattern, goal = "x", "Z"
    for _ in range(n):
        pattern, goal = f"({pattern}, Z)", f"({goal}, Z)"
    files = {
        # the goal's unfoldings are anti-unified into the candidate lemma
        "auto": f"module m where\naxiom P (S x) => P x\nauto P {nat}\n",
        # the report names the lemma's 10,000-deep `mu` proof
        "mu": (
            "module m where\naxiom R x => R (S x)\naxiom Q Z => R Z\n"
            f"axiom R {nat} => Q Z\nlemma Q Z\n"
        ),
        # the head is a pattern nested through `fun`, as deep as the goal
        "pair": f"module m where\naxiom Q {pattern}\nauto Q {goal}\n",
    }
    for name, text in files.items():
        (tmp_path / f"{name}.asl").write_text(text, encoding="utf-8")
    code = f"""
from cohorn.cli import RunConfig, run, run_obs
for name in {list(files)!r}:
    for flags in ({{}}, {{"json": True}}, {{"explain": True}}, {{"obs_check": 3}}):
        path = {str(tmp_path)!r} + "/" + name + ".asl"
        code, out, err = run(RunConfig(path=path, fuel=20_010, **flags))
        print(name, *flags, code)
code, out, _ = run_obs({str(CORPUS / "evenodd.asl")!r}, "Eq (OddList Int)", 300)
print("obs", code, out.splitlines()[-1].strip())
"""
    lines = run_at_the_default_limit(code).splitlines()
    flags = ["", " json", " explain", " obs_check"]
    assert lines == [f"{name}{f} 0" for name in files for f in flags] + [
        "obs 0 equivalent: yes"
    ]


def test_deep_walkers_need_no_recursion_limit():
    # each of the four walkers on terms 100,000 deep
    code = """
from cohorn.syntax import (
    App, Atom, Const, EApp, EAxiom, ELam, EVar, Var, anti_unify, match, subst_evidence,
)
n = 100_000
S, Z, x = Const("S"), Const("Z"), Var("x")

def nat(k, t):
    for _ in range(k):
        t = App(S, t)
    return t

def nested(t):
    for _ in range(n):
        t = App(App(Const("Pair"), t), Z)
    return t

def ev(leaf):
    for _ in range(n):
        leaf = ELam("b", EApp(EAxiom("K"), leaf))
    return leaf

got = anti_unify(Atom("P", (nat(n, Z),)), Atom("P", (nat(n - 1, Z),)))
print(got == Atom("P", (nat(n - 1, Var("var_1")),)))
print(match(Atom("Q", (nested(x),)), Atom("Q", (nested(Z),))) == {"x": Z})
got = subst_evidence(ev(EVar("a")), "a", EAxiom("K1"))
print(got == ev(EAxiom("K1")), got == ev(EVar("a")))
"""
    assert run_at_the_default_limit(code).split() == ["True", "True", "True", "False"]


# ---------------------------------------------------------------------------
# The references: the recursive walkers the loops replaced


def ref_match_term(pattern, subject, binds):
    while True:
        if isinstance(pattern, Var):
            bound = binds.get(pattern.name)
            if bound is None:
                binds[pattern.name] = subject
                return True
            return bound == subject
        if isinstance(pattern, Const):
            return isinstance(subject, Const) and pattern.name == subject.name
        if isinstance(pattern, Eigen):
            return pattern == subject
        # application: subject must be an application too; the argument is
        # matched by the loop, so only nesting through `fun` recurses
        if not (
            isinstance(subject, App) and ref_match_term(pattern.fun, subject.fun, binds)
        ):
            return False
        pattern, subject = pattern.arg, subject.arg


def ref_anti_unify_all(atoms):
    """Left fold of anti_unify over a nonempty list."""
    if not atoms:
        raise ValueError("anti_unify_all needs at least one atom")
    out = atoms[0]
    for a in atoms[1:]:
        out = ref_anti_unify2(out, a)
    return out


def ref_anti_unify2(a, b):
    if a.pred != b.pred or len(a.args) != len(b.args):
        raise PredicateMismatch(f"cannot anti-unify {a!r} with {b!r}")
    avoid = set(free_vars(a)) | set(free_vars(b))
    names = fresh_var_names(avoid)
    phi = {}

    def gen(t, u):
        if t == u:
            return t
        th, targs = spine_term(t)
        uh, uargs = spine_term(u)
        if (
            isinstance(th, Const)
            and isinstance(uh, Const)
            and th.name == uh.name
            and len(targs) == len(uargs)
        ):
            out = th
            for ta, ua in zip(targs, uargs):
                out = App(out, gen(ta, ua))
            return out
        key = (t, u)
        if key not in phi:
            phi[key] = Var(next(names))
        return phi[key]

    return Atom(a.pred, tuple(gen(t, u) for t, u in zip(a.args, b.args)))


def ref_subst_evidence(e, name, repl):
    """Capture-avoiding replacement of the free evidence variable `name`."""
    repl_free = free_evars(repl)

    def go(node, bound):
        if isinstance(node, EVar):
            return repl if (node.name == name and node.name not in bound) else node
        if isinstance(node, EApp):
            return EApp(go(node.fun, bound), go(node.arg, bound))
        if isinstance(node, (ELam, EMu)):
            cls = type(node)
            binder = node.binder
            if binder == name:
                return node
            body = node.body
            if binder in repl_free:
                fresh = binder
                taken = repl_free | free_evars(body) | bound
                k = 0
                while fresh in taken:
                    fresh = f"{binder}_{k}"
                    k += 1
                body = ref_subst_evidence(body, binder, EVar(fresh))
                binder = fresh
            return cls(binder, go(body, bound | {binder}))
        return node

    return go(e, frozenset())


def ref_app_eq(self, other):
    """`App.__eq__` before it served the evidence nodes too."""
    if other.__class__ is not App:
        return NotImplemented
    stack = [(self, other)]  # explicit, for deep terms
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if a.__class__ is App and b.__class__ is App:
            stack += ((a.arg, b.arg), (a.fun, b.fun))
        elif a != b:
            return False
    return True


def ref_dataclass_eq(self, other):
    """The `__eq__` that `dataclass` generates, which EApp, ELam and EMu had:
    the field tuples compared, for two objects of one class."""
    if other.__class__ is self.__class__:
        return tuple(getattr(self, f.name) for f in fields(self)) == tuple(
            getattr(other, f.name) for f in fields(other)
        )
    return NotImplemented


def tree(x):
    """x as nested tuples of class names and fields, for comparing results
    without the `==` under test."""
    if is_dataclass(x):
        return (type(x).__name__, *(tree(getattr(x, f.name)) for f in fields(x)))
    if isinstance(x, tuple):
        return tuple(tree(y) for y in x)
    return x


# ---------------------------------------------------------------------------
# Each loop agrees with its reference


def match_cases(rng, count):
    """Clause-index heads against their instances and against random
    goals, and random atoms against each other."""
    out = []
    for k in range(count):
        if k % 2:
            head = random_index_head(rng, ["x", "y", "f", "a"])
            out.append((head, random_index_goal(rng, [head])))
        else:
            vars_ = ["x", "y"]
            out.append((random_atom(rng, 2, vars_), random_atom(rng, 2, vars_)))
    return out


def test_match_agrees_with_the_recursive_version():
    # the same answer and the same bindings, made in the same order, also
    # those made before a failure
    kinds = Counter()
    for pattern, subject in match_cases(random.Random(51), 3000):
        live, ref = {}, {}
        got = all(match_term(p, t, live) for p, t in zip(pattern.args, subject.args))
        expected = all(ref_match_term(p, t, ref) for p, t in zip(pattern.args, subject.args))
        assert (got, tree(list(live.items()))) == (expected, tree(list(ref.items())))
        kinds["match" if got else "no match"] += 1
    assert min(kinds.values()) >= 500, kinds


def anti_unify_cases(rng, count):
    """Lists of one to four atoms: instances of one random head, whose
    variables may be named like the fresh ones, sometimes with a random
    atom among them."""
    out = []
    vars_ = ["x", "y", "var_1"]
    for _ in range(count):
        head = random_atom(rng, 2, vars_)
        atoms = [
            apply({v: random_term(rng, 2, vars_) for v in free_vars(head)}, head)
            for _ in range(rng.randint(1, 4))
        ]
        if rng.random() < 0.2:
            atoms.insert(rng.randrange(len(atoms) + 1), random_atom(rng, 2, vars_))
        out.append(atoms)
    return out


def test_anti_unification_agrees_with_the_recursive_version():
    kinds = Counter()
    for atoms in anti_unify_cases(random.Random(52), 2000):
        got = anti_unify_all(atoms)
        assert tree(got) == tree(ref_anti_unify_all(atoms))
        fresh = [v for v in free_vars(got) if v.startswith("var_")]
        kinds["fresh variables" if fresh else "none fresh"] += 1
    assert min(kinds.values()) >= 300, kinds


def binders(e):
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        if isinstance(node, EApp):
            stack += (node.fun, node.arg)
        elif isinstance(node, (ELam, EMu)):
            out.append(node.binder)
            stack.append(node.body)
    return sorted(out)


def test_evidence_substitution_agrees_with_the_recursive_version():
    # the replacements have free variables that the binders often capture,
    # so binders are renamed apart, sometimes to the replaced name itself
    rng = random.Random(53)
    kinds = Counter()
    for _ in range(4000):
        e = random_evidence(rng, rng.randint(1, 6))
        repl = random_evidence(rng, rng.randint(0, 2))
        name = rng.choice(EVIDENCE_NAMES)
        got = subst_evidence(e, name, repl)
        assert tree(got) == tree(ref_subst_evidence(e, name, repl))
        if binders(got) != binders(e):
            kinds["renamed"] += 1
            kinds["renamed to the name"] += name in binders(got) and name not in binders(e)
        kinds["changed" if tree(got) != tree(e) else "unchanged"] += 1
    assert min(kinds.values()) >= 50, kinds


def test_a_closed_replacement_copies_no_binder_set(monkeypatch):
    """Work count: result nodes plus the set elements that `|` copies, at n
    and 4n nested binders.  Each binder used to copy the set of the binders
    above it, so a closed replacement cost 16x at 4n; now it copies none.
    Agreement with the reference is checked on random closed replacements."""
    copied = [0]

    class CountingSet(frozenset):
        def __or__(self, other):
            copied[0] += len(self) + len(other)
            return CountingSet(frozenset.__or__(self, other))

    monkeypatch.setattr(syntax, "frozenset", CountingSet, raising=False)

    def work(n, repl):
        e, want = EVar("a"), repl
        for i in range(n):
            e = ELam(f"b{i}", EApp(EAxiom("K"), e))
            want = ELam(f"b{i}", EApp(EAxiom("K"), want))
        copied[0] = 0
        assert subst_evidence(e, "a", repl) == want
        return 2 * n + 1 + copied[0]

    closed = EApp(EAxiom("K0"), EAxiom("K1"))
    small, large = work(500, closed), work(2000, closed)
    assert large <= 5 * small, (small, large)
    # an open replacement still copies the set at every binder (O(n^2)),
    # which shows that the count sees the copies
    assert work(500, EVar("c")) > 500 * 500 // 2
    rng = random.Random(55)
    cases = 0
    while cases < 2000:
        e = random_evidence(rng, rng.randint(1, 6))
        repl = random_evidence(rng, rng.randint(0, 2))
        if free_evars(repl):
            continue
        name = rng.choice(EVIDENCE_NAMES)
        assert tree(subst_evidence(e, name, repl)) == tree(ref_subst_evidence(e, name, repl))
        cases += 1


def test_evidence_equality_agrees_with_the_dataclass_version(monkeypatch):
    rng = random.Random(54)
    pairs = []
    for _ in range(3000):
        state = rng.getstate()
        a = random_evidence(rng, rng.randint(0, 6))
        if rng.random() < 0.5:
            rng.setstate(state)  # an equal term built a second time
        pairs.append((a, random_evidence(rng, rng.randint(0, 6))))
    for _ in range(1000):
        state = rng.getstate()
        t = random_term(rng, 4, ["x", "y"])
        if rng.random() < 0.5:
            rng.setstate(state)
        pairs.append((t, random_term(rng, 4, ["x", "y"])))
    got = [(a == b, a != b) for a, b in pairs]
    with monkeypatch.context() as m:
        m.setattr(App, "__eq__", ref_app_eq)
        for cls in (EApp, ELam, EMu):
            m.setattr(cls, "__eq__", ref_dataclass_eq)
        expected = [(a == b, a != b) for a, b in pairs]
    assert got == expected
    assert 1000 <= sum(same for same, _ in got) <= 3000


# ---------------------------------------------------------------------------
# Work, counted: anti-unification is linear in the terms' depth


def nat(k, t=Const("Z")):
    for _ in range(k):
        t = App(Const("S"), t)
    return t


def anti_unify_work(monkeypatch, atoms):
    """Pairs popped by `App.__eq__` (the reference loop, counting) and
    `spine_term` calls in one anti-unification."""
    work = Counter()

    def counted_eq(self, other):
        if other.__class__ is not App:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            work["pairs"] += 1
            if a is b:
                continue
            if a.__class__ is App and b.__class__ is App:
                stack += ((a.arg, b.arg), (a.fun, b.fun))
            elif a != b:
                return False
        return True

    def counted_spine(t):
        work["spines"] += 1
        return spine_term(t)

    with monkeypatch.context() as m:
        m.setattr(App, "__eq__", counted_eq)
        m.setattr(syntax, "spine_term", counted_spine)
        anti_unify_all(atoms)
    return work


def test_anti_unification_work_is_linear_in_depth(monkeypatch):
    # 4n against n: within 5x, where a walk of O(depth) at each level of
    # the generalization would make it about 16x
    n = 150
    for family in (
        lambda k: [Atom("P", (nat(k),)), Atom("P", (nat(k - 1),))],
        # an equal argument built twice, so only `==` tells it is equal
        lambda k: [Atom("P", (nat(k), nat(k))), Atom("P", (nat(k), nat(k - 1)))],
    ):
        small = anti_unify_work(monkeypatch, family(n))
        big = anti_unify_work(monkeypatch, family(4 * n))
        assert small["spines"] >= n
        assert sum(big.values()) <= 5 * sum(small.values()), (small, big)
        assert big["pairs"] <= 5 * small["pairs"], (small, big)
