import pickle
import random
from collections import Counter

import pytest

from cohorn import syntax
from cohorn.resolve import axiom
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
    MAtom,
    PredicateMismatch,
    Var,
    COMPILE_DEPTH,
    anti_unify,
    anti_unify_all,
    apply,
    apply_term,
    Eigen,
    apply_kernel,
    free_vars,
    match,
    match_kernel,
    mk_app,
    mk_eapp,
    pair,
    render_evidence,
    render_term,
    symbol_multiset,
    var_multiset,
)
from conftest import (
    CORPUS,
    EIGEN,
    alpha_equal,
    eq,
    random_atom,
    random_index_goal,
    random_index_head,
    random_term,
    run_at_the_default_limit,
)

Int = Const("Int")
Mu = Const("Mu")
HPTree = Const("HPTree")
x, y = Var("x"), Var("y")


# ---------------------------------------------------------------------------
# Independent oracle: brute-force matching by enumerating candidate bindings


def subterms(t):
    out = [t]
    if isinstance(t, App):
        out += subterms(t.fun) + subterms(t.arg)
    return out


def brute_force_match(pattern: Atom, subject: Atom):
    """Enumerate every mapping from pattern variables to subterms of the
    subject and keep those with apply(s, pattern) == subject."""
    if pattern.pred != subject.pred or len(pattern.args) != len(subject.args):
        return []
    pool = [t for arg in subject.args for t in subterms(arg)]
    pool = list(dict.fromkeys(pool))
    names = free_vars(pattern)
    found = []

    def go(i, binds):
        if i == len(names):
            if apply(binds, pattern) == subject:
                found.append(dict(binds))
            return
        for t in pool:
            binds[names[i]] = t
            go(i + 1, binds)
        del binds[names[i]]

    go(0, {})
    return found


# ---------------------------------------------------------------------------
# match


def test_match_pair_of_ints():
    got = match(eq(pair(x, y)), eq(pair(Int, Int)))
    assert got == {"x": Int, "y": Int}


def test_match_identical_atoms_is_identity():
    got = match(eq(x), eq(x))
    assert got == {}
    assert apply(got, eq(x)) == eq(x)


def test_match_pair_pattern_against_non_application():
    # oracle first: no candidate binding maps the pair pattern onto Eq Int
    assert brute_force_match(eq(pair(x, y)), eq(Int)) == []
    assert match(eq(pair(x, y)), eq(Int)) is None


def test_match_agrees_with_brute_force_on_random_atoms():
    rng = random.Random(7)
    for _ in range(150):
        pattern = random_atom(rng, 2, ["x", "y"])
        subject = random_atom(rng, 2, [])
        got = match(pattern, subject)
        oracle = brute_force_match(pattern, subject)
        if got is None:
            assert oracle == []
        else:
            assert apply(got, pattern) == subject
            assert any(apply(s, pattern) == subject for s in oracle)


def test_match_soundness_property():
    # whenever match succeeds, applying the result reproduces the subject
    rng = random.Random(11)
    for _ in range(300):
        pattern = random_atom(rng, 2, ["x", "y", "z"])
        sigma = {v: random_term(rng, 2, []) for v in free_vars(pattern)}
        subject = apply(sigma, pattern)
        got = match(pattern, subject)
        assert got is not None
        assert apply(got, pattern) == subject


def test_match_unique_when_it_exists():
    rng = random.Random(13)
    for _ in range(100):
        pattern = random_atom(rng, 1, ["x", "y"])
        subject = apply({v: random_term(rng, 2, []) for v in free_vars(pattern)}, pattern)
        oracle = brute_force_match(pattern, subject)
        normalized = {
            tuple(sorted((k, render_term(v)) for k, v in s.items() if Var(k) != v))
            for s in oracle
        }
        assert len(normalized) <= 1 or match(pattern, subject) is not None


# ---------------------------------------------------------------------------
# apply


def test_apply_single_binding():
    got = apply({"x": Int}, eq(mk_app(Mu, HPTree, x)))
    assert got == eq(mk_app(Mu, HPTree, Int))


def test_apply_empty_substitution_is_identity():
    atom = eq(mk_app(Mu, HPTree, x))
    assert apply({}, atom) == atom


def test_apply_twice_squares_the_pair_substitution():
    # sigma = [(x,x)/x]; two applications give Eq (Mu HPTree ((x,x),(x,x)))
    sigma = {"x": pair(x, x)}
    once = apply(sigma, eq(mk_app(Mu, HPTree, x)))
    twice = apply(sigma, once)
    assert twice == eq(mk_app(Mu, HPTree, pair(pair(x, x), pair(x, x))))


def test_apply_term_returns_a_ground_application_itself():
    ground = mk_app(Mu, HPTree, pair(Int, Int))
    assert apply_term({"x": Int}, ground) is ground
    once = apply_term({"x": Int}, App(ground, x))
    assert once == App(ground, Int) and once.fun is ground


def test_apply_refuses_evidence():
    for e in (EAxiom("K"), EApp(EAxiom("K"), EVar("b")), MAtom(eq(x))):
        with pytest.raises(TypeError):
            apply({"x": Int}, e)


# ---------------------------------------------------------------------------
# anti-unification


def test_anti_unify_hptree_instances():
    got = anti_unify(eq(mk_app(Mu, HPTree, Int)), eq(mk_app(Mu, HPTree, pair(Int, Int))))
    (arg,) = got.args
    head, args = arg, []
    while isinstance(head, App):
        args.insert(0, head.arg)
        head = head.fun
    assert head == Mu
    assert args[0] == HPTree
    assert isinstance(args[1], Var)


def test_anti_unify_identical_atoms():
    atom = eq(mk_app(Mu, HPTree, pair(Int, Int)))
    assert anti_unify(atom, atom) == atom


def test_anti_unify_q_instances():
    # clause by clause: S matches, Z vs (G Z) disagrees and becomes a variable
    S, G, Z = Const("S"), Const("G"), Const("Z")
    q = lambda t: Atom("Q", (t,))
    got = anti_unify(q(App(S, Z)), q(App(S, App(G, Z))))
    (arg,) = got.args
    assert isinstance(arg, App) and arg.fun == S and isinstance(arg.arg, Var)
    # both instances recoverable by matching
    assert match(got, q(App(S, Z))) is not None
    assert match(got, q(App(S, App(G, Z)))) is not None


def test_anti_unify_all_fold():
    odd = eq(App(Const("OddList"), Int))
    assert anti_unify_all([odd, odd]) == odd
    assert anti_unify_all([odd]) == odd
    got = anti_unify_all(
        [eq(mk_app(Mu, HPTree, Int)), eq(mk_app(Mu, HPTree, pair(Int, Int)))]
    )
    assert match(got, eq(mk_app(Mu, HPTree, Int))) is not None


def test_anti_unify_predicate_mismatch():
    with pytest.raises(PredicateMismatch):
        anti_unify(Atom("P", (Int,)), Atom("Q", (Int,)))
    with pytest.raises(PredicateMismatch):
        anti_unify(Atom("P", (Int,)), Atom("P", (Int, Int)))


def test_anti_unify_phi_injectivity():
    # identical mismatching pairs get the same fresh variable, distinct
    # pairs get distinct ones
    F, G, H = Const("F"), Const("G"), Const("H")
    left = Atom("P", (App(F, Int), App(F, Int), App(G, Int)))
    right = Atom("P", (App(G, Int), App(G, Int), App(H, Int)))
    got = anti_unify(left, right)
    v1, v2, v3 = got.args
    assert isinstance(v1, Var) and isinstance(v2, Var) and isinstance(v3, Var)
    assert v1 == v2
    assert v1 != v3


def test_anti_unify_generality_random():
    rng = random.Random(23)
    for _ in range(300):
        a = random_atom(rng, 2, [])
        b = random_atom(rng, 2, [])
        g = anti_unify(a, b)
        assert match(g, a) is not None
        assert match(g, b) is not None
        assert anti_unify(a, a) == a


# ---------------------------------------------------------------------------
# symbol / variable multisets


def test_multisets_hbush_head():
    f_, a_ = Var("f"), Var("a")
    atom = eq(mk_app(Const("HBush"), f_, a_))
    assert symbol_multiset(atom) == Counter({"HBush": 1})
    assert var_multiset(atom) == Counter({"f": 1, "a": 1})


def test_multisets_count_every_occurrence():
    h = Var("h")
    atom = eq(mk_app(h, App(Mu, h), Var("a")))
    assert symbol_multiset(atom) == Counter({"Mu": 1})
    assert var_multiset(atom) == Counter({"h": 2, "a": 1})


def test_multisets_lone_variable():
    assert symbol_multiset(eq(x)) == Counter()
    assert var_multiset(eq(x)) == Counter({"x": 1})


# ---------------------------------------------------------------------------
# alpha equivalence


def test_alpha_equal_binder_renaming():
    k = EAxiom("K")
    e1 = EMu("al", ELam("b", EApp(k, EApp(EVar("al"), EVar("b")))))
    e2 = EMu("c", ELam("d", EApp(k, EApp(EVar("c"), EVar("d")))))
    assert alpha_equal(e1, e2)


def test_alpha_equal_distinct_constants():
    assert not alpha_equal(
        EApp(EAxiom("K1"), EAxiom("K2")), EApp(EAxiom("K2"), EAxiom("K1"))
    )


def test_alpha_equal_ab_evidence():
    e1 = EMu("al", mk_eapp(EAxiom("KA"), EApp(EAxiom("KB"), EVar("al"))))
    e2 = EMu("be", mk_eapp(EAxiom("KA"), EApp(EAxiom("KB"), EVar("be"))))
    assert alpha_equal(e1, e2)
    assert not alpha_equal(e1, EMu("al", mk_eapp(EAxiom("KB"), EApp(EAxiom("KA"), EVar("al")))))


def test_render_evidence_shapes():
    e = ELam("b0", mk_eapp(EAxiom("Ax0"), mk_eapp(EAxiom("Ax1"), EVar("b0"), EVar("x"))))
    assert render_evidence(e) == "\\ b0 . Ax0 (Ax1 b0 x)"


def deep_term(n: int, leaf: str = "Z"):
    t = Const(leaf)
    for _ in range(n):
        t = App(Const("S"), t)
    return t


def test_hash_and_equality_of_deep_terms_need_no_deep_recursion():
    # in-process, at the default recursion limit, which nothing raises
    n = 100_000
    a, b, c = deep_term(n), deep_term(n), deep_term(n, "Y")
    assert hash(a) == hash(b)
    assert a == b and not a != b
    assert a != c and not a == c
    assert eq(a) == eq(b) and hash(eq(a)) == hash(eq(b))
    assert {eq(a): 1}[eq(b)] == 1


def test_term_hashes_are_the_field_tuple_hashes():
    t = App(App(Const("F"), Var("x")), pair(Const("A"), Var("y")))
    assert hash(t) == hash((t.fun, t.arg))
    assert hash(eq(t)) == hash(("Eq", (t,)))
    # sharing is hashed once per node, not once per path
    shared = Const("Z")
    for _ in range(200):
        shared = App(shared, shared)
    assert hash(shared) == hash((shared.fun, shared.arg))
    assert App(Const("F"), Var("x")) != Var("x") and Var("x") != App(Const("F"), Var("x"))


def test_terms_that_fill_their_caches_late_get_no_dict_of_their_own():
    # in a fresh interpreter, 1000 applications are made and hashed before
    # any fills its groundness flag; none of them may need a dict of its
    # own for that flag (about 270 bytes each where one is made)
    code = """
import tracemalloc
from cohorn.syntax import App, Atom, Const, Var
apps = [App(Const("a"), Var("x")) for _ in range(1000)]
for a in apps:
    hash(Atom("P", (a,)))
tracemalloc.start()
for a in apps:
    a.ground()
print(tracemalloc.get_traced_memory()[0])
"""
    assert int(run_at_the_default_limit(code)) < 1000 * 16


class _Hashed:
    """Stands for a child whose hash is already known."""

    def __init__(self, h):
        self.h = h

    def __hash__(self):
        return self.h


def field_tuple_hash(t) -> int:
    """hash(t._key()), computed from the children's field-tuple hashes with
    no cache: a tuple's hash depends only on its items' hashes."""
    if isinstance(t, Atom):
        return hash((t.pred, tuple(_Hashed(field_tuple_hash(u)) for u in t.args)))
    if isinstance(t, App):
        return hash(tuple(_Hashed(field_tuple_hash(u)) for u in (t.fun, t.arg)))
    return hash(t)


def fresh_copy(t, copies: dict):
    """A new copy of t, each node copied once, its sharing kept: `copies`
    maps the id of each original node to its copy."""
    if id(t) not in copies and isinstance(t, (Atom, App)):
        if isinstance(t, Atom):
            copies[id(t)] = Atom(t.pred, tuple(fresh_copy(u, copies) for u in t.args))
        else:
            copies[id(t)] = App(fresh_copy(t.fun, copies), fresh_copy(t.arg, copies))
    return copies.get(id(t), t)


def test_hash_fast_path_keeps_the_field_tuple_hashes():
    # the first hash of a node walks its unhashed children, or takes the
    # fast path when they are all hashed; both must give the same value,
    # whichever nodes of one term were hashed first
    rng = random.Random(41)
    for k in range(1500):
        atom = random_atom(rng, rng.randint(0, 3), ["x", "y"])
        if k % 3 == 0:  # as in a burn: new nodes wrap old ones, shared twice
            t = App(Const("F"), Var("x"))
            for _ in range(rng.randint(1, 20)):
                t = App(Const("S"), t) if rng.random() < 0.5 else App(t, random_term(rng, 1, ["x"]))
            atom = Atom("P", (t, t.arg, *atom.args))
        expected = field_tuple_hash(atom)
        nodes = [atom]
        for node in nodes:
            nodes += [u for u in getattr(node, "args", ()) if isinstance(u, App)]
            if isinstance(node, App):
                nodes += [u for u in (node.fun, node.arg) if isinstance(u, App)]
        for order in (nodes, nodes[::-1], rng.sample(nodes, len(nodes))):
            copies: dict = {}
            top = fresh_copy(atom, copies)
            for n in order:  # parents first, children first, or mixed
                c = copies[id(n)]
                assert hash(c) == hash(c._key()) == field_tuple_hash(c)
            assert hash(top) == expected


def test_fresh_deep_terms_hash_at_the_default_recursion_limit():
    # in a child, since `cohorn.cli.main` raises this interpreter's limit;
    # the second term is built newest first, some nodes hashed as they are
    # built, so hashing it newest first meets unhashed runs of every length
    code = """
from cohorn.syntax import App, Atom, Const, Var
chain = Var("x")
for _ in range(16_000):
    chain = App(Const("S"), chain)
atom = Atom("Eq", (chain, chain.arg))
assert hash(atom) == hash(("Eq", (chain, chain.arg))) and hash(chain) == hash(chain._key())
t, nodes = Var("x"), []
for i in range(10_000):
    t = App(Const("S"), t) if i % 3 else App(t, Const("Z"))
    nodes.append(t)
    if i % 97 == 0:
        hash(t)
for n in reversed(nodes):
    assert hash(n) == hash((n.fun, n.arg))
print("ok")
"""
    assert run_at_the_default_limit(code) == "ok\n"


def test_deep_evidence_hashes_at_the_default_recursion_limit():
    # in a child, since `cohorn.cli.main` raises this interpreter's limit:
    # an application spine, a chain of arguments and a nest of lambdas,
    # fixed points and applications, 100,000 deep and built twice, hash
    # equal to each other and to their field tuples, as do records that
    # hold them
    code = """
from cohorn.evidence import ObservationRecord
from cohorn.syntax import EApp, EAxiom, ELam, EMu, EVar, Hole, MAtom, Atom
STEPS = {
    "spine": lambda e, i: EApp(e, EVar("b")),
    "args": lambda e, i: EApp(EAxiom("K"), e),
    "nest": lambda e, i: (ELam("a", e), EMu("r", e), EApp(e, MAtom(Atom("P"))))[i % 3],
}
def build(step):
    e = Hole()
    for i in range(100_000):
        e = step(e, i)
    return e
for name, step in STEPS.items():
    a, b = build(step), build(step)
    assert hash(a) == hash(b) == hash(a._key()) and a == b, name
    records = [ObservationRecord("observational", 1, e) for e in (a, b)]
    assert hash(records[0]) == hash(records[1]) and records[0] == records[1], name
assert hash(ELam("a", EVar("b"))) == hash(("a", EVar("b")))
assert len({ELam("a", EVar("b")), EMu("a", EVar("b"))}) == 2
print("ok")
"""
    assert run_at_the_default_limit(code) == "ok\n"


# ---------------------------------------------------------------------------
# compiled clause heads and bodies

# Names a library caller may build that are no Python, or that are the
# generated kernels' own names: a kernel must treat each as data.
ODD_NAMES = [
    'x"',
    "y'\n",
    '__import__("builtins").__dict__.__setitem__("kernel_injected", 1)',
    "k0",
    "s0",
    "goal",
    "App",
]


def rebuilt(t):
    """A copy of a term or atom in which every node is a new object, the
    named leaves too, so equal constants are no longer identical."""
    if isinstance(t, Atom):
        return Atom(t.pred, tuple(rebuilt(u) for u in t.args))
    if isinstance(t, App):
        return App(rebuilt(t.fun), rebuilt(t.arg))
    return type(t)(t.name)


def tower(t, n: int):
    for _ in range(n):
        t = App(Const("S"), t)
    return t


def kernel_cases(rng: random.Random) -> list[tuple[Atom, tuple[Atom, ...], list[Atom]]]:
    """(head, body, goals) beyond the random clauses: heads and bodies
    deeper than COMPILE_DEPTH, with variables above, below and on both
    sides of it; an Eigen and a Const of one name; library-built names from
    ODD_NAMES; and goals whose constants are equal to the head's but are
    other objects."""
    F, odd = Const("F"), Const(rng.choice(ODD_NAMES))
    cases = []
    for u, v in ((x, y), (Var(ODD_NAMES[0]), Var(ODD_NAMES[2])), (Var("k1"), Var("goal"))):
        low = tower(mk_app(F, u, v), COMPILE_DEPTH + 4)  # both variables past the cap
        heads = [
            Atom("P", (low, v)),  # v bound past the cap, then compared
            Atom("P", (v, low)),  # v bound first, then met again past the cap
            Atom("P", (low, low)),
            Atom("P", (mk_app(F, tower(u, 3), low), u)),
            Atom("P", (u, tower(v, COMPILE_DEPTH))),  # v at the cap exactly
            Atom("P", (u, App(Eigen("Int"), v))),  # an Eigen named like Int
            Atom("P", (App(Int, u), App(EIGEN, u))),
            Atom("P", (Const(EIGEN.name), u)),  # a Const named like EIGEN
            Atom(ODD_NAMES[1], (App(odd, u), v)),
            Atom(ODD_NAMES[2], (u,)),
        ]
        body = (
            Atom("Q", (low, u)),
            Atom(ODD_NAMES[5], (tower(App(odd, Var("w")), COMPILE_DEPTH + 2),)),  # w only in the body
            Atom("R", (tower(Int, COMPILE_DEPTH + 8), App(Eigen("Int"), v))),
        )
        for head in heads:
            names = free_vars(head)
            pick = lambda: rng.choice([Int, Eigen("Int"), EIGEN, Const(EIGEN.name), App(F, odd)])
            s1, s2 = ({n: pick() for n in names} for _ in range(2))
            goals = [
                head,  # every variable bound to itself
                apply(s1, head),
                rebuilt(apply(s1, head)),  # equal constants, other objects
                Atom(head.pred, tuple(apply(s, a) for s, a in zip((s1, s2), head.args))),
                apply({names[0]: Var("z")}, head),
                apply({n: Var(names[0]) for n in names}, head),  # variables merged
                rebuilt(Atom(head.pred, tuple(apply(s1, a) for a in head.args[:1]) + head.args[1:])),
                Atom(ODD_NAMES[4], apply(s1, head).args),
            ]
            cases.append((head, body + (head,), goals))
    return cases


def test_compiled_heads_and_bodies_agree_with_match_and_apply():
    rng = random.Random(99)
    kinds = Counter()
    S = Const("S")
    deep = x
    for _ in range(COMPILE_DEPTH + 8):  # past the depth where the kernel is `match` itself
        deep = App(S, deep)
    extra = [Atom("P", (deep, x)), Atom("P", (deep, apply({"x": Int}, deep)))]
    for k in range(2500):
        head = extra[k % 2] if k % 50 < 2 else random_index_head(rng, ["x", "y", "f", "a"])
        if rng.random() < 0.3:  # non-linear: variables merged
            head = apply({v: Var(rng.choice("xy")) for v in free_vars(head)}, head)
        goals = [head, random_index_goal(rng, [head]), random_index_goal(rng, [head])]
        goals += [
            apply({v: rng.choice([Int, EIGEN, Var(v), Var("z")]) for v in free_vars(head)}, head),
            Atom(head.pred, head.args + (Int,)),  # another arity
            Atom(head.pred, head.args[1:]),
        ]
        matcher = match_kernel(head)
        for goal in goals:
            got = matcher(goal)
            assert got == match(head, goal), (head, goal)
            kinds["hit" if got else "identity" if got == {} else "miss"] += 1
        body = tuple(random_atom(rng, rng.randint(0, 2), free_vars(head) or ["x"]) for _ in range(2))
        body += (head,)
        build = apply_kernel(body)
        for sigma in (match(head, g) for g in goals):
            sigma = sigma or {v: random_term(rng, 2, ["z"]) for v in free_vars(head)[:1]}
            assert build(sigma) == tuple(apply(sigma, b) for b in body)
    assert min(kinds.values()) >= 500, kinds
    kinds = Counter()
    for head, body, goals in kernel_cases(rng):
        matcher, build = match_kernel(head), apply_kernel(body)
        for goal in goals:
            got = matcher(goal)
            assert got == match(head, goal), (head, goal)
            kinds["hit" if got else "identity" if got == {} else "miss"] += 1
            sigma = got or {v: rebuilt(Int) for v in free_vars(head)}
            assert build(sigma) == tuple(apply(sigma, b) for b in body)
    assert min(kinds.values()) >= 30, kinds
    assert not hasattr(__import__("builtins"), "kernel_injected")


def open_depth(atoms) -> int:
    """The depth of the deepest application with a variable below it in
    the atoms' arguments, or -1 when there is none."""
    out, stack = -1, [(t, 0) for a in atoms for t in a.args]
    while stack:
        t, depth = stack.pop()
        if isinstance(t, App) and not t.ground():
            out = max(out, depth)
            stack += ((t.fun, depth + 1), (t.arg, depth + 1))
    return out


def test_deep_clauses_compile_nothing():
    # a head or body with a non-ground application at COMPILE_DEPTH runs
    # `match` or `apply` as it is: no shape of it is compiled
    rng = random.Random(41)
    syntax._kernel.cache_clear()
    deep_heads = 0
    for head, body, goals in kernel_cases(rng):
        assert open_depth(body) >= COMPILE_DEPTH
        build = apply_kernel(body)
        matcher = match_kernel(head) if open_depth((head,)) >= COMPILE_DEPTH else None
        deep_heads += matcher is not None
        for goal in goals:
            sigma = match(head, goal)
            if matcher is not None:
                assert matcher(goal) == sigma, (head, goal)
            sigma = sigma or {v: rebuilt(Int) for v in free_vars(head)}
            assert build(sigma) == tuple(apply(sigma, b) for b in body)
    assert deep_heads >= 10
    assert syntax._kernel.cache_info().misses == 0
    # one level shallower, the variable's parent is compiled
    match_kernel(Atom("P", (tower(x, COMPILE_DEPTH),)))
    assert syntax._kernel.cache_info().misses == 1


def test_kernels_specialised_by_arity_agree_with_match_and_apply():
    # heads of arity 0-3 and bodies of 0-3 atoms of arity 0-3: the binary
    # matcher and the one-atom builders of arity 1 and 2 take their own paths
    rng = random.Random(2020)
    kinds = Counter()
    for _ in range(3000):
        head = random_atom(rng, rng.randint(0, 3), ["x", "y"])
        if rng.random() < 0.3:  # non-linear: variables merged
            head = apply({v: x for v in free_vars(head)}, head)
        names = free_vars(head)
        body = tuple(
            Atom(rng.choice("PQ"), tuple(random_term(rng, 2, names) for _ in range(rng.randint(0, 3))))
            for _ in range(rng.randint(0, 3))
        )
        entry = axiom("Ax", HornFormula(body, head))
        goals = [
            head,  # every variable bound to itself: the identity case
            apply({v: rng.choice([Int, Var(v), Var("z")]) for v in names}, head),
            apply({v: random_term(rng, 2, ["z"]) for v in names}, head),
            apply({v: Var(v) if i else Int for i, v in enumerate(names)}, head),
            Atom("Q", head.args),
            Atom("P", head.args + (Int,)),
        ]
        for goal in goals:
            got = entry.matcher(goal)
            assert got == match(head, goal), (head, goal)
            if got is not None:
                kinds["identity" if names and not got else f"arity {len(head.args)}"] += 1
                assert entry.builder[1](got) == tuple(apply(got, b) for b in body)
        s = {v: random_term(rng, 2, ["x", "z"]) for v in names}
        assert entry.builder[1](s) == tuple(apply(s, b) for b in body)
        kinds[f"body {len(body)}"] += 1
    assert min(kinds.values()) >= 300, kinds
    kinds = Counter()
    for head, body, goals in kernel_cases(rng):
        entry = axiom(ODD_NAMES[2], HornFormula(body, head))
        for goal in goals:
            got = entry.matcher(goal)
            assert got == match(head, goal), (head, goal)
            kinds["hit" if got else "identity" if got == {} else "miss"] += 1
            if got is not None:
                assert entry.builder[1](got) == tuple(apply(got, b) for b in body)
    assert min(kinds.values()) >= 30, kinds
    assert not hasattr(__import__("builtins"), "kernel_injected")


def test_clauses_of_one_shape_compile_once():
    # 200 clauses that differ only in their names and constants share one
    # head shape and one body shape, so two compiles in all
    syntax._kernel.cache_clear()
    for i in range(200):
        xi, yi = Var(f"x{i}"), Var(ODD_NAMES[i % len(ODD_NAMES)] + str(i))
        head = Atom(f"P{i}", (App(Const(f"K{i}"), xi), yi))
        body = (Atom(f"Q{i}", (App(Const(f"C{i}"), yi), xi)),)
        entry = axiom(f"A{i}", HornFormula(body, head))
        goal = Atom(f"P{i}", (App(Const(f"K{i}"), Int), EIGEN))
        sigma = entry.matcher(goal)
        assert sigma == match(head, goal) == {xi.name: Int, yi.name: EIGEN}
        assert entry.builder[1](sigma) == (Atom(f"Q{i}", (App(Const(f"C{i}"), EIGEN), Int)),)
    assert syntax._kernel.cache_info().misses == 2


def test_importing_cohorn_compiles_no_kernel():
    code = """
import cohorn, cohorn.cli
from cohorn.syntax import _kernel
info = _kernel.cache_info()
assert info.misses == info.currsize == 0, info
print("ok")
"""
    assert run_at_the_default_limit(code) == "ok\n"


def test_substitution_by_stack_agrees_with_a_recursive_rebuild():
    # `apply_term` rebuilds with an explicit stack and keeps ground subterms
    rng = random.Random(33)
    kinds = Counter()
    for _ in range(2000):
        t = random_term(rng, rng.randint(1, 6), ["x", "y", "z"])
        s = {v: random_term(rng, 2, ["x"]) for v in rng.sample(["x", "y"], rng.randint(0, 2))}
        got = apply_term(s, t)
        assert got == scanned_apply(s, t)
        kinds["same" if got is t else "rebuilt"] += 1
    assert min(kinds.values()) >= 300, kinds


def scanned_apply(s, t):
    """t under s, rebuilding every application."""
    if isinstance(t, App):
        return App(scanned_apply(s, t.fun), scanned_apply(s, t.arg))
    return s.get(t.name, t) if isinstance(t, Var) else t


def test_deep_substitution_needs_no_deep_recursion():
    # a variable at the bottom of 10,000 nested applications, through
    # `apply_term` and through the kernel of a body too deep to compile
    code = """
from cohorn.syntax import App, Atom, Const, Var, apply_kernel, apply_term

def chain(t):
    for i in range(10_000):
        t = App(Const("S"), t) if i % 2 else App(t, Const("Z"))
    return t

s = {"x": App(Const("F"), Const("Int"))}
t, expected = chain(Var("x")), chain(s["x"])
assert apply_term(s, t) == expected
assert apply_kernel((Atom("P", (t,)),))(s) == (Atom("P", (expected,)),)
print("ok")
"""
    assert run_at_the_default_limit(code) == "ok\n"


# ---------------------------------------------------------------------------
# the cached groundness flag


def scanned_vars(t) -> list[str]:
    """Variable names in first-occurrence order, visiting every node."""
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Var) and t.name not in out:
            out.append(t.name)
        elif isinstance(t, App):
            stack += (t.arg, t.fun)
    return out


def test_groundness_flag_agrees_with_a_full_scan():
    rng = random.Random(5)
    kinds = Counter()
    for _ in range(2000):
        t = random_term(rng, rng.randint(1, 5), ["x", "y", "z"])
        if not isinstance(t, App):
            continue
        # share subterms, so some flags are filled before their parents'
        if rng.random() < 0.5:
            t.fun.ground() if isinstance(t.fun, App) else None
        assert t.ground() == (not scanned_vars(t))
        assert free_vars(t) == scanned_vars(t)
        assert free_vars(eq(t)) == scanned_vars(t)
        kinds[t.ground()] += 1
    assert min(kinds.values()) >= 200, kinds


def test_groundness_of_deep_terms_needs_no_deep_recursion():
    t = deep_term(100_000)
    assert t.ground() and free_vars(eq(t)) == []
    open_term = y
    for _ in range(100_000):
        open_term = App(Const("S"), open_term)
    assert not open_term.ground() and free_vars(open_term) == ["y"]


def test_pickled_terms_carry_no_groundness_flag():
    term = mk_app(Const("F"), Var("x"), pair(Int, Int))
    assert not term.ground() and term.arg.ground()
    for obj in (term, term.arg):
        assert "_ground" in vars(obj)
        assert "_ground" not in obj.__reduce_ex__(2)[2]
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == obj and "_ground" not in vars(copy)
        assert copy.ground() == obj.ground()
