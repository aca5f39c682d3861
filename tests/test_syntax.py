import pickle
import random
from collections import Counter

import pytest

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
    compile_apply,
    compile_match,
    free_vars,
    match,
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


# ---------------------------------------------------------------------------
# compiled clause heads and bodies


def test_compiled_heads_and_bodies_agree_with_match_and_apply():
    rng = random.Random(99)
    kinds = Counter()
    S = Const("S")
    deep = x
    for _ in range(COMPILE_DEPTH + 8):  # past the depth where `match_term` takes over
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
        matcher = compile_match(head)
        for goal in goals:
            got = matcher(goal)
            assert got == match(head, goal), (head, goal)
            kinds["hit" if got else "identity" if got == {} else "miss"] += 1
        body = tuple(random_atom(rng, rng.randint(0, 2), free_vars(head) or ["x"]) for _ in range(2))
        body += (head,)
        build = compile_apply(body)
        for sigma in (match(head, g) for g in goals):
            sigma = sigma or {v: random_term(rng, 2, ["z"]) for v in free_vars(head)[:1]}
            assert build(sigma) == tuple(apply(sigma, b) for b in body)
    assert min(kinds.values()) >= 500, kinds


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
    # `apply_term` and through a compiled body capped at COMPILE_DEPTH
    code = """
from cohorn.syntax import App, Atom, Const, Var, apply_term, compile_apply

def chain(t):
    for i in range(10_000):
        t = App(Const("S"), t) if i % 2 else App(t, Const("Z"))
    return t

s = {"x": App(Const("F"), Const("Int"))}
t, expected = chain(Var("x")), chain(s["x"])
assert apply_term(s, t) == expected
assert compile_apply((Atom("P", (t,)),))(s) == (Atom("P", (expected,)),)
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
