"""Terms, atoms, Horn formulas, evidence terms and the operations shared by
the whole engine: substitution, one-sided matching, anti-unification
and symbol/variable multisets.

Conventions: variable names start lowercase, constant and predicate names
start uppercase. All node types are frozen dataclasses and safe to share.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional, Union


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Const:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Eigen:
    """A proof-local constant standing in for a universally quantified
    variable.  Distinct from Const by type, so it can never collide with a
    constant written by the user."""

    name: str

    def __repr__(self):
        return self.name


class _CachedHash:
    """Mixin for frozen dataclasses that keeps the field-tuple hash after
    the first call, so hashing a term that shares subterms already hashed
    costs only its new nodes.  `App` fills the caches of its uncached
    subterms bottom-up with an explicit stack, so a deep term costs no deep
    C-level recursion.  The cache stays out of pickled and copied state:
    string hashes differ between processes, and so does `App`'s groundness
    flag, filled the same way."""

    _hash = None

    def __hash__(self):
        h = self._hash
        if h is None:
            object.__setattr__(self, "_hash", h := hash(self._key()))
        return h

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        state.pop("_ground", None)
        return state


@dataclass(frozen=True)
class App(_CachedHash):
    fun: "Term"
    arg: "Term"

    _ground = None

    def __hash__(self):  # defined here, or dataclass would replace it
        """hash((fun, arg)), one tuple hash when the children are hashed; a
        node waits on `stack` while a child is an unhashed App."""
        h = self._hash
        if h is None:
            stack, node = [], self
            while True:
                fun, arg = node.fun, node.arg
                if fun.__class__ is App and fun._hash is None:
                    stack.append(node)
                    node = fun
                elif arg.__class__ is App and arg._hash is None:
                    stack.append(node)
                    node = arg
                else:
                    object.__setattr__(node, "_hash", h := hash((fun, arg)))
                    if not stack:
                        return h
                    node = stack.pop()
        return h

    def _key(self):
        return self.fun, self.arg

    def ground(self) -> bool:
        """Whether no variable occurs in the term, kept after the first
        call and filled bottom-up like the hash."""
        if self._ground is None:
            stack = [self]
            while stack:
                node = stack[-1]
                subterms = node.fun, node.arg
                missing = [t for t in subterms if type(t) is App and t._ground is None]
                if missing:
                    stack += missing
                else:
                    stack.pop()
                    ground = all(
                        getattr(t, "_ground", type(t) is not Var) for t in subterms
                    )
                    object.__setattr__(node, "_ground", ground)
        return self._ground

    def __eq__(self, other):
        """Structural equality of terms or of evidence, the evidence nodes
        sharing this method.  The pairs left to compare wait on `rest`, a
        linked list, so depth costs no recursion."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b, rest = self, other, None
        while True:
            if a is not b:
                cls = a.__class__
                if cls is not b.__class__:
                    return False
                if cls is App or cls is EApp:
                    rest = (a.arg, b.arg, rest)
                    a, b = a.fun, b.fun
                    continue
                if cls in _NAMED:
                    if a.name != b.name:
                        return False
                elif cls is ELam or cls is EMu:
                    if a.binder != b.binder:
                        return False
                    a, b = a.body, b.body
                    continue
                elif a != b:
                    return False
            if rest is None:
                return True
            a, b, rest = rest

    def __repr__(self):
        return render_term(self)


Term = Union[Var, Const, Eigen, App]

PAIR = "Pair"


def mk_app(head: Term, *args: Term) -> Term:
    t = head
    for a in args:
        t = App(t, a)
    return t


def pair(a: Term, b: Term) -> Term:
    return App(App(Const(PAIR), a), b)


def spine_term(t: Term) -> tuple[Term, list[Term]]:
    """Flatten left-nested applications into (head, args)."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, args


# ---------------------------------------------------------------------------
# Atoms and Horn formulas


@dataclass(frozen=True)
class Atom(_CachedHash):
    pred: str
    args: tuple[Term, ...] = ()

    __hash__ = _CachedHash.__hash__

    def _key(self):
        return self.pred, self.args

    def __repr__(self):
        return render_atom(self)


# Put the cached fields into the attribute keys that App's and Atom's
# instances share, before other instances exist: CPython adds no key to
# them once many instances were made, and an instance that then sets a
# missing one gets a dict of its own, so the first field a run happens to
# fill would decide how many terms carry one.
_probe = App(Const(PAIR), Const(PAIR))
_probe.ground(), hash(_probe), hash(Atom(PAIR))
del _probe


@dataclass(frozen=True)
class HornFormula:
    """body_1, ..., body_n => head, all variables implicitly universally
    quantified at the outermost level.  Well-formed formulas have no
    existential variables: every body variable occurs in the head."""

    body: tuple[Atom, ...]
    head: Atom

    def __repr__(self):
        return render_horn(self)


def fact(head: Atom) -> HornFormula:
    return HornFormula((), head)


# ---------------------------------------------------------------------------
# Evidence and mixed terms
#
# Mixed terms reuse the evidence constructors with MAtom leaves for not yet
# resolved atoms; a mixed term with no MAtom and no redex is plain evidence.


@dataclass(frozen=True)
class EAxiom:
    """Named axiom or proven-lemma constant."""

    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class EVar:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class EApp:
    fun: "Mixed"
    arg: "Mixed"

    __eq__ = App.__eq__

    def __repr__(self):
        return render_evidence(self)


@dataclass(frozen=True)
class ELam:
    binder: str
    body: "Mixed"

    __eq__ = App.__eq__

    def __repr__(self):
        return render_evidence(self)


@dataclass(frozen=True)
class EMu:
    binder: str
    body: "Mixed"

    __eq__ = App.__eq__

    def __repr__(self):
        return render_evidence(self)


@dataclass(frozen=True)
class MAtom:
    atom: Atom

    def __repr__(self):
        return render_evidence(self)


@dataclass(frozen=True)
class Hole:
    """Marker replacing a focused subterm when comparing contexts."""

    def __repr__(self):
        return "<*>"


Evidence = Union[EAxiom, EVar, EApp, ELam, EMu]
Mixed = Union[Evidence, MAtom, Hole]


def mk_eapp(head: Mixed, *args: Mixed) -> Mixed:
    e = head
    for a in args:
        e = EApp(e, a)
    return e


def spine_evidence(e: Mixed) -> tuple[Mixed, list[Mixed]]:
    args: list[Mixed] = []
    while isinstance(e, EApp):
        args.append(e.arg)
        e = e.fun
    args.reverse()
    return e, args


# ---------------------------------------------------------------------------
# Substitution

Subst = dict[str, Term]


def apply_term(s: Subst, t: Term) -> Term:
    """t under s; a ground application is returned as it is (`App.ground`).
    The nodes left to rebuild wait on `stack`, so depth costs no recursion."""
    if t.__class__ is Var:
        return s.get(t.name, t)
    if t.__class__ is not App or t.ground():
        return t
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        if t is None:  # the two newest results make an App
            arg = out.pop()
            out[-1] = App(out[-1], arg)
        elif t.__class__ is Var:
            out.append(s.get(t.name, t))
        elif t.__class__ is App and not t.ground():
            stack += (None, t.arg, t.fun)
        else:
            out.append(t)
    return out[0]


def apply(s: Subst, x):
    """Simultaneous substitution over a term, atom or Horn formula."""
    if x.__class__ is Atom:
        return Atom(x.pred, tuple([apply_term(s, a) for a in x.args]))
    if isinstance(x, (Var, Const, Eigen, App)):
        return apply_term(s, x)
    if isinstance(x, HornFormula):
        return HornFormula(tuple(apply(s, b) for b in x.body), apply(s, x.head))
    raise TypeError(f"no terms in {type(x).__name__}")


# ---------------------------------------------------------------------------
# Matching (one-sided unification)


def match_term(pattern: Term, subject: Term, binds: Subst) -> bool:
    """Extend `binds` so that the pattern matches the subject, left to
    right; the argument pairs left to match wait on `rest`, a linked list."""
    rest = None
    while True:
        if isinstance(pattern, Var):
            bound = binds.get(pattern.name)
            if bound is None:
                binds[pattern.name] = subject
            elif bound != subject:
                return False
        elif isinstance(pattern, App):
            if not isinstance(subject, App):
                return False
            rest = (pattern.arg, subject.arg, rest)
            pattern, subject = pattern.fun, subject.fun
            continue
        elif isinstance(pattern, Const):
            if not (isinstance(subject, Const) and pattern.name == subject.name):
                return False
        elif pattern != subject:  # an Eigen constant
            return False
        if rest is None:
            return True
        pattern, subject, rest = rest


def match(pattern: Atom, subject: Atom) -> Optional[Subst]:
    """Find the unique substitution s with apply(s, pattern) == subject, or
    None when there is none.  Variables in the subject are opaque: only a
    pattern variable can match them."""
    if pattern.pred != subject.pred or len(pattern.args) != len(subject.args):
        return None
    binds: Subst = {}
    for p, t in zip(pattern.args, subject.args):
        if not match_term(p, t, binds):
            return None
    # drop identity bindings so the result is idempotent
    return {x: t for x, t in binds.items() if not (isinstance(t, Var) and t.name == x)}


COMPILE_DEPTH = 32  # past this depth a compiled clause calls match_term or apply_term


def _compile_pattern(p: Term, seen: set[str], depth: int = 0):
    """(subject, binds) -> bool like `match_term`; x bound to x sets key None."""
    if p.__class__ is Var:
        x = p.name
        if x in seen:
            return lambda t, b: b[x] == t
        seen.add(x)

        def bind(t, b):
            b[x] = t
            if t.__class__ is Var and t.name == x:
                b[None] = True
            return True

        return bind
    if p.__class__ is not App or p.ground():
        return lambda t, b: t == p
    if depth == COMPILE_DEPTH:
        seen.update(free_vars(p))
        return lambda t, b: match_term(p, t, b) and b.setdefault(None, True)
    fun, arg = [_compile_pattern(u, seen, depth + 1) for u in (p.fun, p.arg)]
    return lambda t, b: t.__class__ is App and fun(t.fun, b) and arg(t.arg, b)


def compile_match(head: Atom):
    """A function equal to `lambda goal: match(head, goal)`."""
    pred, n, seen = head.pred, len(head.args), set()
    parts = [_compile_pattern(p, seen) for p in head.args]
    first, second = parts if n == 2 else (None, None)

    def matcher(goal: Atom) -> Optional[Subst]:
        args = goal.args
        if goal.pred != pred or len(args) != n:
            return None
        b: dict = {}
        if n == 2:  # a binary head needs no loop
            if not (first(args[0], b) and second(args[1], b)):
                return None
        else:
            for m, t in zip(parts, args):
                if not m(t, b):
                    return None
        if None in b:
            return {x: t for x, t in b.items() if x is not None and t != Var(x)}
        return b

    return matcher


def _compile_term(t: Term, depth: int = 0):
    """s -> apply_term(s, t), sharing the ground subterms of t."""
    if t.__class__ is Var:
        return lambda s: s.get(t.name, t)
    if t.__class__ is not App or t.ground():
        return lambda s: t
    if depth == COMPILE_DEPTH:
        return lambda s: apply_term(s, t)
    fun, arg = [_compile_term(u, depth + 1) for u in (t.fun, t.arg)]
    return lambda s: App(fun(s), arg(s))


def compile_apply(atoms: tuple[Atom, ...]):
    """A function equal to `lambda s: tuple(apply(s, a) for a in atoms)`."""
    parts = [(a.pred, [_compile_term(t) for t in a.args]) for a in atoms]
    if len(parts) == 1 and len(parts[0][1]) == 1:
        ((p, (f,)),) = parts
        return lambda s: (Atom(p, (f(s),)),)
    if len(parts) == 1 and len(parts[0][1]) == 2:
        ((p, (f, g)),) = parts
        return lambda s: (Atom(p, (f(s), g(s))),)
    return lambda s: tuple([Atom(p, tuple([f(s) for f in fs])) for p, fs in parts])


# ---------------------------------------------------------------------------
# Free variables and fresh names


def _iter_terms(x) -> Iterator[Term]:
    if isinstance(x, (Var, Const, Eigen, App)):
        yield x
    elif isinstance(x, Atom):
        yield from x.args
    elif isinstance(x, HornFormula):
        yield from x.head.args
        for b in x.body:
            yield from b.args
    else:
        raise TypeError(f"no terms in {type(x).__name__}")


def free_vars(x) -> list[str]:
    """Variable names in first-occurrence order.  Ground subterms are
    skipped in O(1) once their flag is filled (`App.ground`)."""
    seen: dict[str, None] = {}
    stack = list(_iter_terms(x))
    stack.reverse()
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            seen.setdefault(t.name, None)
        elif isinstance(t, App) and not t.ground():
            stack.append(t.arg)
            stack.append(t.fun)
    return list(seen)


def fresh_var_names(avoid: set[str]) -> Iterator[str]:
    i = 1
    while True:
        name = f"var_{i}"
        if name not in avoid:
            yield name
        i += 1


# ---------------------------------------------------------------------------
# Anti-unification


class PredicateMismatch(Exception):
    """Raised when anti-unifying atoms with different predicates or arities."""


def anti_unify(a: Atom, b: Atom) -> Atom:
    """Least general common generalization of two atoms.

    Shared constant-headed structure is retained; every mismatching pair of
    subterms is replaced through an injective map from term pairs to fresh
    variables, so equal mismatching pairs receive the same variable.
    """
    return anti_unify_all([a, b])


def anti_unify_all(atoms: list[Atom]) -> Atom:
    """Left fold of anti_unify over a nonempty list."""
    if not atoms:
        raise ValueError("anti_unify_all needs at least one atom")
    out = atoms[0]
    for a in atoms[1:]:
        out = _anti_unify2(out, a)
    return out


def _anti_unify2(a: Atom, b: Atom) -> Atom:
    """The argument pairs are generalized depth-first, left to right, so
    the fresh variables are numbered in that order.  The pairs left to
    generalize wait on `stack`; the None after an argument pair applies the
    application built so far to that pair's result.  Unequal cached hashes
    tell an unequal pair in O(1), so the whole walk is linear in the terms'
    size."""
    if a.pred != b.pred or len(a.args) != len(b.args):
        raise PredicateMismatch(f"cannot anti-unify {a!r} with {b!r}")
    avoid = set(free_vars(a)) | set(free_vars(b))
    names = fresh_var_names(avoid)
    phi: dict[tuple[Term, Term], Var] = {}
    out: list[Term] = []
    stack: list = list(zip(reversed(a.args), reversed(b.args)))
    while stack:
        key = stack.pop()
        if key is None:
            arg = out.pop()
            out[-1] = App(out[-1], arg)
            continue
        t, u = key
        if t is u or (hash(t) == hash(u) and t == u):
            out.append(t)
            continue
        th, targs = spine_term(t)
        uh, uargs = spine_term(u)
        if (
            isinstance(th, Const)
            and isinstance(uh, Const)
            and th.name == uh.name
            and len(targs) == len(uargs)
        ):
            out.append(th)
            for sub in reversed(list(zip(targs, uargs))):
                stack += (None, sub)
            continue
        if key not in phi:
            phi[key] = Var(next(names))
        out.append(phi[key])
    return Atom(a.pred, tuple(out))


# ---------------------------------------------------------------------------
# Symbol and variable multisets


def symbol_multiset(a: Atom) -> Counter:
    """Occurrences of every term-level constant.  The predicate symbol is
    not counted."""
    counts: Counter = Counter()
    stack: list[Term] = list(a.args)
    while stack:
        t = stack.pop()
        if isinstance(t, (Const, Eigen)):
            counts[t.name] += 1
        elif isinstance(t, App):
            stack.append(t.fun)
            stack.append(t.arg)
    return counts


def var_multiset(a: Atom) -> Counter:
    counts: Counter = Counter()
    stack: list[Term] = list(a.args)
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            counts[t.name] += 1
        elif isinstance(t, App):
            stack.append(t.fun)
            stack.append(t.arg)
    return counts


# ---------------------------------------------------------------------------
# Evidence utilities


def free_evars(e: Mixed) -> set[str]:
    out: set[str] = set()
    stack: list[tuple[Mixed, frozenset[str]]] = [(e, frozenset())]
    while stack:
        node, bound = stack.pop()
        if isinstance(node, EVar):
            if node.name not in bound:
                out.add(node.name)
        elif isinstance(node, EApp):
            stack.append((node.fun, bound))
            stack.append((node.arg, bound))
        elif isinstance(node, (ELam, EMu)):
            stack.append((node.body, bound | {node.binder}))
    return out


def subst_evidence(e: Mixed, name: str, repl: Mixed) -> Mixed:
    """Capture-avoiding replacement of the free evidence variable `name`.
    A binder that would capture a free variable of `repl` is renamed apart
    first, by a replacement of its own.

    The work waits on `todo` as (op, node, job), and the results pile up on
    `out`.  A job is (name, repl, free variables of repl, binders above).
    "go" replaces in node under job, "app" makes an EApp of the two newest
    results, "then" runs job on the newest (a binder's body, renamed or
    not), and "bind" wraps the newest in node's class under binder job."""
    out: list[Mixed] = []
    todo: list = [("go", e, (name, repl, free_evars(repl), frozenset()))]
    while todo:
        op, node, job = todo.pop()
        if op == "app":
            arg = out.pop()
            out[-1] = EApp(out[-1], arg)
        elif op == "bind":
            out[-1] = type(node)(job, out[-1])
        elif op == "then":
            todo.append(("go", out.pop(), job))
        elif isinstance(node, EApp):
            todo += (("app", None, None), ("go", node.arg, job), ("go", node.fun, job))
        elif isinstance(node, (ELam, EMu)) and node.binder != job[0]:
            x, r, r_free, bound = job
            binder = fresh = node.binder
            if binder in r_free:
                taken = r_free | free_evars(node.body) | bound
                k = 0
                while fresh in taken:
                    fresh = f"{binder}_{k}"
                    k += 1
            todo.append(("bind", node, fresh))
            # no binder captures a closed `repl`, so its job keeps no binders
            todo.append(("then", None, (x, r, r_free, bound | {fresh}) if r_free else job))
            if fresh == binder:
                out.append(node.body)
            else:
                rename = (binder, EVar(fresh), {fresh}, frozenset())
                todo.append(("go", node.body, rename))
        elif isinstance(node, EVar) and node.name == job[0] and node.name not in job[3]:
            out.append(job[1])
        else:
            out.append(node)
    return out[0]


# ---------------------------------------------------------------------------
# Rendering
#
# Atoms print as `Pred t1 ... tn`, applications left-associated with
# compound arguments parenthesized, pairs with the `(a, b)` sugar, lambdas
# as `\ a . e` and fixed points as `mu a . e` (the CLI renders stored
# lemmas through named recursion instead).


_NAMED = {Var, Const, Eigen, EAxiom, EVar}
_PAIR = Const(PAIR)


def render_term(x, atomic: bool = False) -> str:
    """Print a term, atom or mixed term.  `stack` holds what is left to
    print, last first: strings and (node, atomic) pairs."""
    out: list[str] = []
    stack: list = [(x, atomic)]
    while stack:
        t = stack.pop()
        if type(t) is str:
            out.append(t)
            continue
        t, atomic = t
        cls = type(t)
        if cls is MAtom:
            t, cls = t.atom, Atom
        if cls in _NAMED:
            out.append(t.name)
        elif cls is Hole:
            out.append("<*>")
        elif cls is App and type(t.fun) is App and t.fun.fun == _PAIR:
            out.append("(")
            stack += [")", (t.arg, False), ", ", (t.fun.arg, False)]
        elif cls is ELam or cls is EMu:
            kw = "mu" if cls is EMu else "\\"
            out.append(f"{'(' * atomic}{kw} {t.binder} . ")
            stack += [")", (t.body, False)] if atomic else [(t.body, False)]
        elif cls is Atom or cls is App or cls is EApp:
            if atomic and (cls is not Atom or t.args):
                out.append("(")
                stack.append(")")
            if cls is Atom:
                out.append(t.pred)
                args, head = reversed(t.args), None
            else:  # walk down the spine, meeting the arguments last first
                args, head = [], t
                while type(head) is cls:
                    args.append(head.arg)
                    head = head.fun
            for a in args:
                stack += [" " + a.name] if type(a) in _NAMED else [(a, True), " "]
            if head is not None:
                stack.append((head, True))
        else:
            raise TypeError(f"cannot render {cls.__name__}")
    return "".join(out)


render_atom = render_evidence = render_term


def render_horn(h: HornFormula) -> str:
    if not h.body:
        return render_atom(h.head)
    ctx = ", ".join(render_atom(b) for b in h.body)
    return f"({ctx}) => {render_atom(h.head)}"
