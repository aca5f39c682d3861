"""Big-step and small-step term-matching resolution with evidence, plus
resolution-tree construction.

The big-step solver is an explicit-stack machine (divergent searches reach
depths far beyond Python's recursion limit) with chronological backtracking
over clause choices, all bounded by fuel.  Its search state is immutable,
so a choice point stores it in O(1).
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import deque
from itertools import islice
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .syntax import (
    App,
    Atom,
    EAxiom,
    EVar,
    EApp,
    ELam,
    EMu,
    Evidence,
    HornFormula,
    MAtom,
    Mixed,
    Var,
    apply_kernel,
    free_vars,
    match,
    match_kernel,
    mk_eapp,
    render_atom,
)


class EntryKind(enum.Enum):
    AXIOM = "axiom"
    LEMMA = "lemma"
    HYP = "hypothesis"
    COHYP = "cohypothesis"


CLAUSE_KINDS = (EntryKind.AXIOM, EntryKind.LEMMA)
COLD_LOOKUPS = 8  # `match` scans of one (predicate, key) before compiling its heads


@dataclass(frozen=True)
class Entry:
    name: str
    formula: HornFormula
    evidence: Evidence
    kind: EntryKind

    def ref(self) -> Evidence:
        """The evidence node standing for this entry inside proofs."""
        if self.kind in CLAUSE_KINDS:
            return EAxiom(self.name)
        return EVar(self.name)

    @cached_property
    def matcher(self):
        """The head's `match_kernel`, made on first use and never pickled."""
        return match_kernel(self.formula.head)

    @cached_property
    def ground(self) -> bool:
        """Whether the head has no variable, so it matches only itself."""
        return not free_vars(self.formula.head)

    @cached_property
    def scoped(self) -> bool:
        """Whether every body variable occurs in the head, as the parser's
        scope rule demands, so a match at a ground atom grounds the body."""
        body = self.formula.body
        return not body or _var_names((self.formula.head,)).issuperset(_var_names(body))

    @cached_property
    def builder(self):
        """(ref(), the body's `apply_kernel`), made like `matcher`."""
        return self.ref(), apply_kernel(self.formula.body)

    def instantiate(self, sigma: dict) -> tuple[Evidence, tuple[Atom, ...]]:
        """(ref(), the body under sigma)."""
        ref, build = self.builder
        return ref, build(sigma)

    def __getstate__(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _var_names(atoms) -> set[str]:
    """The variable names in the atoms' terms, by a plain walk: about half
    the cost of `free_vars` or `var_multiset` on a small clause, as no
    order, count or ground flag is kept."""
    out, stack = set(), [t for a in atoms for t in a.args]
    while stack:
        t = stack.pop()
        if t.__class__ is App:
            stack += (t.fun, t.arg)
        elif t.__class__ is Var:
            out.add(t.name)
    return out


def axiom(name: str, formula: HornFormula) -> Entry:
    return Entry(name, formula, EAxiom(name), EntryKind.AXIOM)


def lemma(name: str, formula: HornFormula, evidence: Evidence) -> Entry:
    return Entry(name, formula, evidence, EntryKind.LEMMA)


def hypothesis(name: str, head: Atom) -> Entry:
    return Entry(name, HornFormula((), head), EVar(name), EntryKind.HYP)


def cohypothesis(name: str, formula: HornFormula) -> Entry:
    return Entry(name, formula, EVar(name), EntryKind.COHYP)


def index_key(atom: Atom):
    """The clause-index key of an atom's first argument: the class, name and
    argument count of its spine head symbol (a Const or Eigen), or None when
    the predicate is nullary or the first argument is a variable or has a
    variable spine head.  A clause head keyed k can only match a goal keyed
    k; a clause head keyed None may match any goal of its predicate, and a
    goal keyed None only such a clause."""
    if not atom.args:
        return None
    t = atom.args[0]
    n = 0
    while t.__class__ is App:
        t = t.fun
        n += 1
    if t.__class__ is Var:
        return None
    return t.__class__, t.name, n


class _ClauseStore:
    """Append-only list of axiom and lemma entries with their name and
    clause indexes.  Positions only grow, so every prefix stays valid while
    later entries are appended.  `index[pred][key]` lists, ascending, the
    positions of the heads a goal keyed `key` may match: those keyed `key`
    or None.  A head keyed None is filed into every list of its predicate,
    and a key's list starts as a copy of the None list, which serves the
    keys with no list of their own.  `lookups` maps a goal's (predicate,
    key) to its count of cold `matching` calls, then to its list.

    `overlap_from` is the least size at which two heads of one predicate
    share a key, or a head keyed None meets another head of its predicate,
    or None while neither has happened.  Heads with distinct keys cannot
    match one atom (`index_key`), so below that size no atom matches two
    heads."""

    def __init__(self, entries=()):
        self.entries: list[Entry] = []
        self.positions: dict[str, int] = {}
        self.index: dict[str, dict] = {}
        self.lookups: dict[tuple, object] = {}
        self.overlap_from: Optional[int] = None
        for e in entries:
            self.append(e)

    def append(self, entry: Entry):
        pos = len(self.entries)
        self.entries.append(entry)
        self.positions[entry.name] = pos
        head = entry.formula.head
        pred, key = head.pred, index_key(head)
        lists = self.index.setdefault(pred, {None: []})
        if self.overlap_from is None and (
            any(lists.values()) if key is None else lists.get(key, lists[None])
        ):
            self.overlap_from = pos + 1
        if key is not None and key not in lists:
            lists[key] = lists[None][:]
            if self.lookups.get((pred, key)) is lists[None]:  # warmed on it
                self.lookups[pred, key] = lists[key]
        for ps in lists.values() if key is None else (lists[key],):
            ps.append(pos)

    def heads(self, pred: str, key) -> list[int]:
        """The list in `index` for a goal of `pred` keyed `key`."""
        lists = self.index.setdefault(pred, {None: []})
        return lists.get(key, lists[None])


class AxiomEnv:
    """Ordered sequence of named, evidence-backed Horn formulas.

    Axioms and lemmas live in a clause store indexed by predicate and by
    `index_key` of the head, the head symbol of its first argument; heads
    whose first argument is a variable or has a variable spine head (as in
    `Eq (f (Mu f) a)`) are keyed None and filed under every key of their
    predicate.  `matching` matches only the heads filed under the goal's
    key, newest first.

    Environments are not mutated in place.  The store is append-only and
    shared by an environment and everything extended from it; each
    environment sees the first `n` stored clauses.  `extended` appends in
    place when the environment is the store's tip, fast-forwards when the
    next stored clause is the same entry, and otherwise copies the prefix
    into a new store.  Hypotheses and cohypotheses stay in a small
    per-environment tuple and never touch the store.  Extending
    environments that share a store from two threads at once is not safe;
    reading them concurrently is.
    """

    def __init__(self, entries=()):
        self._store = _ClauseStore()
        self._size = 0
        self.assumptions: tuple[Entry, ...] = ()
        # for each assumption, the number of clauses before it
        self._marks: tuple[int, ...] = ()
        self._add(tuple(entries))

    def extended(self, *entries: Entry) -> "AxiomEnv":
        env = object.__new__(AxiomEnv)
        env._store, env._size = self._store, self._size
        env.assumptions, env._marks = self.assumptions, self._marks
        env._add(entries)
        return env

    def _add(self, entries: tuple[Entry, ...]):
        names = {e.name for e in entries}
        if len(names) != len(entries) or any(
            self.lookup(name) is not None for name in names
        ):
            raise ValueError("duplicate entry names in environment")
        for e in entries:
            store, n = self._store, self._size
            if e.kind not in CLAUSE_KINDS:
                self.assumptions += (e,)
                self._marks += (n,)
                continue
            if n < len(store.entries) and store.entries[n] != e:
                store = self._store = _ClauseStore(store.entries[:n])
            if n == len(store.entries):
                store.append(e)
            self._size = n + 1

    @property
    def entries(self) -> tuple[Entry, ...]:
        clauses = self._store.entries
        out: list[Entry] = []
        start = 0
        for mark, e in zip(self._marks, self.assumptions):
            out.extend(clauses[start:mark])
            out.append(e)
            start = mark
        out.extend(clauses[start : self._size])
        return tuple(out)

    def lookup(self, name: str) -> Optional[Entry]:
        pos = self._store.positions.get(name)
        if pos is not None and pos < self._size:
            return self._store.entries[pos]
        for e in self.assumptions:
            if e.name == name:
                return e
        return None

    def clauses(self) -> list[Entry]:
        return self._store.entries[: self._size]

    def heads_overlap(self) -> bool:
        """Whether some atom may match two axiom or lemma heads, so that
        `build_tree` may raise OverlapError somewhere: the store's
        `overlap_from`, set when a clause is stored, is at most the size."""
        at = self._store.overlap_from
        return at is not None and at <= self._size

    def matching(self, goal: Atom) -> list[tuple[Entry, dict]]:
        """(entry, sigma) for each axiom and lemma whose head matches `goal`,
        newest first, from the store's list for the goal's predicate and key
        below this environment's size.  The store counts the lookups per
        (predicate, key) and runs `match` for the first COLD_LOOKUPS, then
        each head's compiled kernel.  A list only grows and every position
        below the size is filed before the environment exists, so the slice
        is exact, for a concurrent reader too."""
        store, n, pred, key = self._store, self._size, goal.pred, index_key(goal)
        ps = store.lookups.get((pred, key), 0)
        if ps.__class__ is int:
            if ps < COLD_LOOKUPS:
                store.lookups[pred, key] = ps + 1
                ps = store.heads(pred, key)
                found = [store.entries[p] for p in reversed(ps[: bisect_left(ps, n)])]
                found = [(e, match(e.formula.head, goal)) for e in found]
                return [(e, s) for e, s in found if s is not None]
            ps = store.lookups[pred, key] = store.heads(pred, key)
            # a writer that made the key's own list after `heads` read the
            # None list found no list in `lookups` to repoint
            if (now := store.heads(pred, key)) is not ps:
                ps = store.lookups[pred, key] = now
        if len(ps) == 1 and ps[0] < n:  # a lone candidate, the common case
            e = store.entries[ps[0]]
            s = e.matcher(goal)
            return [] if s is None else [(e, s)]
        found = [store.entries[p] for p in reversed(ps[: bisect_left(ps, n)])]
        return [(e, s) for e in found if (s := e.matcher(goal)) is not None]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return self._size + len(self.assumptions)

    def __repr__(self):
        return f"AxiomEnv({', '.join(e.name for e in self.entries)})"


# ---------------------------------------------------------------------------
# Errors and fuel


class FuelExhausted(Exception):
    """The step budget ran out; the derivation may be divergent.  `resolve`'s
    cycle rule sets `atom` and `depth` to the atom repeated and the guard
    depth of the repeat.  The message is empty."""

    def __init__(self, atom: Optional[Atom] = None, depth: Optional[int] = None):
        super().__init__()
        self.atom, self.depth = atom, depth


class Stuck(Exception):
    def __init__(self, goal: Atom):
        super().__init__(f"no clause matches {render_atom(goal)}")
        self.goal = goal


class GuardViolation(Exception):
    """The only derivations found use the coinductive hypothesis at an
    unguarded position, so the fixed point would not be head-normal."""

    def __init__(self, goal: Atom):
        super().__init__(
            f"coinductive hypothesis matches {render_atom(goal)} only at an "
            "unguarded position"
        )
        self.goal = goal


class OverlapError(Exception):
    def __init__(self, goal: Atom, names: list[str]):
        super().__init__(
            f"{len(names)} clause heads match {render_atom(goal)}: "
            + ", ".join(names)
        )
        self.goal = goal
        self.names = names


@dataclass
class Fuel:
    remaining: int

    def spend(self, n: int = 1):
        self.remaining -= n
        if self.remaining < 0:
            raise FuelExhausted()


# ---------------------------------------------------------------------------
# Clause selection


def candidates(env: AxiomEnv, goal: Atom, depth: int):
    """The (entry, substitution) pairs tried against a subgoal at guard
    depth `depth`, in order: hypotheses first (exact atom match), then the
    coinductive hypothesis when the subgoal sits strictly beneath at least
    one axiom or lemma application, then axioms and lemmas newest first.
    Also a flag that is set when a cohypothesis matched but was withheld by
    the guardedness restriction.  With no assumptions in scope this is
    plain resolution's order, which `resolve` asks `AxiomEnv.matching` for
    directly."""
    hyps = []
    cohyps = []
    blocked = False
    for e in reversed(env.assumptions):
        if e.kind is EntryKind.HYP:
            if e.formula.head == goal:
                hyps.append((e, {}))
        else:
            head = e.formula.head
            if e.ground:  # rejected by its cached hash, not by a walk
                s = {} if hash(head) == hash(goal) and head == goal else None
            else:
                s = match(head, goal)
            if s is not None:
                if depth >= 1:
                    cohyps.append((e, s))
                else:
                    blocked = True
    return hyps + cohyps + env.matching(goal), blocked


# ---------------------------------------------------------------------------
# Big-step resolution


FIRST_CYCLE_CHECK = 16


def _path_repeats(todo, seen: list):
    """A closer of `todo`, the derivation path, whose atom another closer
    there proves too, at guard depths that are equal or both >= 1, or
    None.  `seen` carries one `resolve` call's last walk: [its topmost
    closer cell, the atoms proved at depth 0, those at depth >= 1] on the
    path from that cell down.  A walk that meets the cell adds only the
    closers above it; one that reaches the bottom without meeting it builds
    the sets afresh."""
    mark, new = seen[0], []
    while todo is not None and todo is not mark:
        if len(todo) == 6:
            new.append(todo)
        todo = todo[-1]
    if todo is None:
        seen[:] = None, set(), set()
    if new:
        seen[0] = new[0]
    for cell in new:
        atoms = seen[1 + (cell[3] >= 1)]
        if cell[2] in atoms:
            return cell
        atoms.add(cell[2])
    return None


def resolve(env: AxiomEnv, goal: Atom, fuel: Fuel | int = 10_000) -> Evidence:
    """Prove an atomic goal by term-matching resolution, corecursively when
    `env` holds hypotheses or a coinductive hypothesis.

    Clause choice follows `candidates`, or `AxiomEnv.matching` alone with no
    assumptions in scope, with chronological backtracking, one fuel unit
    per clause application.  With no assumptions, a subgoal whose warm
    index list holds one clause, below this size, is matched by that
    clause's kernel directly: `matching`'s answer, with no list built.
    Raises FuelExhausted when the budget runs out, Stuck when every
    alternative fails, and GuardViolation when failure is due only to the
    guardedness restriction.

    The search state is immutable, so a choice point stores it in O(1):
    `todo` links pending work, leftmost first: subgoals (atom, depth, rest)
    and closers (ref, n, atom, depth, applied, rest).  A closer
    follows the n body subgoals of the clause application that proved atom
    at guard depth `depth` and applies ref to their n proofs; `done` links
    the proofs found so far, newest first.  A choice point is (candidates,
    next index, atom, depth, todo, done).

    Cycle rule: FuelExhausted, carrying the atom and depth, is also raised
    as soon as the current derivation path, the closers in `todo`, proves
    one atom twice at guard depths that are equal or both >= 1, since
    `candidates` offers the same pairs at such depths.  Subgoals share no
    variables, so the search below the repeat replays the search below its
    first occurrence: it meets the atom again, and the continuation that
    rejected the first occurrence's solutions rejects the repeat's.  No
    answer or failure can follow, and with any finite budget the run would
    end in FuelExhausted anyway.  The path is checked when the count of
    clause applications reaches 16, 32, 64, ..., so the checks cost
    amortised O(1) per application; terms cache their hashes, so hashing a
    path costs only its newly built terms, and a check walks only the
    closers pushed since the last one while that one's topmost closer is
    still on the path.

    Replay: a closer records its atom, per guard class, with its proof and
    the applications its subtree took, when the subtree was choice-free:
    no choice point, dead end or withheld cohypothesis (`last_event`) came
    after the atom was popped.  A later equal subgoal gets that proof and
    is charged that count, leaving the state the skipped search would: each
    checkpoint inside the span is checked on the current path, with the
    fuel lowered up to it, and a count beyond the budget leaves `remaining`
    at -1.  This is exact.  `candidates` depends only on (env, atom, guard
    class), so a choice-free subtree is a function of those three, and
    backtracking never re-enters it.  A finite completed subtree holds no
    path repeat, nor a repeat of an atom above it: its search would then
    contain itself.  So a skipped checkpoint could only fire on the path
    above the subgoal, which is what the replay checks.
    """
    if isinstance(fuel, int):
        fuel = Fuel(fuel)
    plain, matching = not env.assumptions, env.matching
    lookups, entries, size = env._store.lookups, env._store.entries, env._size
    todo = (goal, 0, None)
    done = None
    choices: list[tuple] = []
    stuck_at: Optional[Atom] = None
    saw_blocked = blocked = False
    applied = 0
    next_check = FIRST_CYCLE_CHECK
    # `applied` when a choice point was last pushed, a dead end met or a
    # cohypothesis withheld; an application follows each before a new pop
    last_event = -1
    solved = {}, {}  # atom -> (proof, applications), at depth 0 and >= 1
    seen = [None, set(), set()]  # see `_path_repeats`

    while todo is not None:
        if len(todo) == 6:  # a closer: apply ref to the n newest proofs
            ref, n, atom, depth, start, todo = todo
            args = []
            for _ in range(n):
                ev, done = done
                args.append(ev)
            ev = mk_eapp(ref, *reversed(args))
            done = (ev, done)
            if last_event < start:
                solved[depth >= 1][atom] = ev, applied - start
            continue
        atom, depth, todo = todo
        table = solved[depth >= 1]
        if table and (hit := table.get(atom)) is not None:
            ev, end = hit[0], applied + hit[1]
            while next_check <= min(end, applied + fuel.remaining):
                fuel.remaining -= next_check - applied
                applied, next_check = next_check, 2 * next_check
                if cell := _path_repeats(todo, seen):
                    raise FuelExhausted(cell[2], cell[3])
            # past the budget, stop at -1 as one `spend` at a time does
            fuel.remaining = max(fuel.remaining - (end - applied), -1)
            if fuel.remaining < 0:
                raise FuelExhausted()
            applied = end
            done = (ev, done)
            continue
        sigma = None
        if plain:  # a lone warm candidate: `matching`'s answer, with no list
            ps = lookups.get((atom.pred, index_key(atom)))
            if ps.__class__ is list and len(ps) == 1 and ps[0] < size:
                entry = entries[ps[0]]
                sigma = entry.matcher(atom)
        if sigma is None:
            if plain:
                cands = matching(atom)
            else:
                cands, blocked = candidates(env, atom, depth)
                saw_blocked = saw_blocked or blocked
            if blocked or len(cands) != 1:
                last_event = applied
            i = 0
            if len(cands) > 1:
                choices.append((cands, 1, atom, depth, todo, done))
            elif not cands:
                # dead end: chronological backtracking
                if stuck_at is None and not blocked:
                    stuck_at = atom
                if not choices:
                    if saw_blocked and stuck_at is None:
                        raise GuardViolation(goal)
                    raise Stuck(stuck_at if stuck_at is not None else goal)
                cands, i, atom, depth, todo, done = choices.pop()
                if i + 1 < len(cands):
                    choices.append((cands, i + 1, atom, depth, todo, done))
            entry, sigma = cands[i]
        fuel.remaining -= 1  # `Fuel.spend`, inline
        if fuel.remaining < 0:
            raise FuelExhausted()
        ref, build = entry.builder
        body = build(sigma)
        todo = (ref, len(body), atom, depth, applied, todo)
        child = depth + 1 if plain or entry.kind in CLAUSE_KINDS else depth
        for b in reversed(body):
            todo = (b, child, todo)
        applied += 1
        if applied == next_check:
            next_check *= 2
            if cell := _path_repeats(todo, seen):
                raise FuelExhausted(cell[2], cell[3])
    return done[0]


# ---------------------------------------------------------------------------
# Small-step resolution

Path = tuple[int, ...]


BINDER = -1  # the arity of a closer that rebuilds an ELam or EMu


def _push(item, stack):
    """Put one finished item on `stack` (a linked list, newest first): an
    atom as its MAtom, a closer (head, n) applied to the subterms it pops,
    a leaf as it is."""
    cls = item.__class__
    if cls is Atom:
        return MAtom(item), stack
    if cls is not tuple:
        return item, stack
    head, n = item
    if n == BINDER:
        body, stack = stack
        return type(head)(head.binder, body), stack
    args = []
    for _ in range(n):
        arg, stack = stack
        args.append(arg)
    if head is None:
        head, stack = stack
    return mk_eapp(head, *reversed(args)), stack


def _cells(state: Mixed) -> list:
    """The items whose fold by `_push` rebuilds `state`, rightmost first:
    its leaves, and after the parts of each application a closer (None, 1)
    and of each binder a closer (node, BINDER)."""
    items, stack = [], [state]
    while stack:
        node = stack.pop()
        if isinstance(node, EApp):
            items.append((None, 1))
            stack += (node.fun, node.arg)
        elif isinstance(node, (ELam, EMu)):
            items.append((node, BINDER))
            stack.append(node.body)
        else:
            items.append(node)
    return items


def iter_atoms(state: Mixed):
    """Yield every atom leaf, leftmost-outermost first."""
    for item in reversed(_cells(state)):
        if item.__class__ is MAtom:
            yield item.atom


def subst_leaf(state: Mixed, old: Mixed, new: Mixed) -> Mixed:
    """`state` with each leaf equal to `old` replaced by `new`, rebuilt by
    a loop at any depth."""
    stack = None
    for item in reversed(_cells(state)):
        stack = _push(new if item == old else item, stack)
    return stack[0]


class StepMachine:
    """Small-step resolution from `state`: each step rewrites the leftmost
    reducible atom through the newest matching clause.  The environment is
    fixed, so an atom found irreducible stays irreducible, nothing left of
    a rewrite ever changes again, and the cursor only moves right.

    The machine is laid out like `resolve`'s search state.  `todo` links
    the pending work, leftmost first: atoms (atom, (entry, sigma) or None,
    rest), each with the newest clause matching it, and (item, rest) for a
    closer or a leaf.  A closer (head, n) follows the parts of an
    application and applies head to the n subterms they leave (head None:
    the first part is the head), and (node, BINDER) rebuilds an ELam or
    EMu around its body.  A rewrite pushes a closer ((ref, n), atom, step
    count, rest) after the n body atoms; `state` is flattened into the same
    cells once.  `done` links the subterms the cursor has passed, newest
    first, folded as it passes them; `state()` folds the pending cells.
    Each body atom is matched once, when it is made, which gives the count
    of reducible atoms; its clause body is instantiated only when the atom
    is rewritten.  A step costs O(body size) amortised.

    Replay: once the cursor passes a rewrite's closer, the atom's subtrace
    has ended, and `_finished` maps the atom to its normal form and the
    steps the subtrace took.  That subtrace is a function of the atom
    alone, so `advance(limit)` may put the normal form in the atom's place
    in one move, charged those steps."""

    def __init__(self, env: AxiomEnv, state: Mixed):
        self.env = env
        self.steps = 0
        self.reducible = 0
        self._finished: dict[Atom, tuple[Mixed, int]] = {}
        self._done = None
        todo = None
        for item in _cells(state):
            if item.__class__ is MAtom:
                todo = (item.atom, self._clause(item.atom), todo)
                self.reducible += todo[1] is not None
            else:
                todo = (item, todo)
        self._todo = todo

    def _clause(self, atom: Atom):
        """(entry, sigma) of the newest clause matching `atom`, or None."""
        found = self.env.matching(atom)
        return found[0] if found else None

    def redex(self) -> Optional[Atom]:
        """Move the cursor to the leftmost reducible atom and return it, or
        None at a normal form."""
        todo, done = self._todo, self._done
        while todo is not None:
            if len(todo) == 2:
                item, todo = todo
            elif len(todo) == 4:
                item, atom, start, todo = todo
                done = _push(item, done)
                self._finished[atom] = done[0], self.steps - start
                continue
            elif todo[1] is None:
                item, _, todo = todo
            else:
                break
            done = _push(item, done)
        self._todo, self._done = todo, done
        return None if todo is None else todo[0]

    def advance(self, limit: Optional[int] = None) -> bool:
        """Rewrite the leftmost reducible atom; False at a normal form.
        With a `limit`, a finished atom whose subtrace ends within it is
        replaced by its normal form instead, all its steps in one move."""
        atom = self.redex()
        if atom is None:
            return False
        _, (entry, sigma), todo = self._todo
        hit = self._finished.get(atom) if limit and self._finished else None
        if hit is not None and self.steps + hit[1] <= limit:
            self._todo = (hit[0], todo)
            self.reducible -= 1
            self.steps += hit[1]
            return True
        ref, body = entry.instantiate(sigma)
        found = [self._clause(b) for b in body]
        todo = ((ref, len(body)), atom, self.steps, todo)
        for b, f in zip(reversed(body), reversed(found)):
            todo = (b, f, todo)
        self._todo = todo
        self.reducible += len(found) - found.count(None) - 1
        self.steps += 1
        return True

    def run(self, limit: int) -> int:
        """Advance, replaying finished atoms, until `limit` steps in all or
        a normal form; the step count."""
        while self.steps < limit and self.advance(limit):
            pass
        return self.steps

    def state(self, focus: Optional[Mixed] = None) -> Mixed:
        """The current state, or `focus` plugged in for the leftmost
        reducible atom (the whole state at a normal form)."""
        if focus is not None and self.redex() is None:
            return focus
        stack, todo = self._done, self._todo
        if focus is not None:
            stack, todo = (focus, stack), todo[-1]
        while todo is not None:
            stack, todo = _push(todo[0], stack), todo[-1]
        return stack[0]


def small_steps(env: AxiomEnv, state: Mixed):
    """The small-step trace from `state`: the state itself, then the state
    after each `StepMachine.advance`, up to a normal form if there is one."""
    m = StepMachine(env, state)
    yield state
    while m.advance():
        yield m.state()


def trace(env: AxiomEnv, goal: Atom, max_steps: int = 10_000) -> list[Mixed]:
    """The first max_steps rewrites of the goal's small-step trace, with
    the goal in front; the list ends early at a normal form."""
    return list(islice(small_steps(env, MAtom(goal)), max_steps + 1))


def count_steps(env: AxiomEnv, goal: Atom, max_steps: int = 10_000) -> int:
    """len(trace(env, goal, max_steps)) - 1, by `StepMachine.run`."""
    return StepMachine(env, MAtom(goal)).run(max_steps)


# ---------------------------------------------------------------------------
# Resolution trees


class NodeStatus(enum.Enum):
    INTERNAL = "internal"
    SUCCESS = "success"  # the box leaf under an empty-body clause
    STUCK = "stuck"  # no clause head matches; genuinely irreducible
    UNEXPANDED = "unexpanded"  # cut off by the depth or node bound


@dataclass
class ResolutionTree:
    """Position-indexed unfolding of a goal.

    Positions are tuples of 1-based child indices; () is the root.  For an
    expanded position w, clause_at[w] names the clause applied there, so
    the edge (w, i) carries the projection clause_at[w]^i.  Success leaves
    have no atom.  `nodes` is in breadth-first order.  `formulas`
    snapshots the formula of every clause used, so the tree is
    self-contained for loop analysis.  `frontier` lists, in breadth-first
    order, the positions reached where unfolding was told to stop.
    """

    root: Atom
    nodes: dict[Path, Optional[Atom]]
    status: dict[Path, NodeStatus]
    clause_at: dict[Path, str]
    formulas: dict[str, HornFormula]
    truncated: bool
    frontier: list[Path]

    def children(self, pos: Path) -> list[Path]:
        out = []
        i = 1
        while (pos + (i,)) in self.nodes:
            out.append(pos + (i,))
            i += 1
        return out

    def leaves(self) -> list[tuple[Path, Atom, bool]]:
        """(position, atom, is_frontier) for every non-success leaf, in
        breadth-first order."""
        stops = set(self.frontier)
        return [
            (pos, atom, pos in stops)
            for pos, atom in self.nodes.items()
            if self.status[pos] in (NodeStatus.STUCK, NodeStatus.UNEXPANDED)
        ]


def _unique_clause(env: AxiomEnv, goal: Atom):
    found = env.matching(goal)
    if len(found) > 1:
        raise OverlapError(goal, [e.name for e, _ in reversed(found)])
    return found[0] if found else None


def build_tree(
    env: AxiomEnv,
    goal: Atom,
    depth_bound: int = 50,
    node_bound: int = 10_000,
    stop_at: frozenset[Path] = frozenset(),
) -> ResolutionTree:
    """Breadth-first resolution tree, truncated at the given number of node
    levels (the root is level 0) and total node count.  Success leaves are
    always completed, so an empty-body clause never counts against the
    depth.  Positions in `stop_at` are left unexpanded, without truncating
    the tree, and listed in its `frontier`.  Raises OverlapError when two
    clause heads match one expanded node."""
    if depth_bound <= 0 or node_bound <= 0:
        raise ValueError("tree bounds must be positive")
    nodes: dict[Path, Optional[Atom]] = {(): goal}
    status: dict[Path, NodeStatus] = {}
    clause_at: dict[Path, str] = {}
    formulas: dict[str, HornFormula] = {}
    frontier: list[Path] = []
    truncated = False
    queue: deque[Path] = deque([()])
    count = 1
    while queue:
        pos = queue.popleft()
        if pos in stop_at:
            status[pos] = NodeStatus.UNEXPANDED
            frontier.append(pos)
            continue
        atom = nodes[pos]
        found = _unique_clause(env, atom)
        if found is None:
            status[pos] = NodeStatus.STUCK
            continue
        entry, sigma = found
        depth = len(pos)
        if entry.formula.body and (depth + 1 >= depth_bound or count >= node_bound):
            status[pos] = NodeStatus.UNEXPANDED
            truncated = True
            continue
        status[pos] = NodeStatus.INTERNAL
        clause_at[pos] = entry.name
        formulas[entry.name] = entry.formula
        if not entry.formula.body:
            nodes[pos + (1,)] = None
            status[pos + (1,)] = NodeStatus.SUCCESS
            count += 1
            continue
        for i, b in enumerate(entry.instantiate(sigma)[1], start=1):
            child = pos + (i,)
            nodes[child] = b
            count += 1
            queue.append(child)
    return ResolutionTree(goal, nodes, status, clause_at, formulas, truncated, frontier)
