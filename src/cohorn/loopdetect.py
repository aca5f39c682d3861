"""Divergence analysis on resolution trees: Paterson's condition, critical
triples, closed subtrees, abstract representations and candidate-lemma
extraction.

A critical triple is a pair of ancestor/descendant nodes reached through
the same Paterson-failing projection; a tree without one is necessarily
finite, so triples over-approximate divergence.  The closed subtree prunes
the tree at such repeats, anti-unification of its root with the critical
leaves gives an abstract root, and unfolding that root yields the tree the
candidate lemma is read off from.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Optional, Union

from .resolve import (
    AxiomEnv,
    FuelExhausted,
    NodeStatus,
    Path,
    ResolutionTree,
    build_tree,
)
from .syntax import (
    Atom,
    HornFormula,
    Var,
    anti_unify_all,
    apply,
    free_vars,
    render_atom,
    symbol_multiset,
    var_multiset,
)


@dataclass(frozen=True)
class Projection:
    """kappa^i : body_atom => head, the i-th projection of a clause."""

    clause: str
    index: int
    body_atom: Atom
    head: Atom


def projection(name: str, formula: HornFormula, index: int) -> Projection:
    return Projection(name, index, formula.body[index - 1], formula.head)


def _measure(a: Atom) -> Counter:
    # symbols and variables never collide: names are case-disjoint
    return symbol_multiset(a) + var_multiset(a)


def _strict_sub_multiset(small: Counter, big: Counter) -> bool:
    if any(n > big[k] for k, n in small.items()):
        return False
    return sum(small.values()) < sum(big.values())


def paterson_ok(body_atom: Atom, head: Atom) -> bool:
    """Paterson's condition for `body_atom => head`: the body atom's
    symbol+variable multiset is a strict sub-multiset of the head's."""
    return _strict_sub_multiset(_measure(body_atom), _measure(head))


# ---------------------------------------------------------------------------
# Critical triples


@dataclass(frozen=True)
class CriticalTriple:
    projection: Projection
    upper: Path
    lower: Path


def _bfs_order(positions) -> list[Path]:
    return sorted(positions, key=lambda p: (len(p), p))


def _failing_projections(tree: ResolutionTree) -> dict[tuple[str, int], Projection]:
    """Paterson verdicts depend only on the clause, so compute them once
    per tree; only failing projections matter for triples."""
    out: dict[tuple[str, int], Projection] = {}
    for name, formula in tree.formulas.items():
        for i in range(1, len(formula.body) + 1):
            proj = projection(name, formula, i)
            if not paterson_ok(proj.body_atom, proj.head):
                out[(name, i)] = proj
    return out


def _repeat_chains(tree: ResolutionTree, failing: dict):
    """One breadth-first pass over the expanded nodes.  Yields (lower,
    chain) for every node that has an ancestor applying the same clause
    whose edge toward it carries a Paterson-failing projection; `chain`
    holds those ancestors' depths as a persistent stack (depth, shallowest
    depth, rest), deepest first.  Each node carries one such stack per
    clause, shared with its parent unless its own edge is failing."""
    queue: deque = deque([((), {})])
    while queue:
        pos, chains = queue.popleft()
        name = tree.clause_at.get(pos)
        if name is None:
            continue
        chain = chains.get(name)
        if chain is not None:
            yield pos, chain
        depth = len(pos)
        for i in range(1, len(tree.formulas[name].body) + 1):
            if (name, i) in failing:
                below = dict(chains)
                below[name] = (depth, depth if chain is None else chain[1], chain)
                queue.append((pos + (i,), below))
            else:
                queue.append((pos + (i,), chains))


def find_critical_triples(tree: ResolutionTree) -> list[CriticalTriple]:
    """All ancestor/descendant pairs whose equal-index edges carry the same
    Paterson-failing projection, in breadth-first order of the lower node
    and then of the upper.  The descendant may sit directly below the
    ancestor's edge.  Costs O(nodes + triples)."""
    failing = _failing_projections(tree)
    out = []
    for lower, chain in _repeat_chains(tree, failing):
        name = tree.clause_at[lower]
        depths = []
        while chain is not None:
            depths.append(chain[0])
            chain = chain[2]
        for cut in reversed(depths):
            out.append(CriticalTriple(failing[(name, lower[cut])], lower[:cut], lower))
    return out


# ---------------------------------------------------------------------------
# Closed subtrees


@dataclass
class ClosedSubtree:
    """A finite pruning of the tree below `root` whose non-success leaves
    all form critical triples with the root."""

    tree: ResolutionTree
    root: Path
    positions: list[Path]
    critical_leaves: list[Path]

    def root_atom(self) -> Atom:
        return self.tree.nodes[self.root]

    def leaf_atoms(self) -> list[Atom]:
        return [self.tree.nodes[p] for p in self.critical_leaves]


@dataclass
class NoClosedSubtree:
    reason: str
    inconclusive: bool
    root: Optional[Path] = None  # the least critical-triple upper, if any


def _is_critical_with(
    tree: ResolutionTree, failing: dict, upper: Path, pos: Path
) -> bool:
    name = tree.clause_at.get(upper)
    if name is None or tree.clause_at.get(pos) != name:
        return False
    return (name, pos[len(upper)]) in failing


def closed_subtree(tree: ResolutionTree) -> Union[ClosedSubtree, NoClosedSubtree]:
    """Prune the tree below the shallowest critical-triple upper.

    The root is chosen in one breadth-first pass that carries, per node,
    the depths of same-clause ancestors whose edge toward it fails
    Paterson's condition (`_repeat_chains`): the shallowest of them is the
    node's best upper, and the root is the least such upper in
    breadth-first order, so no triple is built and the pass stops as soon
    as the tree root itself qualifies.  Expansion then stops at success
    leaves and at critical descendants of that root.  Returns
    NoClosedSubtree when there is no critical triple, when a branch reaches
    the truncation frontier before closing, or when a branch ends
    irreducible without forming a triple.
    """
    failing = _failing_projections(tree)
    root: Optional[Path] = None
    for lower, chain in _repeat_chains(tree, failing):
        upper = lower[: chain[1]]
        if root is None or (len(upper), upper) < (len(root), root):
            root = upper
            if not root:
                break
    if root is None:
        return NoClosedSubtree(
            "no critical triple in the tree", inconclusive=tree.truncated
        )
    positions: list[Path] = []
    critical: list[Path] = []
    stack = [root]
    while stack:
        pos = stack.pop()
        positions.append(pos)
        if pos != root and _is_critical_with(tree, failing, root, pos):
            critical.append(pos)
            continue
        st = tree.status[pos]
        if st is NodeStatus.SUCCESS:
            continue
        if st is NodeStatus.UNEXPANDED:
            return NoClosedSubtree(
                f"truncation frontier reached at {pos} before the subtree closed",
                inconclusive=True,
                root=root,
            )
        if st is NodeStatus.STUCK:
            return NoClosedSubtree(
                f"branch ends irreducible at {render_atom(tree.nodes[pos])} "
                "without forming a critical triple",
                inconclusive=False,
                root=root,
            )
        stack.extend(reversed(tree.children(pos)))
    return ClosedSubtree(tree, root, _bfs_order(positions), _bfs_order(critical))


# ---------------------------------------------------------------------------
# Abstract representation


def abstract_representation(
    ct: ClosedSubtree, env: AxiomEnv, fuel: int = 1_000
) -> ResolutionTree:
    """The resolution tree of the anti-unifier of the closed subtree's root
    and critical leaves, stopped at the critical positions (rebased to the
    subtree's root).  The unfolding itself can diverge, so it is bounded by
    `fuel` nodes and levels: FuelExhausted when the tree is truncated."""
    base = len(ct.root)
    stops = frozenset(p[base:] for p in ct.critical_leaves)
    root = anti_unify_all([ct.root_atom()] + ct.leaf_atoms())
    tree = build_tree(env, root, fuel, fuel, stops)
    if tree.truncated:
        raise FuelExhausted()
    return tree


# ---------------------------------------------------------------------------
# Candidate lemmas


@dataclass(frozen=True)
class CandidateLemma:
    formula: HornFormula


def candidate_lemma(
    at: ResolutionTree, env: Optional[AxiomEnv] = None
) -> tuple[Optional[CandidateLemma], str]:
    """Read the candidate off the abstract representation: the root as
    head, and as body every non-success leaf B for which B => root
    satisfies Paterson's condition.  Returns (None, reason) when the
    formula would have existential variables or merely restates an
    existing clause."""
    head = at.root
    body = tuple(
        atom for _, atom, _ in at.leaves() if paterson_ok(atom, head)
    )
    formula = HornFormula(body, head)
    head_vars = set(free_vars(head))
    for b in body:
        for v in free_vars(b):
            if v not in head_vars:
                return None, (
                    f"discarded: variable {v!r} of body atom {render_atom(b)} "
                    "does not occur in the head"
                )
    if env is not None:
        for e in env.clauses():
            if _same_up_to_renaming(e.formula, formula):
                return None, f"discarded: candidate restates clause {e.name}"
    return CandidateLemma(formula), ""


def _canonical(f: HornFormula) -> HornFormula:
    sub = {v: Var(f"_{i}") for i, v in enumerate(free_vars(f))}
    return apply(sub, f)


def _same_up_to_renaming(f: HornFormula, g: HornFormula) -> bool:
    return _canonical(f) == _canonical(g)
