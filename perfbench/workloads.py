"""Seeded input generators for the `cohorn check` benchmark.

Every generated file comes with its known answer, derived by construction
and never from a run of the code under test:

* the corpus families keep the verdicts and evidence written in the
  project README and test goldens; renaming predicates and constructors
  does not change an evidence string, and a swapped base type only moves
  the axiom numbering in a way the generator tracks;
* a chain `P (S^n Z)` over `P Z` and `P x => P (S x)` has the evidence
  `Ax1 (Ax1 (... (Ax1 Ax0)))`, one small step per constant;
* a wide program's lemma `P x => P (C_i (C_j x))` is proven as
  `\\ b0 . Ax_i (Ax_j b0)`, and the goal right after it resolves through
  that lemma first, because plain resolution tries the newest entry first.

A workload is one sweep of files, built in rounds, and a run measures
whole sweeps only.  Rounds differ in cost (a swapped base type makes a
file dearer), so stopping between rounds would let the machine's speed
pick the mix of files a run measures.  A sweep holds the same mix of file
shapes whatever the seed; the seed picks names, order and a small jitter
of sizes, so runs of different seeds measure comparable work.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Optional

PROVEN = "Proven"
DIRECTLY_PROVEN = "DirectlyProven"
LEMMA_UNPROVABLE = "LemmaUnprovable"

# `cohorn check --obs-check N` prints one of these per ground goal
OBS_YES = "equivalent: yes"
OBS_NO_LOOP = "no simple loop detected"


@dataclass(frozen=True)
class Goal:
    """The known verdict of one `lemma` or `auto` declaration."""

    name: str
    outcome: str
    evidence: Optional[str] = None
    steps: Optional[int] = None  # small steps of a proven ground goal
    candidate: Optional[str] = None  # reported candidate of a failed goal


@dataclass
class Case:
    """One input file, the arguments `cohorn check` gets with it, and its
    known answer."""

    name: str
    text: str
    exit_code: int
    goals: list[Goal]
    args: list[str] = field(default_factory=lambda: ["--json"])
    # expected observational-equivalence line per ground goal, in order;
    # only for cases run with --obs-check (text report)
    obs: list[str] = field(default_factory=list)
    path: str = ""  # set when the file is written

    @property
    def json(self) -> bool:
        return "--json" in self.args


@dataclass
class Workload:
    name: str
    sweep: list[Case]  # every file once; runs measure whole sweeps only
    warmup: list[Case]  # run once during set-up, untimed


def steps_of(evidence: str) -> int:
    """Small steps to a proof whose evidence is an application of clause
    constants: each step applies exactly one clause."""
    return len(re.findall(r"\b(?:Ax|genLemm|goalLem)\d+\b", evidence))


def _arg(ev: str) -> str:
    return f"({ev})" if " " in ev else ev


# ---------------------------------------------------------------------------
# Names


_LOWER = "abcdefghijklmnopqrstuvwxyz"
_RESERVED = {"Pair"}  # the `(a, b)` sugar


class Namer:
    """Distinct seeded uppercase identifiers."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set(_RESERVED)

    def __call__(self, stem: str) -> str:
        while True:
            tail = "".join(self.rng.choice(_LOWER) for _ in range(3))
            name = f"{stem}{tail}"
            if name not in self.used:
                self.used.add(name)
                return name

    def rename(self, names: list[str]) -> dict[str, str]:
        return {n: self(n[0]) for n in names}


def _identity(names: list[str]) -> dict[str, str]:
    return {n: n for n in names}


# ---------------------------------------------------------------------------
# loop_auto: the looping corpus files and their variants
#
# A base type is "Unit", "Int" or "Pair" (meaning `(Int, Int)`).  The base
# axioms sit where the corpus file has its base fact; a Pair base adds the
# pair clause right after `Eq Int` unless the file already has one.


def _base_src(base: str, n: dict) -> str:
    return "(Int, Int)".replace("Int", n["Int"]) if base == "Pair" else n[base]


def _base_axioms(base: str, n: dict, with_pair_clause: bool) -> list[str]:
    if base == "Unit":
        return [f"axiom {n['Eq']} {n['Unit']}"]
    out = [f"axiom {n['Eq']} {n['Int']}"]
    if base == "Pair" and with_pair_clause:
        out.append(f"axiom ({n['Eq']} x, {n['Eq']} y) => {n['Eq']} (x, y)")
    return out


def _base_evidence(base: str, base_ax: int, pair_ax: int) -> str:
    if base == "Pair":
        return f"Ax{pair_ax} Ax{base_ax} Ax{base_ax}"
    return f"Ax{base_ax}"


def _module(name: str, decls: list[str]) -> str:
    return f"module {name} where\n" + "".join(d + "\n" for d in decls)


def bush(n: dict, base: str) -> Case:
    decls = [
        f"axiom {n['Eq']} (f ({n['Mu']} f) a) => {n['Eq']} ({n['Mu']} f a)",
        f"axiom ({n['Eq']} a, {n['Eq']} (f (f a))) => {n['Eq']} ({n['HBush']} f a)",
        *_base_axioms(base, n, True),
    ]
    goal_at = len(decls)
    decls.append(f"auto {n['Eq']} ({n['Mu']} {n['HBush']} {_base_src(base, n)})")
    lem = f"genLemm{len(decls)}"
    ev = f"{lem} {_arg(_base_evidence(base, 2, 3))}"
    goals = [Goal(f"goalLem{goal_at}", PROVEN, ev, steps_of(ev))]
    return Case("bush", _module("bush", decls), 0, goals)


def hptree(n: dict, base: str) -> Case:
    decls = [
        *_base_axioms(base, n, False),
        f"axiom ({n['Eq']} x, {n['Eq']} y) => {n['Eq']} (x, y)",
        f"axiom {n['Eq']} (h ({n['Mu']} h) a) => {n['Eq']} ({n['Mu']} h a)",
        f"axiom ({n['Eq']} a, {n['Eq']} (f (a, a))) => {n['Eq']} ({n['HPTree']} f a)",
    ]
    goal_at = len(decls)
    decls.append(f"auto {n['Eq']} ({n['Mu']} {n['HPTree']} {_base_src(base, n)})")
    ev = f"genLemm{len(decls)} Ax0"
    goals = [Goal(f"goalLem{goal_at}", PROVEN, ev, steps_of(ev))]
    return Case("hptree", _module("hptree", decls), 0, goals)


def lam(n: dict, base: str) -> Case:
    decls = [
        f"axiom {n['Eq']} (f ({n['Mu']} f) a) => {n['Eq']} ({n['Mu']} f a)",
        f"axiom ({n['Eq']} a, {n['Eq']} (f a), {n['Eq']} (f a), "
        f"{n['Eq']} (f ({n['Maybe']} a))) => {n['Eq']} ({n['HLam']} f a)",
        *_base_axioms(base, n, False),
        f"axiom {n['Eq']} a => {n['Eq']} ({n['Maybe']} a)",
    ]
    if base == "Pair":
        decls.append(f"axiom ({n['Eq']} x, {n['Eq']} y) => {n['Eq']} (x, y)")
    goal_at = len(decls)
    decls.append(f"auto {n['Eq']} ({n['Mu']} {n['HLam']} {_base_src(base, n)})")
    ev = f"genLemm{len(decls)} {_arg(_base_evidence(base, 2, 4))}"
    goals = [Goal(f"goalLem{goal_at}", PROVEN, ev, steps_of(ev))]
    return Case("lam_auto", _module("lam", decls), 0, goals)


def evenodd(n: dict, base: str) -> Case:
    decls = [
        *_base_axioms(base, n, True),
        f"axiom ({n['Eq']} a, {n['Eq']} ({n['EvenList']} a)) => {n['Eq']} ({n['OddList']} a)",
        f"axiom ({n['Eq']} a, {n['Eq']} ({n['OddList']} a)) => {n['Eq']} ({n['EvenList']} a)",
    ]
    goal_at = len(decls)
    decls.append(f"auto {n['Eq']} ({n['OddList']} {_base_src(base, n)})")
    # the generated lemma is the ground goal itself, proven as a fixed point
    ev = f"genLemm{len(decls)}"
    goals = [Goal(f"goalLem{goal_at}", PROVEN, ev, steps_of(ev))]
    return Case("evenodd", _module("evenodd", decls), 0, goals)


def dz(n: dict, base: str) -> Case:
    d, s, z = n["D"], n["S"], n["Z"]
    decls = [
        f"axiom {d} n ({s} m) => {d} ({s} n) m",
        f"axiom {d} ({s} m) {z} => {d} {z} m",
        f"auto {d} {z} {z}",
    ]
    goals = [Goal("goalLem2", LEMMA_UNPROVABLE, candidate=f"{d} {z} var_1")]
    return Case("dz", _module("dz", decls), 1, goals)


def mutual(n: dict, base: str) -> Case:
    eq, mu, h1, h2 = n["Eq"], n["Mu"], n["H1"], n["H2"]
    decls = [
        f"axiom ({eq} a, {eq} (Pair (f1 a) (f2 a))) => {eq} ({h1} f1 f2 a)",
        f"axiom {eq} (Pair (g a) (f (g a))) => {eq} ({h2} f g a)",
        f"axiom {eq} (h1 ({mu} h1 h2) ({mu} h2 h1) a) => {eq} ({mu} h1 h2 a)",
        f"axiom ({eq} a, {eq} b) => {eq} (Pair a b)",
        *_base_axioms(base, n, False),
    ]
    goal_at = len(decls)
    decls.append(f"auto {eq} ({mu} {h1} {h2} {_base_src(base, n)})")
    goals = [Goal(f"goalLem{goal_at}", LEMMA_UNPROVABLE)]
    return Case("mutual_auto", _module("mutual", decls), 1, goals)


# (generator, names it uses, corpus base first, then the swaps)
LOOP_FAMILIES = [
    (bush, ["Eq", "Mu", "HBush", "Unit", "Int"], ["Unit", "Int", "Pair"]),
    (hptree, ["Eq", "Mu", "HPTree", "Unit", "Int"], ["Int", "Unit"]),
    (lam, ["Eq", "Mu", "HLam", "Maybe", "Unit", "Int"], ["Unit", "Int", "Pair"]),
    (evenodd, ["Eq", "OddList", "EvenList", "Unit", "Int"], ["Int", "Unit", "Pair"]),
    (dz, ["D", "S", "Z"], [""]),
    (mutual, ["Eq", "Mu", "H1", "H2", "Unit", "Int"], ["Unit", "Int", "Pair"]),
]


LOOP_ROUNDS = 4  # the corpus, then one renamed round per base type


def loop_auto(seed: int) -> Workload:
    """Round 0 holds the declarations of the six corpus files unchanged;
    later rounds rename every predicate and constructor and rotate the
    base type."""
    rng = random.Random(f"loop_auto/{seed}")
    files = []
    for r in range(LOOP_ROUNDS):
        cases = []
        for k, (gen, names, bases) in enumerate(LOOP_FAMILIES):
            if r == 0:
                case = gen(_identity(names), bases[0])
            else:
                case = gen(Namer(rng).rename(names), bases[(r + k) % len(bases)])
            case.name = f"r{r}_{case.name}"
            cases.append(case)
        rng.shuffle(cases)
        files.extend(cases)
    warm = evenodd(_identity(LOOP_FAMILIES[3][1]), "Int")
    warm.name = "warmup_evenodd"
    return Workload("loop_auto", files, [warm])


# ---------------------------------------------------------------------------
# deep_chain: ground goals over deep terms, proven by plain resolution


def chain(namer: Namer, shape: str, depth: int) -> Case:
    eq = namer("E")
    if shape == "nat":
        s, z = namer("S"), namer("Z")
        decls = [f"axiom {eq} {z}", f"axiom {eq} x => {eq} ({s} x)"]
        term = z
        for _ in range(depth):
            term = f"({s} {term})"
        ev = "Ax0"
        for _ in range(depth):
            ev = f"Ax1 {_arg(ev)}"
    elif shape == "list":
        a, nil, cons = namer("A"), namer("N"), namer("C")
        decls = [
            f"axiom {eq} {a}",
            f"axiom {eq} {nil}",
            f"axiom ({eq} h, {eq} t) => {eq} ({cons} h t)",
        ]
        term = nil
        ev = "Ax1"
        for _ in range(depth):
            term = f"({cons} {a} {term})"
            ev = f"Ax2 Ax0 {_arg(ev)}"
    else:  # right-nested pairs
        u = namer("U")
        decls = [f"axiom {eq} {u}", f"axiom ({eq} x, {eq} y) => {eq} (x, y)"]
        term = u
        ev = "Ax0"
        for _ in range(depth):
            term = f"({u}, {term})"
            ev = f"Ax1 Ax0 {_arg(ev)}"
    goal_at = len(decls)
    decls.append(f"auto {eq} {term}")
    goals = [Goal(f"goalLem{goal_at}", DIRECTLY_PROVEN, ev, steps_of(ev))]
    return Case(f"{shape}{depth}", _module("chain", decls), 0, goals)


CHAIN_SHAPES = ["nat", "list", "pair"]
# dense around the median depth, so the median rests on many files
CHAIN_DEPTHS = [40, 70, 100, 115, 125, 135, 145, 160, 190, 220]
CHAIN_ROUNDS = len(CHAIN_SHAPES)  # each depth once in each shape


def deep_chain(seed: int) -> Workload:
    rng = random.Random(f"deep_chain/{seed}")
    files = []
    for r in range(CHAIN_ROUNDS):
        cases = []
        for i, depth in enumerate(CHAIN_DEPTHS):
            shape = CHAIN_SHAPES[(i + r) % len(CHAIN_SHAPES)]
            case = chain(Namer(rng), shape, depth + rng.randint(0, 4))
            case.name = f"r{r}_{case.name}"
            cases.append(case)
        rng.shuffle(cases)
        files.extend(cases)
    warm = chain(Namer(random.Random(0)), "nat", 30)
    warm.name = "warmup_nat30"
    return Workload("deep_chain", files, [warm])


# ---------------------------------------------------------------------------
# wide_lemmas: many constructors and clauses, shallow goals, each lemma
# extending the environment that later goals scan


def wide(namer: Namer, rng: random.Random, preds: int, ctors: int, pairs: int) -> Case:
    """`preds` predicates, each with a base fact and one clause per
    constructor, then `pairs` lemma/auto pairs.  Axiom numbering: predicate
    p has its base fact at p*(ctors+1) and constructor i at p*(ctors+1)+1+i."""
    ps = [namer("P") for _ in range(preds)]
    cs = [namer("C") for _ in range(ctors)]
    z = namer("Z")
    decls = []
    for p in ps:
        decls.append(f"axiom {p} {z}")
        decls.extend(f"axiom {p} x => {p} ({c} x)" for c in cs)

    def ax(p: int, i: Optional[int] = None) -> str:
        return f"Ax{p * (ctors + 1) + (0 if i is None else 1 + i)}"

    triples = set()
    while len(triples) < pairs:
        triples.add((rng.randrange(preds), rng.randrange(ctors), rng.randrange(ctors)))
    goals = []
    for p, i, j in sorted(triples, key=lambda t: rng.random()):
        a = rng.randrange(ctors)
        lem_at = len(decls)
        decls.append(f"lemma {ps[p]} x => {ps[p]} ({cs[i]} ({cs[j]} x))")
        goals.append(
            Goal(f"goalLem{lem_at}", DIRECTLY_PROVEN, f"\\ b0 . {ax(p, i)} ({ax(p, j)} b0)")
        )
        decls.append(f"auto {ps[p]} ({cs[i]} ({cs[j]} ({cs[a]} {z})))")
        ev = f"goalLem{lem_at} ({ax(p, a)} {ax(p)})"
        goals.append(Goal(f"goalLem{lem_at + 1}", DIRECTLY_PROVEN, ev, steps_of(ev)))
    return Case(f"wide{preds}x{ctors}x{pairs}", _module("wide", decls), 0, goals)


# (predicates, constructors, lemma/auto pairs) per file of a round: one
# small, four of similar cost around the median, two large for the tail
WIDE_SIZES = [
    (2, 40, 30),
    (3, 60, 45),
    (3, 60, 50),
    (3, 70, 50),
    (3, 70, 55),
    (4, 100, 80),
    (4, 100, 80),
]
WIDE_ROUNDS = 4


def wide_lemmas(seed: int) -> Workload:
    rng = random.Random(f"wide_lemmas/{seed}")
    files = []
    for r in range(WIDE_ROUNDS):
        cases = []
        for i, (preds, ctors, pairs) in enumerate(WIDE_SIZES):
            case = wide(Namer(rng), rng, preds, ctors, pairs)
            case.name = f"r{r}_{i}_{case.name}"
            cases.append(case)
        rng.shuffle(cases)
        files.extend(cases)
    warm = wide(Namer(random.Random(0)), random.Random(0), 1, 5, 4)
    warm.name = "warmup_wide"
    return Workload("wide_lemmas", files, [warm])


# ---------------------------------------------------------------------------
# obs_check: `check --obs-check N --trace`


def cycle(namer: Namer, k: int) -> Case:
    """k mutually recursive list types T_0 .. T_{k-1}, evenodd being k=2:
    the goal recurs unchanged, so it is a simple loop with no hypotheses."""
    eq, base = namer("E"), namer("I")
    ts = [namer("T") for _ in range(k)]
    decls = [f"axiom {eq} {base}"]
    for i in range(k):
        decls.append(
            f"axiom ({eq} a, {eq} ({ts[(i + 1) % k]} a)) => {eq} ({ts[i]} a)"
        )
    goal_at = len(decls)
    decls.append(f"auto {eq} ({ts[0]} {base})")
    ev = f"genLemm{len(decls)}"
    goals = [Goal(f"goalLem{goal_at}", PROVEN, ev, steps_of(ev))]
    return Case(f"cycle{k}", _module("cycle", decls), 0, goals, obs=[OBS_YES])


# Goals with no simple loop run at a ladder of user-set fuel: at the default
# fuel of 10 000 the search in detect_simple_loop takes about an hour per
# file (it grows about as fuel^2.7).
OBS_FUELS = [150, 300, 450]
OBS_CYCLES = [2, 3, 4, 5]
OBS_ROUNDS = len(OBS_FUELS)  # each nested goal once at each rung


def obs_check(seed: int) -> Workload:
    """Each round runs the three nested goals, each at one rung of the
    fuel ladder (rotating, so the rounds cover every pair), and the
    cycles at the default fuel."""
    rng = random.Random(f"obs_check/{seed}")
    nested = LOOP_FAMILIES[:3]  # bush, hptree, lam: no simple loop
    files = []
    for r in range(OBS_ROUNDS):
        cases = []
        for k, (gen, names, bases) in enumerate(nested):
            fuel = OBS_FUELS[(r + k) % len(OBS_FUELS)]
            case = gen(Namer(rng).rename(names), bases[0])
            case.name = f"r{r}_{case.name}_fuel{fuel}"
            case.args = ["--obs-check", "3", "--trace", "--fuel", str(fuel)]
            case.obs = [OBS_NO_LOOP]
            cases.append(case)
        for k in OBS_CYCLES:
            case = cycle(Namer(rng), k)
            case.name = f"r{r}_{case.name}"
            case.args = ["--obs-check", str(2 + (k + r) % 3), "--trace"]
            cases.append(case)
        rng.shuffle(cases)
        files.extend(cases)
    warm = cycle(Namer(random.Random(0)), 2)
    warm.name = "warmup_cycle2"
    warm.args = ["--obs-check", "2", "--trace"]
    return Workload("obs_check", files, [warm])


WORKLOADS = {
    "loop_auto": loop_auto,
    "deep_chain": deep_chain,
    "wide_lemmas": wide_lemmas,
    "obs_check": obs_check,
}
