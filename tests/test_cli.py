import importlib.util
import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from cohorn import cli, corec, evidence
from cohorn.cli import RunConfig, Session, main, run, run_obs, run_trace
from cohorn.corec import ProofConfig, _trace_length, auto
from cohorn.parser import Decl, ParseError, SourceModule, parse_module, render
from cohorn.resolve import Fuel, FuelExhausted, GuardViolation, Stuck, count_steps, resolve
from cohorn.syntax import (
    Atom,
    HornFormula,
    Var,
    fact,
    free_vars,
    match,
    render_atom,
    render_horn,
)
from conftest import (
    SHARING_COHYPOTHESES,
    parse_horn,
    random_index_goal,
    random_index_head,
    random_loop_goal,
    random_looping_env,
    random_sharing_corec,
    random_sharing_env,
    random_sharing_term,
    random_terminating_case,
    run_at_the_default_limit,
)

BUSH_GOLDEN = """\
Parsing success!
Type Checking success!
Program Definitions
  Ax0 :: (Eq (f (Mu f) a)) => Eq (Mu f a)
  = Ax0
  Ax1 :: (Eq a, Eq (f (f a))) => Eq (HBush f a)
  = Ax1
  Ax2 :: Eq Unit
  = Ax2
  genLemm4 :: (Eq var_1) => Eq (Mu HBush var_1)
  = \\ b0 . Ax0 (Ax1 b0 (genLemm4 (genLemm4 b0)))
  goalLem3 :: Eq (Mu HBush Unit)
  = genLemm4 Ax2
Axioms
  Ax2 :: Eq Unit
  Ax1 :: (Eq a, Eq (f (f a))) => Eq (HBush f a)
  Ax0 :: (Eq (f (Mu f) a)) => Eq (Mu f a)
Lemmas
  goalLem3 :: Eq (Mu HBush Unit)
  genLemm4 :: (Eq var_1) => Eq (Mu HBush var_1)
"""


def test_bush_golden_output(corpus):
    code, out, err = run(RunConfig(path=str(corpus / "bush.asl")))
    assert code == 0
    assert out == BUSH_GOLDEN


def test_output_is_deterministic(corpus):
    cfg = RunConfig(path=str(corpus / "bush.asl"))
    first = run(cfg)
    second = run(cfg)
    assert first == second


def test_lam_lemma_variant(corpus):
    code, out, _ = run(RunConfig(path=str(corpus / "lam_lemma.asl")))
    assert code == 0
    assert "goalLem4 :: (Eq x) => Eq (Mu HLam x)" in out
    assert "= \\ b0 . Ax0 (Ax1 b0 (goalLem4 b0) (goalLem4 b0) (goalLem4 (Ax3 b0)))" in out
    assert "= goalLem4 Ax2" in out


def test_lam_auto_variant(corpus):
    code, out, _ = run(RunConfig(path=str(corpus / "lam_auto.asl")))
    assert code == 0
    assert "genLemm5 :: (Eq var_1) => Eq (Mu HLam var_1)" in out
    assert "= genLemm5 Ax2" in out


def test_mutual_lemma_variant_proves_all_three(corpus):
    code, out, _ = run(RunConfig(path=str(corpus / "mutual_lemma.asl")))
    assert code == 0
    assert "goalLem5 :: (Eq x, Eq (Mu H2 H1 x)) => Eq (Mu H1 H2 x)" in out
    assert "goalLem6 :: (Eq x) => Eq (Mu H2 H1 x)" in out
    assert "goalLem7 :: Eq (Mu H1 H2 Unit)" in out
    # the proof of the second lemma refers to the first
    assert "goalLem5" in out.split("goalLem6 :: ")[1].splitlines()[1]


def test_mutual_auto_variant_fails_finitely(corpus):
    code, out, _ = run(RunConfig(path=str(corpus / "mutual_auto.asl")))
    assert code == 1
    assert "outcome: LemmaUnprovable" in out


def test_dz_reports_unprovable_candidate(corpus):
    code, out, _ = run(RunConfig(path=str(corpus / "dz.asl")))
    assert code == 1
    assert "outcome: LemmaUnprovable" in out
    assert "candidate: D Z var_1" in out


def test_json_mirror_for_bush(corpus):
    code, out, _ = run(RunConfig(path=str(corpus / "bush.asl"), json=True))
    doc = json.loads(out)
    assert code == 0 and doc["exit_code"] == 0
    assert doc["module"] == "bush"
    (goal,) = doc["goals"]
    assert goal["outcome"] == "Proven"
    assert goal["lemmas"] == ["genLemm4"]
    assert goal["evidence"] == "genLemm4 Ax2"
    assert goal["steps"] == 2
    assert doc["axioms"] == ["Ax2", "Ax1", "Ax0"]


def test_json_mirror_for_dz(corpus):
    code, out, _ = run(RunConfig(path=str(corpus / "dz.asl"), json=True))
    doc = json.loads(out)
    assert code == 1
    assert doc["goals"][0]["outcome"] == "LemmaUnprovable"


def test_json_empty_module(tmp_path):
    src = tmp_path / "empty.asl"
    src.write_text("module empty where\n")
    code, out, _ = run(RunConfig(path=str(src), json=True))
    doc = json.loads(out)
    assert code == 0
    assert doc["definitions"] == []
    assert doc["goals"] == []


def test_parse_error_exits_two(tmp_path):
    src = tmp_path / "bad.asl"
    src.write_text("module m where\naxiom => Eq\n")
    code, out, err = run(RunConfig(path=str(src)))
    assert code == 2
    assert out == ""
    assert "2:" in err


def test_scope_error_exits_two(tmp_path):
    src = tmp_path / "scope.asl"
    src.write_text("module m where\naxiom Eq y => Eq (List x)\n")
    code, _, err = run(RunConfig(path=str(src)))
    assert code == 2
    assert "y" in err


def test_arity_error_exits_two(tmp_path):
    src = tmp_path / "arity.asl"
    src.write_text("module m where\naxiom Eq Unit\naxiom Eq Unit Unit\n")
    code, _, err = run(RunConfig(path=str(src)))
    assert code == 2
    assert "arity" in err


def test_duplicate_axiom_warns(tmp_path):
    src = tmp_path / "dup.asl"
    src.write_text("module m where\naxiom Eq Unit\naxiom Eq Unit\n")
    code, _, err = run(RunConfig(path=str(src)))
    assert code == 0
    assert "duplicate" in err


def test_overlapping_heads_warn(tmp_path):
    src = tmp_path / "overlap.asl"
    src.write_text(
        "module m where\naxiom Eq x => Eq (List x)\naxiom Eq (List Int)\n"
    )
    code, _, err = run(RunConfig(path=str(src)))
    assert code == 0
    assert "overlapping heads" in err


def test_trace_subcommand(tmp_path):
    src = tmp_path / "plain_pair.asl"
    src.write_text(
        "module m where\naxiom Eq Int\naxiom (Eq x, Eq y) => Eq (x, y)\n"
    )
    code, out, _ = run_trace(str(src), "Eq (Int, Int)", steps=10)
    assert code == 0
    assert out.splitlines() == [
        "Eq (Int, Int)",
        "Ax1 (Eq Int) (Eq Int)",
        "Ax1 Ax0 (Eq Int)",
        "Ax1 Ax0 Ax0",
    ]


def test_trace_flag_appends_goal_traces(corpus):
    code, out, _ = run(RunConfig(path=str(corpus / "bush.asl"), trace=True))
    assert code == 0
    assert "Trace for goalLem3 Eq (Mu HBush Unit)" in out
    assert "\n  genLemm4 Ax2" in out


def test_explain_flag_prints_the_analysis(corpus):
    code, out, _ = run(RunConfig(path=str(corpus / "bush.asl"), explain=True))
    assert code == 0
    assert "Loop analysis for goalLem3" in out
    assert "closed subtree rooted at <>" in out
    assert "abstract tree:" in out
    assert "[critical]" in out


def test_obs_subcommand_on_hptree(corpus):
    code, out, _ = run_obs(str(corpus / "hptree.asl"), "Eq (Mu HPTree x)", n=3)
    assert code == 0
    assert "equivalent: yes" in out
    assert "<*>" in out
    assert "resolution :" in out and "evidence   :" in out


def test_obs_check_flag(corpus):
    code, out, _ = run(RunConfig(path=str(corpus / "evenodd.asl"), obs_check=2))
    assert code == 0
    assert "Observational equivalence for Eq (OddList Int) (n=2)" in out
    assert "equivalent: yes" in out


def test_obs_subcommand_without_loop(corpus):
    code, out, _ = run_obs(str(corpus / "pair.asl"), "Eq (Int, Int)", n=2)
    assert code == 1
    assert "no simple loop" in out


def test_main_entry_point(corpus, capsys):
    code = main(["check", str(corpus / "bush.asl")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == BUSH_GOLDEN


def test_main_reuses_its_parser_and_leaks_no_option(corpus, capsys):
    # `check --fuel 5`, `trace`, then `check --json` in one process: each
    # prints what it prints from a parser built for it alone, and the last
    # call parses the default fuel, not the first call's
    dz = str(corpus / "dz.asl")
    calls = [
        ["check", dz, "--fuel", "5"],
        ["trace", dz, "--goal", "D Z Z", "--steps", "3"],
        ["check", dz, "--json"],
    ]
    alone = []
    for argv in calls:
        cli._arg_parser.cache_clear()
        alone.append((main(argv), capsys.readouterr()))
    cli._arg_parser.cache_clear()
    together = [(main(argv), capsys.readouterr()) for argv in calls]
    assert cli._arg_parser.cache_info().misses == 1
    assert together == alone
    assert [code for code, _ in together] == [1, 0, 1]
    # the library's own defaults, so no fuel or flag of the first call leaks
    assert together[2][1].out == run(RunConfig(path=dz, json=True))[1]
    assert together[0][1].out == run(RunConfig(path=dz, fuel=5))[1]
    args = cli._arg_parser().parse_args(calls[2][:2])
    assert (args.fuel, args.json, args.explain) == (10_000, False, False)
    assert not hasattr(args, "goal") and not hasattr(args, "steps")


@pytest.mark.parametrize("command", ["check", "trace", "obs"])
def test_positions_from_a_file_agree_with_the_library(tmp_path, capsys, command):
    # a lone CR is a blank to the parser, so reading the file must not turn
    # it into a line end; CRLF line ends keep their positions
    for text, where in [
        ("module m where\r\nauto Eq\r 1\r\n", "2:10"),
        ("module m where\r\naxiom Eq Unit\r\nauto Eq ²\r\n", "3:9"),
    ]:
        path = tmp_path / "cr.asl"
        path.write_bytes(text.encode())
        with pytest.raises(ParseError) as exc:
            parse_module(text)
        assert str(exc.value).startswith(f"{where}: unexpected character")
        args = [] if command == "check" else ["--goal", "Eq Unit"]
        assert main([command, str(path), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}:{exc.value}\n"


def test_missing_file_exits_two(tmp_path):
    code, _, err = run(RunConfig(path=str(tmp_path / "nope.asl")))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "command, args",
    [
        ("check", []),
        ("check", ["--json"]),
        ("trace", ["--goal", "Eq Int"]),
        ("obs", ["--goal", "Eq Int"]),
    ],
)
def test_invalid_utf8_exits_two(tmp_path, capsys, command, args):
    path = tmp_path / "bad.asl"
    path.write_bytes(b"module m where\nauto Eq \xff\n")
    assert main([command, str(path), *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 23: "
        "invalid start byte\n"
    )


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--fuel", "0"),
        ("--depth", "0"),
        ("--rounds", "0"),
        ("--obs-check", "0"),
        ("--obs-check", "-1"),
    ],
)
def test_check_rejects_out_of_range_bounds(corpus, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["check", str(corpus / "pair.asl"), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_trace_rejects_zero_fuel(corpus, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", str(corpus / "pair.asl"), "--goal", "Eq Int", "--fuel", "0"])
    assert exc.value.code == 2
    assert "argument --fuel" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-2"])
def test_obs_rejects_a_count_below_one(corpus, capsys, n):
    # with n < 1 nothing would be compared, yet "equivalent: yes" was printed
    with pytest.raises(SystemExit) as exc:
        main(["obs", str(corpus / "evenodd.asl"), "--goal", "Eq (OddList Int)", "-n", n])
    assert exc.value.code == 2
    assert "argument -n" in capsys.readouterr().err


def test_trace_rejects_negative_steps(corpus, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", str(corpus / "pair.asl"), "--goal", "Eq Int", "--steps", "-1"])
    assert exc.value.code == 2
    assert "argument --steps" in capsys.readouterr().err


def test_run_config_rejects_an_obs_count_below_one(corpus):
    with pytest.raises(ValueError):
        RunConfig(path=str(corpus / "evenodd.asl"), obs_check=0)


def test_run_config_is_the_proof_config_it_validates(corpus):
    cfg = RunConfig(path=str(corpus / "pair.asl"), fuel=20)
    assert isinstance(cfg, ProofConfig)
    assert (cfg.fuel, cfg.max_lemma_rounds, cfg.tree_depth) == (20, 3, 50)
    with pytest.raises(ValueError, match="tree_depth must be positive"):
        RunConfig(path=str(corpus / "pair.asl"), tree_depth=0)


def test_obs_rejects_zero_fuel(corpus, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["obs", str(corpus / "pair.asl"), "--goal", "Eq Int", "--fuel", "0"])
    assert exc.value.code == 2
    assert "argument --fuel" in capsys.readouterr().err


def test_obs_check_reports_fuel_exhaustion_instead_of_raising(corpus, capsys):
    code = main(["check", str(corpus / "evenodd.asl"), "--obs-check", "10", "--fuel", "20"])
    out = capsys.readouterr().out
    assert code == 0
    assert "  equivalent: no\n  fuel ran out after 20 steps, before m=10\n" in out


def test_obs_reports_fuel_exhaustion_instead_of_raising(corpus, capsys):
    args = ["obs", str(corpus / "hptree.asl"), "--goal", "Eq (Mu HPTree x)"]
    code = main([*args, "-n", "5", "--fuel", "8"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.endswith("  equivalent: no\n  fuel ran out after 8 steps, before m=5\n")


def test_obs_computes_each_point_list_once(corpus, monkeypatch):
    calls = []
    for name in ("observational_points", "corecursive_points"):
        original = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda *a, f=original, n=name: calls.append(n) or f(*a)
        )
    monkeypatch.setattr(evidence, "observational_points", None)
    monkeypatch.setattr(evidence, "corecursive_points", None)
    code, out, _ = run_obs(str(corpus / "hptree.asl"), "Eq (Mu HPTree x)", n=3)
    assert code == 0 and "equivalent: yes" in out
    assert calls == ["observational_points", "corecursive_points"]


EXIT_ZERO_CORPUS = [
    "ab.asl",
    "bush.asl",
    "evenodd.asl",
    "hptree.asl",
    "lam_auto.asl",
    "lam_lemma.asl",
    "mutual_lemma.asl",
    "pair.asl",
    "q.asl",
]


@pytest.mark.parametrize("name", EXIT_ZERO_CORPUS)
def test_check_type_checks_each_printed_lemma_once(corpus, monkeypatch, name):
    calls = []
    original = corec.type_check
    monkeypatch.setattr(
        corec, "type_check", lambda *a: calls.append(a[1]) or original(*a)
    )
    code, out, _ = run(RunConfig(path=str(corpus / name)))
    assert code == 0
    printed = out.split("\nLemmas\n", 1)[1].splitlines()
    assert len(printed) == len(calls) > 0


@pytest.mark.parametrize("as_json", [False, True])
def test_check_renders_each_printed_object_once(corpus, monkeypatch, as_json):
    seen = []  # keeps every rendered object alive, so ids are not reused
    for name in ("render_atom", "render_evidence", "render_horn"):
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda x, f=original: seen.append(x) or f(x))
    engine = []
    for mod in (corec, evidence):
        original = mod.render_horn
        monkeypatch.setattr(
            mod, "render_horn", lambda x, f=original: engine.append(x) or f(x)
        )
    for path in sorted(corpus.glob("*.asl")):
        seen.clear()
        engine.clear()
        code, _, _ = run(RunConfig(path=str(path), json=as_json))
        assert len(seen) == len({id(x) for x in seen}) > 0, path.name
        if code == 0:
            assert engine == [], path.name


# ---------------------------------------------------------------------------
# text and --json print the same record


def parse_text_report(out: str) -> dict:
    """The definitions, the Axioms and Lemmas sections and the failure
    blocks of a text report."""
    lines = out.splitlines()
    assert lines[:3] == ["Parsing success!", "Type Checking success!", "Program Definitions"]
    i, defs = 3, []
    while lines[i] != "Axioms":
        name, formula = lines[i][2:].split(" :: ")
        assert lines[i + 1].startswith("  = ")
        defs.append((name, formula, lines[i + 1][4:]))
        i += 2
    sections = {}
    for section in ("Axioms", "Lemmas"):
        assert lines[i] == section
        i += 1
        sections[section] = []
        while i < len(lines) and lines[i].startswith("  "):
            sections[section].append(tuple(lines[i][2:].split(" :: ")))
            i += 1
    failures = []
    for line in lines[i:]:
        if line.startswith("Proof failed for "):
            declared, formula = line[len("Proof failed for ") :].split(" ", 1)
            failures.append(
                {"declared": declared, "formula": formula, "candidate": None, "reason": None}
            )
        else:
            key, value = line.strip().split(": ", 1)
            failures[-1][key] = value
    return {"definitions": defs, **sections, "failures": failures}


def assert_text_matches_json(text: str, doc: dict):
    report = parse_text_report(text)
    assert report["definitions"] == [
        (d["name"], d["formula"], d["evidence"]) for d in doc["definitions"]
    ]
    formula = {d["name"]: d["formula"] for d in doc["definitions"]}
    assert report["Axioms"] == [(n, formula[n]) for n in doc["axioms"]]
    assert report["Lemmas"] == [(n, formula[n]) for n in doc["lemmas"]]
    keys = ("declared", "formula", "outcome", "candidate", "reason")
    assert report["failures"] == [
        {k: g[k] for k in keys}
        for g in doc["goals"]
        if g["outcome"] not in ("Proven", "DirectlyProven")
    ]


def check_both(path: str, **bounds) -> dict:
    code, text, _ = run(RunConfig(path=path, **bounds))
    json_code, out, _ = run(RunConfig(path=path, json=True, **bounds))
    doc = json.loads(out)
    assert code == json_code == doc["exit_code"]
    assert_text_matches_json(text, doc)
    return doc


@pytest.mark.parametrize("bounds", [{}, {"fuel": 20}, {"max_lemma_rounds": 1}])
def test_text_and_json_agree_on_the_corpus(corpus, bounds):
    failed = 0
    for path in sorted(corpus.glob("*.asl")):
        doc = check_both(str(path), **bounds)
        failed += doc["exit_code"] == 1
    assert failed >= 2


def random_report_module(rng: random.Random) -> SourceModule:
    """Axioms of a sharing or looping program, then lemma goals over the
    sharing cohypotheses and auto goals over random ground atoms."""
    if rng.random() < 0.6:
        env = random_sharing_env(rng)
        lemmas = [c for c in SHARING_COHYPOTHESES if rng.random() < 0.7]
        goals = [("lemma", parse_horn(c)) for c in rng.sample(lemmas, len(lemmas))]
        goals += [
            ("auto", fact(Atom("Eq", (random_sharing_term(rng, rng.randint(0, 4)),))))
            for _ in range(3)
        ]
    else:
        env = random_looping_env(rng, overlapping=rng.random() < 0.5)
        goals = [("auto", fact(random_loop_goal(rng, env))) for _ in range(3)]
    decls = [("axiom", e.formula) for e in env.clauses()] + goals
    return SourceModule("m", tuple(Decl(k, f, i) for i, (k, f) in enumerate(decls, 2)))


def test_text_and_json_agree_on_generated_modules(tmp_path):
    rng = random.Random(17)
    mu_lemmas = failed = 0
    for k in range(120):
        path = tmp_path / f"m{k}.asl"
        path.write_text(render(random_report_module(rng)), encoding="utf-8")
        doc = check_both(str(path), fuel=2_000)
        failed += doc["exit_code"] == 1
        mu_lemmas += sum(
            g["declared"] == "lemma" and g["evidence"].startswith("mu ")
            for g in doc["goals"]
            if g["evidence"] is not None
        )
    assert mu_lemmas >= 15 and failed >= 10


def test_check_ends_on_16000_deep_terms(tmp_path):
    # both used to overflow the C stack when the CLI raised the recursion
    # limit: hashing the goal, and comparing two equal axioms
    deep = "(S " * 16_000 + "Z" + ")" * 16_000
    files = {
        "goal.asl": f"module g where\naxiom P x => P x\nauto P {deep}\n",
        "axioms.asl": f"module a where\naxiom P {deep}\naxiom P {deep}\n",
    }
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "cohorn.cli", "check", str(tmp_path / name)],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode in (0, 1, 2), (name, proc.returncode)


# ---------------------------------------------------------------------------
# the JSON `steps` field: the search's count where it is exact, else a replay


def nat_chain(n: int) -> str:
    """A module proving a ground nat of depth n in n + 1 applications."""
    goal = "(S " * n + "Z" + ")" * n
    return f"module chain where\naxiom Eq Z\naxiom Eq x => Eq (S x)\nauto Eq {goal}\n"


def wide_module(preds: int, ctors: int) -> str:
    """The wide_lemmas shape: a base fact and a clause per constructor for
    each predicate, then lemma/auto pairs whose auto goal uses the lemma."""
    decls = []
    for p in range(preds):
        decls.append(f"axiom P{p} Z")
        decls += [f"axiom P{p} x => P{p} (C{i} x)" for i in range(ctors)]
    for p in range(preds):
        for i in range(ctors):
            j, k = (i + 1) % ctors, (i + 2) % ctors
            decls.append(f"lemma P{p} x => P{p} (C{i} (C{j} x))")
            decls.append(f"auto P{p} (C{i} (C{j} (C{k} Z)))")
    return "module wide where\n" + "\n".join(decls) + "\n"


def processed(module: SourceModule, cfg: ProofConfig) -> Session:
    session = Session(module, cfg)
    session.load_checks()
    session.process()
    return session


def test_steps_from_the_search_equal_the_replay(corpus):
    sides = Counter()

    def compare(steps, exact):
        if steps is not None:
            assert steps == exact
            sides["derived"] += 1
        elif exact is not None:
            sides["replayed"] += 1

    def compare_session(session):
        for g in session.goals:
            compare(g.report.steps, g.replay(count_steps, session.cfg.fuel))

    for path in sorted(corpus.glob("*.asl")):
        compare_session(processed(cli._load(str(path)), ProofConfig()))
    replayed_in_corpus = sides["replayed"]
    rng = random.Random(17)  # the generated modules with lemma goals
    for _ in range(120):
        compare_session(processed(random_report_module(rng), ProofConfig(fuel=2_000)))
    cfg = ProofConfig(fuel=400)
    rng = random.Random(5)
    for _ in range(300):
        cases = [random_terminating_case(rng)]
        for overlapping in (True, False):
            env = random_looping_env(rng, overlapping)
            cases.append((env, random_loop_goal(rng, env)))
        env = random_sharing_env(rng)
        goal = Atom("Eq", (random_sharing_term(rng, rng.randint(0, 6)),))
        cases.append((env, goal))
        for env, goal in cases:
            report = auto(env, fact(goal), cfg)
            if report.evidence is not None:
                exact = count_steps(env.extended(*report.lemmas), goal, cfg.fuel)
                compare(report.steps, exact)
        # with assumptions in scope, as `prove_horn` resolves, through `resolve`
        work, fuel = random_sharing_corec(rng, env), Fuel(cfg.fuel)
        try:
            ev = resolve(work, goal, fuel)
        except (FuelExhausted, GuardViolation, Stuck):
            continue
        compare(_trace_length(ev, cfg.fuel - fuel.remaining), count_steps(work, goal, cfg.fuel))
    # the corpus's two ground lemma goals are proven by `prove_horn`
    assert replayed_in_corpus == 2
    assert sides["derived"] >= 700 and sides["replayed"] >= 100, sides


def test_json_steps_replay_only_what_the_search_leaves_open(corpus, tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[1])
        return count_steps(*args)

    monkeypatch.setattr(cli, "count_steps", counted)
    for text, fuel in ((nat_chain(600), 700), (wide_module(3, 8), 10_000)):
        path = tmp_path / "m.asl"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(RunConfig(path=str(path), json=True, fuel=fuel))
        doc = json.loads(out)
        assert code == 0 and calls == []
        assert all(g["steps"] is not None for g in doc["goals"] if g["declared"] == "auto")
    assert doc["goals"][-1]["steps"] == 3  # the lemma, then Ax (Ax Z)
    for name in ("lam_lemma.asl", "mutual_lemma.asl"):
        run(RunConfig(path=str(corpus / name), json=True))
    assert [render_atom(a) for a in calls] == ["Eq (Mu HLam Unit)", "Eq (Mu H1 H2 Unit)"]


def test_json_steps_of_a_deep_chain_need_no_recursion_limit():
    code = f"""
import json
from cohorn.cli import RunConfig, Session, emit_json
from cohorn.parser import parse_module
cfg = RunConfig(path="chain.asl", fuel=20_010)
session = Session(parse_module({nat_chain(10_000)!r}), cfg)
session.load_checks()
session.process()
(goal,) = json.loads(emit_json(session, cfg, 0))["goals"]
print(goal["outcome"], goal["steps"])
"""
    assert run_at_the_default_limit(code).split() == ["DirectlyProven", "10001"]


def test_a_deep_ground_lemma_needs_no_recursion_limit(tmp_path):
    # `prove_horn` substitutes into the ground head, which stays as it is,
    # and `candidates` rejects each subgoal against the ground cohypothesis
    # head by its cached hash, so the 10,001 steps cost no O(depth) match
    path = tmp_path / "lemma.asl"
    path.write_text(nat_chain(10_000).replace("auto Eq", "lemma Eq"), encoding="utf-8")
    code = f"""
import json
from cohorn.cli import RunConfig, run
code, out, _ = run(RunConfig(path={str(path)!r}, json=True, fuel=20_010))
(goal,) = json.loads(out)["goals"]
print(code, goal["declared"], goal["steps"])
"""
    assert run_at_the_default_limit(code).split() == ["0", "lemma", "10001"]


def test_benchmark_tracer_bindings_resolve(corpus):
    # the tracer wraps these names from outside; a binding that a refactor
    # drops or bypasses would otherwise only read 0 in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bindings = [(m, a) for m, a, *_ in tracing.SPANNED] + list(tracing.COUNTED)
    for mod, attr in bindings:
        owner = importlib.import_module(f"cohorn.{mod}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod, attr)
    modules = {m: importlib.import_module(f"cohorn.{m}") for m, _ in bindings}
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        renders = 0
        for runs, flags in enumerate(([], ["--json"]), start=1):
            assert modules["cli"].main(["check", str(corpus / "pair.asl"), *flags]) == 0
            totals = tracer.totals()
            assert totals["report"]["calls"] == runs, flags
            assert totals["render"]["calls"] > renders, flags
            renders = totals["render"]["calls"]
    finally:
        tracer.uninstall()


# ---------------------------------------------------------------------------
# load_checks keeps the warnings of the full pairwise scan


def pairwise_warnings(module) -> list[str]:
    """The O(n^2) reference: every axiom against every earlier one."""
    out = []
    axioms = [d.formula for d in module.decls if d.kind == "axiom"]
    for i, f in enumerate(axioms):
        for g in axioms[:i]:
            if f == g:
                out.append(f"duplicate axiom formula {render_horn(f)}")
            elif match(f.head, g.head) is not None or match(g.head, f.head) is not None:
                out.append(
                    f"overlapping heads: {render_atom(f.head)} and "
                    f"{render_atom(g.head)}"
                )
    return out


def test_load_checks_matches_the_pairwise_scan():
    rng = random.Random(77)
    total = 0
    for _ in range(300):
        formulas = []
        for _ in range(rng.randint(0, 25)):
            roll = rng.random()
            if formulas and roll < 0.15:
                formulas.append(rng.choice(formulas))  # duplicate
            elif formulas and roll < 0.4:
                # an instance of an earlier head: overlaps it
                heads = [f.head for f in formulas]
                formulas.append(fact(random_index_goal(rng, heads)))
            else:
                head = random_index_head(rng, ["x", "y", "f", "a"])
                body = (Atom("Q", (Var("x"),)),) if rng.random() < 0.2 else ()
                if body and "x" not in free_vars(head):
                    body = ()
                formulas.append(HornFormula(body, head))
        decls = tuple(Decl("axiom", f, line) for line, f in enumerate(formulas, 1))
        module = SourceModule("m", decls)
        session = Session(module, ProofConfig())
        session.load_checks()
        expected = pairwise_warnings(module)
        assert session.warnings == expected
        total += len(expected)
    assert total > 500
