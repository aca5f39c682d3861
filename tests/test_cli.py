import importlib.util
import json
import random
from pathlib import Path

import pytest

from cohorn import cli, corec, evidence
from cohorn.cli import RunConfig, Session, main, run, run_obs, run_trace
from cohorn.corec import ProofConfig
from cohorn.parser import Decl, SourceModule
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
from conftest import random_index_goal, random_index_head

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


def test_missing_file_exits_two(tmp_path):
    code, _, err = run(RunConfig(path=str(tmp_path / "nope.asl")))
    assert code == 2
    assert "error" in err


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
    assert (cfg.fuel, cfg.tree_depth, cfg.tree_nodes) == (20, 50, 10_000)
    with pytest.raises(ValueError, match="tree_nodes must be positive"):
        RunConfig(path=str(corpus / "pair.asl"), tree_nodes=0)


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


def test_benchmark_tracer_bindings_resolve():
    # the tracer wraps these names from outside; a binding that a refactor
    # drops would otherwise only fail in a traced benchmark run
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
