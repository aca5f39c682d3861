"""The behavioural contract of the CLI: exit code and the sha256 of stdout
and stderr for a fixed set of commands on the corpus, recorded in
contract.json.

To record the contract again (only when a change to the output is
intended, and said so in CHANGES.md):

    PYTHONPATH=src python tests/test_contract.py
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from cohorn import cli

HERE = pathlib.Path(__file__).parent
CORPUS = HERE / "corpus"
RECORD = HERE / "contract.json"

CHECK_FLAGS = [
    [],
    ["--json"],
    ["--explain", "--trace"],
    ["--obs-check", "3", "--fuel", "300"],
    ["--rounds", "1"],
    ["--depth", "5"],
]

# the bodiless ground goals of the corpus files
GROUND_GOALS = [
    ("bush.asl", "Eq (Mu HBush Unit)"),
    ("dz.asl", "D Z Z"),
    ("evenodd.asl", "Eq (OddList Int)"),
    ("hptree.asl", "Eq (Mu HPTree Int)"),
    ("lam_auto.asl", "Eq (Mu HLam Unit)"),
    ("lam_lemma.asl", "Eq (Mu HLam Unit)"),
    ("mutual_auto.asl", "Eq (Mu H1 H2 Unit)"),
    ("mutual_lemma.asl", "Eq (Mu H1 H2 Unit)"),
    ("pair.asl", "Eq (Int, Int)"),
    ("q.asl", "Q (S Z)"),
]


def cases() -> list[list[str]]:
    """Every recorded command, with corpus file names for paths."""
    out = [
        ["check", p.name, *flags]
        for p in sorted(CORPUS.glob("*.asl"))
        for flags in CHECK_FLAGS
    ]
    for name, goal in GROUND_GOALS:
        out.append(["trace", name, "--goal", goal, "--steps", "30"])
        out.append(["obs", name, "--goal", goal, "-n", "3", "--fuel", "400"])
    return out


def outcome(case: list[str]) -> dict:
    argv = [case[0], str(CORPUS / case[1]), *case[2:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def _key(case: list[str]) -> str:
    return " ".join(case)


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", cases(), ids=_key)
def test_output_matches_the_recorded_contract(case, recorded):
    assert outcome(case) == recorded[_key(case)]


def test_the_record_covers_every_case(recorded):
    assert sorted(recorded) == sorted(_key(c) for c in cases())


if __name__ == "__main__":
    record = {_key(c): outcome(c) for c in cases()}
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
