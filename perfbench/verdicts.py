"""Compare the output of one `cohorn check` run with the known answer of
its input (see workloads.py).  Each function returns a list of mismatch
descriptions; an empty list means the verdict is correct."""

from __future__ import annotations

import json

from workloads import Case

_OBS_HEADER = "Observational equivalence for "
_OBS_VERDICTS = ("  equivalent: ", "  no simple loop detected", "  loop formula not provable")


def check(case: Case, code: int, out: str) -> list[str]:
    problems = []
    if code != case.exit_code:
        problems.append(f"exit code {code}, expected {case.exit_code}")
    problems += _check_json(case, code, out) if case.json else _check_text(case, out)
    return problems


def _check_json(case: Case, code: int, out: str) -> list[str]:
    try:
        doc = json.loads(out)
    except ValueError as ex:
        return [f"stdout is not JSON: {ex}"]
    problems = []
    if doc.get("exit_code") != code:
        problems.append(f"JSON exit_code {doc.get('exit_code')} != {code}")
    got = doc.get("goals", [])
    if len(got) != len(case.goals):
        problems.append(f"{len(got)} goals reported, expected {len(case.goals)}")
    for want, g in zip(case.goals, got):
        fields = [
            ("name", want.name),
            ("outcome", want.outcome),
            ("evidence", want.evidence),
            ("steps", want.steps),
        ]
        if want.candidate is not None:
            fields.append(("candidate", want.candidate))
        for key, value in fields:
            if g.get(key) != value:
                problems.append(
                    f"{want.name}: {key} {_short(g.get(key))}, expected {_short(value)}"
                )
    return problems


def _check_text(case: Case, out: str) -> list[str]:
    lines = out.splitlines()
    problems = []
    for want in case.goals:
        if want.outcome in ("Proven", "DirectlyProven"):
            problems += _check_definition(lines, want.name, want.evidence)
            if want.steps is not None and "--trace" in case.args:
                problems += _check_trace(lines, want.name, want.evidence, want.steps)
        elif f"  outcome: {want.outcome}" not in lines:
            problems.append(f"{want.name}: no 'outcome: {want.outcome}' line")
    verdicts = []
    for i, line in enumerate(lines):
        if line.startswith(_OBS_HEADER):
            verdicts.append(_obs_verdict(lines, i + 1))
    if verdicts != case.obs:
        problems.append(f"observational equivalence {verdicts}, expected {case.obs}")
    return problems


def _check_definition(lines: list[str], name: str, evidence: str) -> list[str]:
    head = f"  {name} :: "
    for i, line in enumerate(lines[:-1]):
        if line.startswith(head):
            shown = lines[i + 1]
            if shown != f"  = {evidence}":
                return [f"{name}: shown as {_short(shown)}, expected {_short(evidence)}"]
            return []
    return [f"{name}: no definition in the report"]


def _check_trace(lines: list[str], name: str, evidence: str, steps: int) -> list[str]:
    head = f"Trace for {name} "
    for i, line in enumerate(lines):
        if line.startswith(head):
            states = []
            for state in lines[i + 1 :]:
                if not state.startswith("  "):
                    break
                states.append(state[2:])
            if len(states) != steps + 1 or states[-1] != evidence:
                return [
                    f"{name}: trace of {len(states)} states ending in "
                    f"{_short(states[-1] if states else '')}, expected {steps + 1} "
                    f"ending in {_short(evidence)}"
                ]
            return []
    return [f"{name}: no trace in the report"]


def _obs_verdict(lines: list[str], start: int) -> str:
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        if line.startswith(_OBS_VERDICTS):
            return line.strip()
    return "(no verdict)"


def _short(x, limit: int = 80) -> str:
    s = repr(x)
    return s if len(s) <= limit else s[: limit - 3] + "..."
