"""Benchmark of `cohorn check`: time to verdict, one file at a time.

    python3 perfbench/run.py --workload loop_auto --seed 1 --seconds 26 --trace 0

Drives the public entry point `cohorn.cli.main([...])` in-process, as the
`cohorn` console script does, closed-loop with one client: the next file
starts when the previous verdict has returned.  Every verdict is checked
against the known answer of its generated input.

--trace 0 measures for about --seconds, in whole sweeps of the workload
(every file once), and prints the end-to-end metrics.  --trace 1 needs no
--seconds: it runs one sweep untraced and once traced, then traced again
in a child interpreter with another hash seed, prints the per-layer metrics,
fails if the two traced passes disagree on any count, and writes the
spans to perfbench/out/.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import verdicts  # noqa: E402
from workloads import WORKLOADS, Case, Workload  # noqa: E402

SETUP_REPEATS = 7
FILE_CAP_S = 30.0  # per-file wall cap; exceeding it counts as an error
MIN_SWEEPS = 2  # so the tail percentile always has ten files beyond it
CHILD_CAP_S = 100.0  # wall cap of the second traced pass, in a child

# The highest percentile that keeps at least ten files beyond it in two
# sweeps (48, 60, 56 and 42 files), the fewest a run measures.
TAIL_PERCENTILE = {"loop_auto": 80, "deep_chain": 84, "wide_lemmas": 83, "obs_check": 77}


class SetupError(Exception):
    """The program under test cannot be imported from this checkout."""


class WallCapExceeded(BaseException):
    """Raised from SIGALRM; a BaseException so no handler in the program
    under test can swallow it."""


def _on_alarm(signum, frame):
    raise WallCapExceeded()


# ---------------------------------------------------------------------------
# Set-up


def fresh_import() -> dict:
    """Import the cohorn package from this checkout's src/, dropping any
    earlier import so each set-up pays the full import."""
    if not (SRC / "cohorn" / "cli.py").is_file():
        raise SetupError(f"no cohorn package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "cohorn" or m.startswith("cohorn.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {}
    for short in ("cli", "corec", "evidence", "loopdetect", "resolve", "parser", "syntax"):
        mod = importlib.import_module(f"cohorn.{short}")
        if SRC not in Path(mod.__file__).resolve().parents:
            raise SetupError(f"cohorn.{short} imported from {mod.__file__}, not {SRC}")
        mods[short] = mod
    return mods


def write_inputs(workload: Workload, seed: int, cases: list[Case]):
    folder = OUT / f"{workload.name}-seed{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    every = workload.warmup + workload.sweep
    if len({c.name for c in every}) != len(every):
        raise SetupError(f"{workload.name}: two inputs share a file name")
    for case in cases:
        path = folder / f"{case.name}.asl"
        path.write_text(case.text, encoding="utf-8")
        case.path = str(path)


def warm_start(workload: Workload) -> dict:
    """A fresh import of cohorn, then the workload's warm-up files, so no
    module state is carried over from an earlier pass."""
    mods = fresh_import()
    for case in workload.warmup:
        result = run_case(mods["cli"], case)
        if result["problems"]:
            raise SetupError(f"warm-up {case.name}: {result['problems']}")
    return mods


def setup(name: str, seed: int, repeats: int) -> tuple[dict, Workload, float]:
    """Import, generate the inputs and warm up, `repeats` times; returns
    the modules and workload of the last set-up and the median time.  The
    measured inputs are written to disk after the timed set-ups."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        workload = WORKLOADS[name](seed)
        write_inputs(workload, seed, workload.warmup)
        mods = warm_start(workload)
        times.append(time.perf_counter() - start)
    write_inputs(workload, seed, workload.sweep)
    return mods, workload, statistics.median(times)


# ---------------------------------------------------------------------------
# Running one file


def run_case(cli, case: Case) -> dict:
    out, err = io.StringIO(), io.StringIO()
    argv = ["check", case.path, *case.args]
    code = None
    problems: list[str] = []
    signal.setitimer(signal.ITIMER_REAL, FILE_CAP_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        seconds = time.perf_counter() - start
    except WallCapExceeded:
        seconds = time.perf_counter() - start
        problems.append(f"exceeded the {FILE_CAP_S:g} s wall cap")
    except (Exception, SystemExit) as ex:  # a crash or exit is a wrong verdict
        seconds = time.perf_counter() - start
        problems.append(f"raised {type(ex).__name__}: {ex}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if code is not None:
        problems += verdicts.check(case, code, out.getvalue())
    return {"case": case, "seconds": seconds, "problems": problems}


def run_sweeps(cli, sweep: list[Case], seconds: float | None = None) -> tuple[list[dict], float]:
    """Run whole sweeps for about `seconds`: at least MIN_SWEEPS, and the
    next sweep starts only if it would end at most half a sweep late (or
    one sweep when seconds is None).  Returns the per-file results and
    the wall time of the loop."""
    results = []
    start = time.perf_counter()
    n = 0
    while True:
        for case in sweep:
            results.append(run_case(cli, case))
        n += 1
        elapsed = time.perf_counter() - start
        if seconds is None or (n >= MIN_SWEEPS and elapsed + 0.5 * elapsed / n >= seconds):
            return results, elapsed


# ---------------------------------------------------------------------------
# Metrics


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(name: str, results: list[dict], wall: float, setup_s: float) -> dict:
    times = [r["seconds"] for r in results]
    goals = sum(len(r["case"].goals) for r in results if not r["problems"])
    failed = sum(1 for r in results if r["problems"])
    p = TAIL_PERCENTILE[name]
    return {
        "check_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "check_tail_ms": (percentile(times, p) * 1e3, "ms"),
        "goals_per_s": (goals / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_ratio": (failed / len(results), "ratio"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer: tracing.Tracer, untraced: list[dict], traced: list[dict]) -> dict:
    t = tracer.totals()
    c = tracer.counts

    def ms(name):
        return t[name]["ns"] / 1e6 if name in t else 0.0

    def calls(name):
        return t[name]["calls"] if name in t else 0

    def ratio(a, b):
        return a / b if b else 0.0

    parse_s = ms("parse_module") / 1e3
    layer_self = tracer.layer_self_ms(t)
    files = len(traced)
    overhead_s = sum(r["seconds"] for r in traced) - sum(r["seconds"] for r in untraced)
    m = {
        "resolve.resolve_ms": (ms("resolve"), "ms"),
        "resolve.resolve_calls": (calls("resolve"), "count"),
        "resolve.fuel_spent": (c["fuel_spent"], "count"),
        "resolve.fuel_wasted_ratio": (ratio(c["fuel_wasted"], c["fuel_spent"]), "ratio"),
        "resolve.build_tree_ms": (ms("build_tree"), "ms"),
        "resolve.tree_nodes": (c["tree_nodes"], "count"),
        "resolve.tree_truncated": (c["tree_truncated"], "count"),
        "resolve.trace_ms": (ms("trace"), "ms"),
        "resolve.trace_states": (c["trace_states"], "count"),
        "loopdetect.triples_ms": (ms("find_critical_triples"), "ms"),
        "loopdetect.triples_calls": (calls("find_critical_triples"), "count"),
        "loopdetect.triples_found": (c["triples_found"], "count"),
        "loopdetect.closed_ms": (ms("closed_subtree"), "ms"),
        "loopdetect.closed_positions": (c["closed_positions"], "count"),
        "loopdetect.abstract_ms": (ms("abstract_representation"), "ms"),
        "loopdetect.abstract_nodes": (c["abstract_nodes"], "count"),
        "loopdetect.candidate_ms": (ms("candidate_lemma"), "ms"),
        "corec.auto_ms": (ms("auto"), "ms"),
        "corec.auto_self_ms": (t["auto"]["self_ns"] / 1e6 if "auto" in t else 0.0, "ms"),
        "corec.prove_horn_ms": (ms("prove_horn"), "ms"),
        "corec.prove_horn_calls": (calls("prove_horn"), "count"),
        "corec.lemmas_generated": (c["lemmas_generated"], "count"),
        "corec.wf_check_ms": (ms("wf_check"), "ms"),
        "evidence.type_check_ms": (ms("type_check"), "ms"),
        "evidence.type_check_calls": (calls("type_check"), "count"),
        "evidence.type_check_log_lines": (c["type_check_log_lines"], "count"),
        "evidence.detect_loop_ms": (ms("detect_simple_loop"), "ms"),
        "evidence.detect_loop_found_ratio": (
            ratio(c["loops_found"], calls("detect_simple_loop")),
            "ratio",
        ),
        "evidence.obs_points_ms": (ms("observational_points"), "ms"),
        "evidence.cor_points_ms": (ms("corecursive_points"), "ms"),
        "evidence.obs_equiv_ms": (ms("check_obs_equiv"), "ms"),
        "syntax.match_calls": (c["match_calls"], "count"),
        "syntax.match_hit_ratio": (ratio(c["match_hits"], c["match_calls"]), "ratio"),
        "syntax.render_calls": (calls("render"), "count"),
        "syntax.render_ms": (ms("render"), "ms"),
        "parser.parse_ms": (ms("parse_module"), "ms"),
        "parser.bytes_per_s": (ratio(c["parsed_bytes"], parse_s), "B/s"),
        "cli.load_checks_ms": (ms("load_checks"), "ms"),
        "cli.report_ms": (t["report"]["self_ns"] / 1e6 if "report" in t else 0.0, "ms"),
        "cli.check_ms": (ms("check"), "ms"),
        **{f"{layer}.self_ms": (v, "ms") for layer, v in layer_self.items()},
        "trace.overhead_ms": (overhead_s * 1e3 / files, "ms"),
    }
    return m


# ---------------------------------------------------------------------------
# Modes


def measure(name: str, seed: int, seconds: float) -> tuple[dict, list[dict], list[str]]:
    mods, workload, setup_s = setup(name, seed, SETUP_REPEATS)
    results, wall = run_sweeps(mods["cli"], workload.sweep, seconds)
    metrics = end_to_end(name, results, wall, setup_s)
    files = len(results)
    p = TAIL_PERCENTILE[name]
    notes = {
        "check_p50_ms": f"median of {files} files",
        "check_tail_ms": f"p{p} of {files} files ({files - int(files * p / 100)} beyond)",
        "goals_per_s": (
            f"{sum(len(r['case'].goals) for r in results)} goals in {files} files, "
            f"{wall:.1f} s"
        ),
        "peak_rss_mb": "ru_maxrss of this process",
        "error_ratio": f"{sum(1 for r in results if r['problems'])} of {files} files",
        "setup_s": f"median of {SETUP_REPEATS} set-ups (import, generation, warm-up)",
    }
    lines = [f"{k:<16} {v:>12.4f} {u:<6} {notes[k]}" for k, (v, u) in metrics.items()]
    return metrics, results, lines


def traced_pass(workload: Workload) -> tuple[tracing.Tracer, list[dict]]:
    mods = warm_start(workload)
    tracer = tracing.Tracer(mods)
    tracer.install()
    try:
        results = []
        for i, case in enumerate(workload.sweep):
            tracer.file_id = i
            results.append(run_case(mods["cli"], case))
    finally:
        tracer.uninstall()
    return tracer, results


def other_hash_seed() -> str:
    mine = os.environ.get("PYTHONHASHSEED", "random")
    return str((int(mine) + 1) % 2**32) if mine.isdigit() else "1"


def counts_in_child(name: str, seed: int) -> dict:
    """Repeat the traced pass in a fresh interpreter with another hash
    seed; returns its counts, attempted and failed files."""
    env = {**os.environ, "PYTHONHASHSEED": other_hash_seed()}
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--counts-only"]
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=CHILD_CAP_S)
    except subprocess.TimeoutExpired:
        raise SetupError(f"the second traced pass ran past {CHILD_CAP_S:g} s")
    if proc.returncode != 0:
        raise SetupError(f"the second traced pass exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def counts_only(name: str, seed: int) -> int:
    workload = WORKLOADS[name](seed)
    write_inputs(workload, seed, workload.warmup + workload.sweep)
    tracer, results = traced_pass(workload)
    print(json.dumps({
        "counts": tracer.work_counts(tracer.totals()),
        "attempted": len(results),
        "failed": sum(1 for r in results if r["problems"]),
    }))
    return 0


def traced(name: str, seed: int) -> tuple[dict, list[dict], list[str], dict]:
    mods, workload, _ = setup(name, seed, 1)
    untraced, _ = run_sweeps(mods["cli"], workload.sweep)
    tracer, results = traced_pass(workload)
    child = counts_in_child(name, seed)
    counts = [tracer.work_counts(tracer.totals()), child["counts"]]
    differ = sorted(k for k in set(counts[0]) | set(counts[1]) if counts[0].get(k) != counts[1].get(k))
    metrics = per_layer(tracer, untraced, results)
    OUT.mkdir(parents=True, exist_ok=True)
    dump = {
        "workload": name,
        "seed": seed,
        "files": [r["case"].name for r in results],
        "file_ms": [r["seconds"] * 1e3 for r in results],
        "untraced_file_ms": [r["seconds"] * 1e3 for r in untraced],
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "layer_self_ms": tracer.layer_self_ms(tracer.totals()),
        "counts_differ": differ,
        **tracer.dump(),
    }
    (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(dump), encoding="utf-8")
    lines = [f"{k:<34} {v:>14.4f} {u}" for k, (v, u) in metrics.items()]
    if differ:
        lines.append(f"DETERMINISM: counts differ between two traced passes: {differ}")
    return metrics, untraced + results, lines, {
        "deterministic": not differ,
        "attempted": child["attempted"],
        "failed": child["failed"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="measured time; required with --trace 0")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.trace and not args.counts_only and args.seconds is None:
        ap.error("--seconds is required with --trace 0")
    signal.signal(signal.SIGALRM, _on_alarm)
    child = {"deterministic": True, "attempted": 0, "failed": 0}
    try:
        if args.counts_only:
            return counts_only(args.workload, args.seed)
        if args.trace:
            metrics, results, lines, child = traced(args.workload, args.seed)
            keep = metrics
        else:
            metrics, results, lines = measure(args.workload, args.seed, args.seconds)
            # error_ratio is 0 whenever the run is correct; it is carried by
            # `failed` / `attempted` below rather than as a metric
            keep = {k: v for k, v in metrics.items() if k != "error_ratio"}
    except SetupError as ex:
        print(f"perfbench: {ex}", file=sys.stderr)
        return 2
    failed = [r for r in results if r["problems"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in lines:
        print(line)
    for r in failed[:10]:
        print(f"WRONG {r['case'].name}: {'; '.join(r['problems'][:3])}")
    if child["failed"]:
        print(f"WRONG: {child['failed']} files of the second traced pass")
    n_failed = len(failed) + child["failed"]
    correct = child["deterministic"] and not n_failed
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(results) + child["attempted"],
                "failed": n_failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in keep.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
