"""Benchmark runner for qcongruence.

    python3 perfbench/run.py --workload q_closed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --runs 3     # every workload, summary

Workloads (all closed loops, one client): q_closed, q_generic, classical and
cli_fanout; see perfbench/README.md.  A run times set-up (fresh interpreters
importing qcongruence.cli), then one measured pass over the seeded cases in a
fresh interpreter, then checks every verdict and that a second pass over the
same inputs reproduces the report byte for byte apart from elapsed_ms.  With
--trace 1 the second pass is a full traced pass instead, and the per-layer
metrics and tracing overhead are printed.  End-to-end timings are reported
at reference speed (speed.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The program under test is
taken from ./src of the current checkout and is never modified.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

WORKER = HERE / "worker.py"
SETUP_REPS = 7
# Invocations per untraced cli_fanout run: they repeat the same inputs, so
# they double as the determinism check, and the run reports the median one.
CLI_PASSES = 3
# Everything a run does must finish well inside the 180 s a run may take.
RUN_LIMIT_S = 165.0
E2E_UNITS = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


# -- processes --------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(cmd: list[str], timeout: float) -> tuple[int, str, str, float]:
    """Run cmd in its own process group; kill the whole group on timeout."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd,
        cwd=str(ROOT),
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out after {timeout:.0f} s: {' '.join(cmd[:4])} ...")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers, if any
        except OSError:
            pass
    return proc.returncode, out, err, time.perf_counter() - t0


def _environment(jobs: int | None) -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "jobs": jobs,
    }


def measure_setup() -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing qcongruence.cli,
    and the host slowdown sampled between those interpreters."""
    cmd = [sys.executable, "-c", "import qcongruence.cli"]
    times, samples = [], []
    for i in range(SETUP_REPS + 1):
        samples += [speed.kernel_ms() for _ in range(3)]
        code, _, err, wall = _run_child(cmd, 60)
        if code != 0:
            raise BenchError(f"cannot import qcongruence.cli: {err.strip()[-300:]}")
        if i:  # the first import also writes the bytecode cache
            times.append(wall)
    return statistics.median(times), speed.slowdown(samples)


def _at_reference_speed(raw: dict, slowdown: float) -> dict:
    """Scale raw timings to a host where the reference kernel takes NOMINAL_MS."""
    return {
        "records_per_s": raw["records_per_s"] * slowdown,
        "case_p50_ms": raw["case_p50_ms"] / slowdown,
        "case_p90_ms": raw["case_p90_ms"] / slowdown,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


# -- verdict checks -------------------------------------------------------------------


def _check_case(case: dict, result: dict) -> tuple[int, int, str | None]:
    """(checks, deviating checks, first problem) for one executed case."""
    if result["error"] is not None:
        return 1, 1, result["error"]
    records = [json.loads(line) for line in result["lines"]]
    if not records:
        return 1, 1, "no records"
    bad, problem = 0, None
    for rec in records:
        ok = rec["id"] == case["id"] and rec["status"] == case["expect"]
        if ok and case["op"] == "control" and rec["modulus"] != "exact":
            witness = rec["witness"] or {}
            ok = witness.get("remainder_degree", -1) >= 0 and Fraction(witness.get("remainder_leading", "0")) != 0
        if not ok:
            bad += 1
            problem = problem or f"{case['id']} {case['params']} -> {rec['status']} {rec['witness']}"
    return len(records), bad, problem


def _percentiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), deciles[8]


# -- in-process workloads ---------------------------------------------------------------


def _worker_pass(out: Path, tag: str, cases: list[dict], deadline: float, trace: bool) -> dict:
    case_file = out / f"cases-{tag}.json"
    result_file = out / f"result-{tag}.json"
    case_file.write_text(json.dumps(cases), encoding="utf-8")
    cmd = [sys.executable, str(WORKER), "run", str(case_file), str(result_file), f"{deadline:.3f}"]
    span_file = out / f"spans-{tag}.tsv"
    if trace:
        cmd.append(str(span_file))
    code, _, err, _ = _run_child(cmd, deadline + 15)
    if code != 0:
        raise BenchError(f"worker pass {tag} failed: {err.strip()[-500:]}")
    result = json.loads(result_file.read_text(encoding="utf-8"))
    result["span_files"] = [span_file] if trace else []
    return result


def _determinism_subset(cases: list[dict], seconds: float) -> list[dict]:
    """Light cases and controls, re-run to compare their report lines."""
    budget = 0.06 * seconds * 1000.0
    subset, spent = [], 0.0
    for case in cases:
        if case["ms"] < 20.0 and spent + case["ms"] <= budget:
            subset.append(case)
            spent += case["ms"]
    return subset


def run_inprocess(gen: dict, out: Path, seconds: float, trace: bool, started: float) -> dict:
    cases = gen["cases"]
    deadline_a = min(max(2.5 * seconds, 10.0), 0.45 * RUN_LIMIT_S)
    first = _worker_pass(out, "a", cases, deadline_a, False)
    by_cid = {case["cid"]: case for case in cases}
    if trace:
        remaining = RUN_LIMIT_S - (time.perf_counter() - started) - 10.0
        second = _worker_pass(out, "b", cases, remaining - 5.0, True)
    else:
        second = _worker_pass(out, "b", _determinism_subset(cases, seconds), deadline_a, False)

    attempted = failed = 0
    problems = []
    latencies = []
    records = 0
    for res in first["cases"]:
        case = by_cid[res["cid"]]
        checks, bad, problem = _check_case(case, res)
        attempted += checks
        failed += bad
        records += len(res["lines"])
        if problem:
            problems.append(problem)
        if case["op"] == "run":
            latencies.append(res["ms"])
    mismatched = 0
    first_lines = {res["cid"]: res["lines"] for res in first["cases"]}
    for res in second["cases"]:
        if res["cid"] in first_lines and res["lines"] != first_lines[res["cid"]]:
            mismatched += 1
            failed += max(1, len(res["lines"]))
            problems.append(f"report differs between passes for case {res['cid']}")
    if second["cases"] and not any(res["cid"] in first_lines for res in second["cases"]):
        problems.append("determinism pass shares no case with the measured pass")
    cut = len(cases) - len(first["cases"])
    if cut:
        problems.append(f"{cut} cases not started before the deadline")
    p50, p90 = _percentiles(latencies)
    raw = {
        "records_per_s": records / first["wall_s"],
        "case_p50_ms": p50,
        "case_p90_ms": p90,
        "peak_rss_mb": first["rss_kb"] / 1024.0,
    }
    slowdown = speed.slowdown(first["ref_ms"])
    info = {
        "cases": len(first["cases"]),
        "run_cases": len(latencies),
        "controls": sum(1 for c in first["cases"] if by_cid[c["cid"]]["op"] != "run"),
        "records": records,
        "wall_s": first["wall_s"],
        "determinism_cases": len(second["cases"]),
        "determinism_mismatches": mismatched,
        "slowdown": slowdown,
    }
    layer = {}
    if trace:
        overhead = second["wall_s"] / speed.slowdown(second["ref_ms"]) - first["wall_s"] / slowdown
        layer = _trace_metrics(second, overhead)
        info["traced_wall_s"] = second["wall_s"]
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "raw": raw,
        "metrics": _at_reference_speed(raw, slowdown),
        "layer": layer,
        "info": info,
    }


def _trace_metrics(traced: dict, overhead_s: float, cli_layer=None) -> dict:
    import tracing

    summary = tracing.summarize(traced["span_files"])
    layer = tracing.layer_metrics(summary)
    cli_layer = cli_layer or {}
    layer["cli.worker_busy_ratio"] = (cli_layer.get("worker_busy_ratio", 0.0), "ratio")
    layer["cli.straggler_share"] = (cli_layer.get("straggler_share", 0.0), "ratio")
    layer["cli.report_bytes"] = (cli_layer.get("report_bytes", 0), "bytes")
    layer["trace.overhead_s"] = (overhead_s, "s")
    return layer


# -- cli_fanout ------------------------------------------------------------------------


def _cli_pass(out: Path, tag: str, gen: dict, jobs: int, timeout: float, trace: bool) -> dict:
    report = out / f"report-{tag}.jsonl"
    timing = out / f"timing-{tag}.jsonl"
    span_dir = out / f"spans-{tag}"
    argv = [
        "verify", "--id", ",".join(gen["ids"]), "--seed", str(gen["cli_seed"]),
        "--trials", str(gen["trials"]), "--jobs", str(jobs), "--out", str(report),
    ]
    cmd = [sys.executable, str(WORKER), "cli", str(timing)]
    if trace:
        span_dir.mkdir()
        cmd.append(str(span_dir))
        argv.append("--timestamps")
    cmd += ["--", *argv]
    with speed.Background() as sampler:
        code, _, err, wall = _run_child(cmd, timeout)
    if not report.exists():
        raise BenchError(f"cli pass {tag} wrote no report (exit {code}): {err.strip()[-500:]}")
    rows = [json.loads(line) for line in timing.read_text(encoding="utf-8").splitlines()]
    return {
        "code": code,
        "wall_s": wall,
        "report": report.read_bytes(),
        "tasks": [row for row in rows if "s" in row],
        "rss_kb": max((row["rss_kb"] for row in rows if "rss_kb" in row), default=0),
        "ref_ms": sampler.samples,
        "span_files": sorted(span_dir.glob("spans-*.tsv")) if trace else [],
    }


def _records(report: bytes) -> list[dict]:
    return [json.loads(line) for line in report.splitlines()]


def run_cli_fanout(gen: dict, out: Path, seconds: float, trace: bool, jobs: int, started: float) -> dict:
    count = 1 if trace else CLI_PASSES
    passes = []
    for i in range(count):
        remaining = RUN_LIMIT_S - (time.perf_counter() - started) - 5.0
        passes.append(_cli_pass(out, f"a{i}", gen, jobs, remaining / (count - i + trace), False))
    first = passes[0]
    records = _records(first["report"])
    repeats = [_records(p["report"]) for p in passes[1:]]
    if trace:
        remaining = RUN_LIMIT_S - (time.perf_counter() - started) - 5.0
        traced = _cli_pass(out, "b", gen, jobs, remaining, True)
        # Reports agree byte for byte apart from elapsed_ms (set by --timestamps).
        repeats.append([dict(rec, elapsed_ms=0) for rec in _records(traced["report"])])
    problems = []
    bad = sum(1 for rec in records if rec["status"] != "verified")
    if bad:
        problems.append(f"{bad} records not verified")
    for p in passes:
        if p["code"] != 0:
            problems.append(f"cli exit code {p['code']}")
        if len(p["tasks"]) != gen["expected_tasks"]:
            problems.append(f"{len(p['tasks'])} tasks ran, expected {gen['expected_tasks']}")
    mismatched = sum(1 for rep in repeats if rep != records)
    if mismatched:
        problems.append(f"{mismatched} of {len(repeats)} repeated invocations wrote another report")
    # The CLI writes its report when the whole batch is done, so every case
    # reaches the caller after the invocation's wall time: that is each
    # case's latency, and both percentiles equal it.  The run reports the
    # median invocation.
    slowdowns = [speed.slowdown(p["ref_ms"]) for p in passes]
    wall = statistics.median(p["wall_s"] for p in passes)
    scaled = statistics.median(p["wall_s"] / sd for p, sd in zip(passes, slowdowns))
    rss_mb = max(p["rss_kb"] for p in passes) / 1024.0
    raw = {
        "records_per_s": len(records) / wall,
        "case_p50_ms": wall * 1000.0,
        "case_p90_ms": wall * 1000.0,
        "peak_rss_mb": rss_mb,
    }
    metrics = {
        "records_per_s": len(records) / scaled,
        "case_p50_ms": scaled * 1000.0,
        "case_p90_ms": scaled * 1000.0,
        "peak_rss_mb": rss_mb,
    }
    info = {
        "ids": gen["ids"],
        "tasks": len(first["tasks"]),
        "records": len(records),
        "invocations": len(passes),
        "walls_s": [p["wall_s"] for p in passes],
        "jobs": jobs,
        "slowdowns": slowdowns,
    }
    layer = {}
    if trace:
        elapsed_s = sum(rec["elapsed_ms"] for rec in _records(traced["report"])) / 1000.0
        cli_layer = {
            "worker_busy_ratio": elapsed_s / (jobs * traced["wall_s"]),
            "straggler_share": max((task["s"] for task in traced["tasks"]), default=0.0) / traced["wall_s"],
            "report_bytes": len(first["report"]),
        }
        overhead = traced["wall_s"] / speed.slowdown(traced["ref_ms"]) - scaled
        layer = _trace_metrics(traced, overhead, cli_layer)
        info["traced_wall_s"] = traced["wall_s"]
    return {
        "attempted": max(len(records), 1),
        "failed": bad + len(records) * mismatched if records else 1,
        "correct": not problems,
        "problems": problems,
        "raw": raw,
        "metrics": metrics,
        "layer": layer,
        "info": info,
    }


# -- one run ---------------------------------------------------------------------------


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    out = HERE / "out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gen = workloads.generate(workload, seed, seconds)
    jobs = min(2, os.cpu_count() or 1) if workload == "cli_fanout" else None
    setup_s, setup_slowdown = measure_setup()
    if workload == "cli_fanout":
        result = run_cli_fanout(gen, out, seconds, trace, jobs, started)
    else:
        result = run_inprocess(gen, out, seconds, trace, started)
    result["raw"] = {"setup_s": setup_s, **result["raw"]}
    result["metrics"] = {"setup_s": setup_s / setup_slowdown, **result["metrics"]}
    result["info"]["setup_slowdown"] = setup_slowdown
    result["env"] = _environment(jobs)
    result["workload"], result["seed"], result["seconds"] = workload, seed, seconds
    result["run_wall_s"] = time.perf_counter() - started
    (out / "summary.json").write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")
    return result


def _print_run(result: dict, trace: bool):
    env = result["env"]
    print(
        f"env: python {env['python']}, nproc {env['nproc']}, cpu {env['cpu']!r}, "
        f"jobs {env['jobs'] if env['jobs'] is not None else 'n/a (in-process)'}"
    )
    info = {key: value for key, value in result["info"].items() if key != "ids"}
    print(f"workload {result['workload']} seed {result['seed']} seconds {result['seconds']}: {json.dumps(info)}")
    for problem in result["problems"][:10]:
        print(f"problem: {problem}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<42} {ratio:>14.6f} ratio   ({result['failed']} of {result['attempted']} checks)")
    print("  end-to-end metrics at reference speed (raw wall-clock values in brackets):")
    for name, value in result["metrics"].items():
        print(f"  {name:<42} {value:>14.6f} {E2E_UNITS[name]:<6} ({result['raw'][name]:.6f})")
    if trace:
        for name, (value, unit) in sorted(result["layer"].items()):
            print(f"  {name:<42} {value:>14.6f} {unit}")
    if trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["layer"].items()}
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in result["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )


# -- all workloads, several seeds --------------------------------------------------------


def run_all(seed: int, seconds: float, runs: int) -> int:
    rows = {}
    correct, attempted, failed = True, 0, 0
    for workload in workloads.WORKLOADS:
        samples: dict[str, list[float]] = {}
        for i in range(runs):
            code, out, err, _ = _run_child(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed + i), "--seconds", str(seconds), "--trace", "0"],
                RUN_LIMIT_S + 30,
            )
            if code != 0:
                print(err, file=sys.stderr)
                raise BenchError(f"{workload} seed {seed + i} exited with {code}")
            result = json.loads(out.strip().splitlines()[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            samples.setdefault("fail_ratio", []).append(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
        rows[workload] = samples
    print(f"{'workload':<11} {'metric':<14} {'median':>12} {'spread':>8}  n  unit")
    summary = {}
    for workload, samples in rows.items():
        for name, values in samples.items():
            median = statistics.median(values)
            spread = 0.0
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
            unit = E2E_UNITS.get(name, "ratio")
            print(f"{workload:<11} {name:<14} {median:>12.4f} {spread:>8.3f} {len(values):>2}  {unit}")
            summary[f"{workload}.{name}"] = {"value": median, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": summary}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="qcongruence benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=3, help="seeds per workload with --workload all")
    args = parser.parse_args()
    if not (SRC / "qcongruence" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.runs)
        result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_run(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
