"""One measured pass in a fresh interpreter (qcongruence must be importable).

    worker.py run CASES.json RESULT.json DEADLINE_S [SPANS.tsv]
        Closed loop over the generated cases: each case starts only after the
        previous one returned.  Writes per-case latency and report lines, and
        the reference-kernel samples taken between cases (speed.py).

    worker.py cli TIMING.jsonl [SPAN_DIR] -- verify ...
        Runs the qcong command line with the given arguments in this process.
        Each verify task appends its wall time to TIMING.jsonl from whichever
        pool worker ran it; the last line holds the peak RSS over this process
        and its reaped workers.  The benchmark process samples the host speed
        meanwhile (speed.Background).  With SPAN_DIR, every layer is traced in
        the pool workers too (they are forked after the wrappers are installed).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402


def _peak_rss_kb(children: bool = False) -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak


def _run_case(catalog, case: dict, q) -> list[dict]:
    op, stmt_id, params = case["op"], case["id"], case["params"]
    if op == "control":
        inst = catalog.instantiate(stmt_id, params, m_choice=case["m"], seed=case["seed"])
        return [catalog.verify_instance(replace(inst, rhs=inst.rhs * q)).to_json_dict()]
    records = catalog.run_statement(stmt_id, params, m_policy=case["m"], seed=case["seed"], trials=1)
    return [rec.to_json_dict() for rec in records]


def run_cases(case_file: str, result_file: str, deadline_s: float, span_file: str | None):
    with open(case_file, encoding="utf-8") as handle:
        cases = json.load(handle)
    from qcongruence import catalog
    from qcongruence.polyring import QPoly, QRat

    recorder = None
    if span_file:
        import tracing

        recorder = tracing.install()
    q = QRat(QPoly([0, 1]))
    sampler = speed.Sampler()
    clock = time.perf_counter
    out = []
    start = clock()
    for case in cases:
        if clock() - start > deadline_s:
            break
        sampler.maybe_sample()
        if recorder is not None:
            recorder.case = case["cid"]
        error = None
        t0 = clock()
        try:
            lines = [json.dumps(rec) for rec in _run_case(catalog, case, q)]
        except Exception as exc:  # recorded as a failed check, never fatal
            lines, error = [], f"{type(exc).__name__}: {exc}"
        ms = (clock() - t0) * 1000.0
        out.append({"cid": case["cid"], "ms": ms, "lines": lines, "error": error})
    wall = clock() - start - sampler.spent_s
    if recorder is not None:
        recorder.flush(Path(span_file))
    with open(result_file, "w", encoding="utf-8") as handle:
        json.dump({"wall_s": wall, "rss_kb": _peak_rss_kb(), "ref_ms": sampler.samples, "cases": out}, handle)


def run_cli(timing_file: str, span_dir: str | None, argv: list[str]) -> int:
    from qcongruence import cli

    recorder = None
    if span_dir:
        import tracing

        recorder = tracing.install()
    run_task = cli._run_verify_task
    if recorder is not None:
        run_task = recorder.wrap("cli.run_verify_task", run_task)
    clock = time.perf_counter

    def timed_task(task):
        if recorder is not None:
            recorder.case += 1
        t0 = clock()
        result = run_task(task)
        seconds = clock() - t0
        if recorder is not None:  # pool workers have no exit hook: flush per task
            recorder.flush(Path(span_dir) / f"spans-{os.getpid()}.tsv")
        row = {"id": task[0], "case": task[1], "s": seconds, "pid": os.getpid()}
        with open(timing_file, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row) + "\n")
        return result

    # The process pool pickles the task function by its qualified name.
    timed_task.__module__ = cli.__name__
    timed_task.__qualname__ = timed_task.__name__ = "_run_verify_task"
    cli._run_verify_task = timed_task
    code = cli.main(argv)
    with open(timing_file, "a", encoding="utf-8") as handle:
        handle.write(json.dumps({"rss_kb": _peak_rss_kb(children=True)}) + "\n")
    return code


def main():
    mode = sys.argv[1]
    if mode == "run":
        span_file = sys.argv[5] if len(sys.argv) > 5 else None
        run_cases(sys.argv[2], sys.argv[3], float(sys.argv[4]), span_file)
        return 0
    if mode == "cli":
        split = sys.argv.index("--")
        extra = sys.argv[2:split]
        return run_cli(extra[0], extra[1] if len(extra) > 1 else None, sys.argv[split + 1 :])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
