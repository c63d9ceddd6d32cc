"""Measure the cost of every candidate case and write perfbench/costs.json.

    python3 perfbench/calibrate.py [--only q_closed,q_generic,classical,cli_fanout]

Each family is measured in a fresh interpreter, in growing size, and stops
at the first point costing more than workloads.CAP_MS (or timing out); that
point is recorded under "left_out".  The run-time generator only reads the
stored costs, so the case list of a seed does not depend on how fast the
program under test is.  Rerun this only when the pools change, never as part
of a comparison between two commits.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

GROUP_TIMEOUT_S = 90
GENERIC_SEEDS = (11, 12)
# Trial seeds whose straggler cost is measured for the cli_fanout seed band.
CLI_TRIAL_SEEDS = 40
# Statements whose right-hand side is not identically zero, so multiplying
# it by q yields a false congruence (the negative-control construction).
CONTROL_FAMILIES = {
    "THM_A", "THM_B", "THM_C", "LEM_OO", "LEM_PP", "LEM_WEI_N", "LEM_REL", "THM_E",
    "PROP_2_1", "THM_2_2", "PROP_3_1", "THM_3_2", "THM_3_3", "THM_D", "PROP_5_3",
    "THM_5_4", "THM_5_5",
}
CONTROL_MAX_MS = 150.0


# -- child side -------------------------------------------------------------------


def _child(group: dict, workload: str):
    from qcongruence import catalog
    from qcongruence.errors import NonIntegerBound, SideConditionViolated

    seeds = GENERIC_SEEDS if workload == "q_generic" else (0,)
    for params in group["points"]:
        for m in group["m"]:
            times, statuses = [], []
            try:
                for seed in seeds:
                    t0 = time.perf_counter()
                    recs = catalog.run_statement(group["id"], params, m_policy=m, seed=seed, trials=1)
                    times.append((time.perf_counter() - t0) * 1000.0)
                    statuses += [r.status for r in recs]
            except (SideConditionViolated, NonIntegerBound):
                continue
            ms = statistics.median(times)
            print(json.dumps({"params": params, "m": m, "ms": ms, "statuses": statuses}), flush=True)
            if ms > workloads.CAP_MS:
                return


def _child_control(entries: list[dict]):
    from dataclasses import replace

    from qcongruence import catalog
    from qcongruence.polyring import QPoly, QRat

    q = QRat(QPoly([0, 1]))
    for entry in entries:
        t0 = time.perf_counter()
        inst = catalog.instantiate(entry["id"], entry["params"], m_choice="first", seed=11)
        rec = catalog.verify_instance(replace(inst, rhs=inst.rhs * q))
        ms = (time.perf_counter() - t0) * 1000.0
        print(json.dumps({"ms": ms, "status": rec.status}), flush=True)


def _child_cli(stmt_id: str, out: str):
    from qcongruence import catalog, cli

    t0 = time.perf_counter()
    cli.main(["verify", "--id", stmt_id, "--trials", "1", "--jobs", "1", "--out", out])
    ms = (time.perf_counter() - t0) * 1000.0
    with open(out, encoding="utf-8") as handle:
        statuses = [json.loads(line)["status"] for line in handle]
    tasks = len(catalog.get_statement(stmt_id).desk)
    print(json.dumps({"ms": ms, "tasks": tasks, "statuses": statuses}), flush=True)


def _child_cli_seed(seed: int):
    """Cost of every desk case of the sampled stragglers at one trial seed,
    at reference speed (kernel samples between the cases, see speed.py)."""
    from qcongruence import catalog

    sampler = speed.Sampler()
    ms, statuses = 0.0, []
    for stmt_id in workloads.CLI_SAMPLED:
        for case in catalog.get_statement(stmt_id).desk:
            sampler.maybe_sample()
            t0 = time.perf_counter()
            recs = catalog.run_statement(stmt_id, dict(case), m_policy="both", seed=seed, trials=1)
            ms += (time.perf_counter() - t0) * 1000.0
            statuses += [r.status for r in recs]
    print(json.dumps({"ms": ms / speed.slowdown(sampler.samples), "statuses": statuses}), flush=True)


# -- parent side -------------------------------------------------------------------


def _spawn(args: list[str]) -> tuple[list[dict], bool]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *args],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
        start_new_session=True,
    )
    timed_out = False
    try:
        out, _ = proc.communicate(timeout=GROUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        out, _ = proc.communicate()
        timed_out = True
    return [json.loads(line) for line in out.splitlines() if line.strip()], timed_out


def _measure_groups(workload: str, groups: list[dict]) -> tuple[list[dict], list[dict]]:
    pool, left_out = [], []
    for group in groups:
        rows, timed_out = _spawn(["--child", workload, json.dumps(group)])
        for row in rows:
            entry = {"family": group["family"], "id": group["id"], "params": row["params"], "m": row["m"]}
            if row["ms"] > workloads.CAP_MS:
                left_out.append({**entry, "ms": round(row["ms"], 1)})
            elif all(s == "verified" for s in row["statuses"]):
                pool.append({**entry, "ms": round(row["ms"], 3)})
            else:
                left_out.append({**entry, "ms": round(row["ms"], 1), "statuses": sorted(set(row["statuses"]))})
        if timed_out:
            done = {json.dumps(r["params"], sort_keys=True) for r in rows}
            nxt = next((p for p in group["points"] if json.dumps(p, sort_keys=True) not in done), None)
            if nxt is not None:
                left_out.append(
                    {"family": group["family"], "id": group["id"], "params": nxt, "ms": f">{GROUP_TIMEOUT_S * 1000}"}
                )
        print(f"{workload} {group['id']} {len(rows)} points", file=sys.stderr)
    return pool, left_out


def _q_controls(pool: list[dict]) -> list[dict]:
    candidates = []
    seen = set()
    for entry in pool:
        params = entry["params"]
        key = (entry["id"], json.dumps(params, sort_keys=True))
        if entry["family"] not in CONTROL_FAMILIES or key in seen or entry["ms"] > CONTROL_MAX_MS:
            continue
        if params.get("n", 3) < 3:
            continue
        seen.add(key)
        candidates.append({"family": entry["family"], "id": entry["id"], "params": params, "m": "first"})
    rows, _ = _spawn(["--child-control", json.dumps(candidates)])
    out = []
    for entry, row in zip(candidates, rows):
        if row["status"] == "failed":
            out.append({**entry, "ms": round(row["ms"], 3)})
        else:
            print(f"control {entry} came back {row['status']}", file=sys.stderr)
    return out


def calibrate(only: list[str]) -> dict:
    costs = {}
    if "q_closed" in only or "q_generic" in only:
        for name, groups in (("q_closed", workloads.q_closed_groups()), ("q_generic", workloads.q_generic_groups())):
            if name not in only:
                continue
            pool, left_out = _measure_groups(name, groups)
            costs[name] = {"pool": pool, "controls": _q_controls(pool), "left_out": left_out}
    if "classical" in only:
        pool, left_out = _measure_groups("classical", workloads.classical_groups())
        controls = []
        for group in workloads.classical_groups(workloads.CONTROL_MODULI):
            rows_g, _ = _spawn(["--child", "classical", json.dumps(group)])
            for row in rows_g:
                if row["statuses"] and all(s == "failed" for s in row["statuses"]):
                    controls.append(
                        {"family": group["family"], "id": group["id"], "params": row["params"], "m": "both",
                         "ms": round(row["ms"], 3)}
                    )
        costs["classical"] = {"pool": pool, "controls": controls, "left_out": left_out}
    if "cli_fanout" in only:
        section = {"desk_ms": {}, "tasks": {}}
        tmp = ROOT / "perfbench" / "out"
        tmp.mkdir(parents=True, exist_ok=True)
        for ids in (workloads.CLI_LIGHT_Q, workloads.CLI_CLASSICAL, workloads.CLI_HEAVY):
            for stmt_id in ids:
                rows, _ = _spawn(["--child-cli", stmt_id, str(tmp / "calibrate.jsonl")])
                row = rows[0]
                section["desk_ms"][stmt_id] = round(row["ms"], 1)
                section["tasks"][stmt_id] = row["tasks"]
                bad = [s for s in row["statuses"] if s != "verified"]
                if bad:
                    print(f"cli desk {stmt_id}: {bad}", file=sys.stderr)
        section["seed_ms"] = []
        for seed in range(CLI_TRIAL_SEEDS):
            row = _spawn(["--child-cli-seed", str(seed)])[0][0]
            section["seed_ms"].append(round(row["ms"], 1))
            bad = [s for s in row["statuses"] if s != "verified"]
            if bad:
                print(f"cli stragglers at trial seed {seed}: {bad}", file=sys.stderr)
        costs["cli_fanout"] = section
    return costs


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        return _child(json.loads(sys.argv[3]), sys.argv[2])
    if len(sys.argv) > 1 and sys.argv[1] == "--child-control":
        return _child_control(json.loads(sys.argv[2]))
    if len(sys.argv) > 1 and sys.argv[1] == "--child-cli":
        return _child_cli(sys.argv[2], sys.argv[3])
    if len(sys.argv) > 1 and sys.argv[1] == "--child-cli-seed":
        return _child_cli_seed(int(sys.argv[2]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default=",".join(workloads.WORKLOADS))
    args = parser.parse_args()
    costs = workloads.load_costs() if workloads.COSTS_FILE.exists() else {}
    costs.update(calibrate(args.only.split(",")))
    with open(workloads.COSTS_FILE, "w", encoding="utf-8") as handle:
        handle.write(_format_costs(costs))


def _format_costs(costs: dict) -> str:
    """JSON with one pool entry per line, so a recalibration diffs by entry."""
    sections = []
    for workload, section in sorted(costs.items()):
        fields = []
        for key, value in sorted(section.items()):
            if isinstance(value, list):
                rows = ",\n".join("   " + json.dumps(row, sort_keys=True) for row in value)
                fields.append(f"  {json.dumps(key)}: [\n{rows}\n  ]")
            else:
                fields.append(f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}")
        sections.append(f" {json.dumps(workload)}: {{\n" + ",\n".join(fields) + "\n }")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    main()
