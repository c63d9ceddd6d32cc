"""Case pools and the seeded, stratified case generator.

Nothing here imports qcongruence: the program only ever sees the cases this
module generates.  Pools are enumerated by family (one statement, or one
statement at one (d, r[, t]) shape) in growing size; calibrate.py measures
each point once on a reference machine and stores the cost in costs.json.
The generator spends a fixed estimated-cost budget per run in a stratified
systematic draw (see _draw).  That keeps the total work of a run nearly
constant from seed to seed while the seed still decides which points, which
truncation slots, which sampled rationals and which order.
"""

from __future__ import annotations

import json
import random
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
COSTS_FILE = HERE / "costs.json"

WORKLOADS = ("q_closed", "q_generic", "classical", "cli_fanout")

# Share of --seconds that the estimated cost of one measured pass may use;
# the rest covers the determinism pass, set-up timing and interpreter starts.
FILL = 0.8
# Calibration stops a family at its first point dearer than CAP_MS.  A run
# uses only points costing at most CAP_MS_PER_S per second of --seconds
# (600 ms at 20 s; 300 ms for q_generic, whose cost per case also depends on
# the sampled rationals, so few dear cases would make the run's total work
# vary with the seed); dearer points are left out for length.
CAP_MS = 1500.0
CAP_MS_PER_S = {"q_closed": 30.0, "q_generic": 15.0, "classical": 30.0}
CONTROL_SHARE = 0.08
# Size bands (estimated ms per case) that stratify the endless q_generic pool.
BANDS = (0.0, 5.0, 20.0, 60.0, 150.0, 350.0, float("inf"))

ODD_PRIMES = tuple(p for p in range(3, 62) if all(p % k for k in range(2, p)))
# Odd composites: the classical statements are claimed for primes only, so at
# these moduli a correct verifier must report them as failed.
CONTROL_MODULI = (9, 15, 21, 25, 27, 33, 35)


# -- candidate enumeration (used by calibrate.py) ------------------------------


def _grow(stmt_id, family, points, m_values=("both",)):
    return {"family": family, "id": stmt_id, "points": list(points), "m": list(m_values)}


def _thm_e_points(d, r, upper=40):
    return [
        {"n": n, "d": d, "r": r}
        for n in range(1, upper)
        if n + r >= d and gcd(n, d) == 1 and (n + r) % d == 0
    ]


def _window_points(d, r, upper=30):
    return [
        {"n": n, "d": d, "r": r}
        for n in range(1, upper)
        if gcd(n, d) == 1 and d + n - d * n <= r <= n and (n - r) % d == 0
    ]


_SUM_SLOTS = ("both", "first", "second")


def q_closed_groups():
    odd = [{"n": n} for n in range(1, 60, 2)]
    one3 = [{"n": n} for n in range(1, 60) if n % 3 == 1]
    two3 = [{"n": n} for n in range(2, 60) if n % 3 == 2]
    three4 = [{"n": n} for n in range(3, 80, 4)]
    groups = [
        _grow("THM_A", "THM_A", odd, _SUM_SLOTS),
        _grow("GWY", "GWY", odd, _SUM_SLOTS),
        _grow("THM_B", "THM_B", one3, _SUM_SLOTS),
        _grow("THM_C", "THM_C", two3, _SUM_SLOTS),
        _grow("GS_16", "GS_16", [{"n": n} for n in range(1, 60) if n % 3], ("both",)),
        _grow("LEM_OO", "LEM_OO", two3, _SUM_SLOTS),
        _grow("LEM_PP", "LEM_PP", two3),
        _grow("LEM_REL", "LEM_REL", [{"t": t} for t in range(0, 60)]),
        _grow("LEM_WEI_K", "LEM_WEI_K", three4),
        _grow("LEM_WEI_M", "LEM_WEI_M", [{"n": n} for n in range(1, 80, 2)]),
        _grow("LEM_WEI_N", "LEM_WEI_N", three4),
    ]
    for d in (3, 4, 5):
        for r in (1, -1):
            groups.append(_grow("THM_E", "THM_E", _thm_e_points(d, r), _SUM_SLOTS))
    return groups


def q_generic_groups():
    odd = [{"n": n} for n in range(1, 40, 2)]
    groups = [
        _grow("PROP_2_1", "PROP_2_1", odd),
        _grow("THM_2_2", "THM_2_2", odd),
        _grow("PROP_3_1", "PROP_3_1", [{"n": n, "t": 1} for n in range(1, 40) if n % 3 == 1]),
        _grow("PROP_3_1", "PROP_3_1", [{"n": n, "t": 2} for n in range(2, 40) if n % 3 == 2]),
        _grow("THM_3_2", "THM_3_2", [{"n": n} for n in range(1, 40) if n % 3 == 1]),
        _grow("THM_3_3", "THM_3_3", [{"n": n} for n in range(2, 40) if n % 3 == 2]),
    ]
    for d, r in ((3, 1), (3, -1), (3, 2), (3, -2), (4, 1), (4, -1), (5, 1), (5, -3)):
        pts = [{"n": n, "d": d, "r": r} for n in range(2, 30) if gcd(n, d) == 1]
        groups.append(_grow("NW_A", "NW_A", pts))
        groups.append(_grow("NW_B", "NW_B", pts))
    for d in (3, 4, 5):
        for r in (1, -1):
            pts = [p for p in _thm_e_points(d, r) if p["n"] > 1 and p["n"] >= d - r]
            groups.append(_grow("NW_23", "NW_23", pts))
    for d, rs in ((3, (1, -1, 2, -2, 4, -4)), (4, (1, -1, 3, -3)), (5, (1, -1, -2, -3, -4))):
        for r in rs:
            groups.append(_grow("THM_D", "THM_D", _window_points(d, r)))
            groups.append(_grow("THM_5_4", "THM_5_4", _window_points(d, r)))
    for d, r, t in ((3, 1, 1), (3, -1, 1), (3, 2, 1), (3, -2, 1), (4, 1, 1), (4, -1, 1), (3, 1, 2), (4, 1, 3)):
        pts = [
            {"n": n, "d": d, "r": r, "t": t}
            for n in range(1, 30)
            if gcd(n, d) == 1 and d + t * n - d * n <= r <= t * n and (t * n - r) % d == 0
        ]
        groups.append(_grow("PROP_5_3", "PROP_5_3", pts))
    for d in (3, 4, 5):
        for r in (1, -1):
            groups.append(_grow("THM_5_5", "THM_5_5", _thm_e_points(d, r)))
    return groups


CLASSICAL_IDS = (
    "COR_1_4", "COR_1_5", "COR_1_6", "PROP_1_7", "PROP_1_8", "VH_A2", "VH_D2", "LIU",
    "LR", "COR_5_E", "COR_5_G", "COR_5_H", "SUN_H2", "SUN_H2HALF", "SUN_H3",
)
_TAKES_S = ("COR_1_4", "COR_1_5", "COR_1_6", "COR_5_E", "COR_5_G", "COR_5_H")
_TAKES_DR = {
    "COR_5_E": [(3, r) for r in (1, -1, 2, -2, 4, -4)] + [(4, r) for r in (1, -1, 3, -3)],
    "COR_5_G": [(3, r) for r in (1, -1, 2, -2, 4, -4)] + [(4, r) for r in (1, -1, 3, -3)],
    "COR_5_H": [(d, r) for d in (3, 4, 5) for r in (1, -1)],
}


def classical_groups(moduli=ODD_PRIMES):
    groups = []
    for stmt_id in CLASSICAL_IDS:
        for s in ((1, 2) if stmt_id in _TAKES_S else (1,)):
            for d, r in _TAKES_DR.get(stmt_id, [(None, None)]):
                pts = []
                for p in moduli:
                    pt = {"p": p, "s": s}
                    if d is not None:
                        pt.update(d=d, r=r)
                    pts.append(pt)
                groups.append(_grow(stmt_id, stmt_id, pts))
    return groups


# -- cli_fanout: statement ids whose built-in desk cases form the mix ----------

# Desk cases of these statements are all light (tens to hundreds of ms each).
# They have no sampled symbols, so the CLI's --seed leaves their cost alone:
# only the stragglers in CLI_SAMPLED, drawn from a calibrated band, change
# cost with the seed.
CLI_LIGHT_Q = (
    "THM_A", "GWY", "THM_B", "THM_C", "GS_16", "LEM_PP", "LEM_REL", "LEM_WEI_K",
    "LEM_WEI_M", "LEM_WEI_N",
)
CLI_CLASSICAL = CLASSICAL_IDS
# Desk cases that include multi-second points (the stragglers).
CLI_HEAVY = ("NW_B", "LEM_OO", "THM_D", "THM_3_2")
# The heavy ids with sampled symbols: the CLI's --seed sets their cost.
CLI_SAMPLED = ("NW_B", "THM_D", "THM_3_2")


# -- generation ----------------------------------------------------------------


def load_costs() -> dict:
    with open(COSTS_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def _size_key(case: dict) -> int:
    params = case["params"]
    return params.get("n", params.get("t", params.get("p", 0)))


def _band(ms: float) -> int:
    for i in range(len(BANDS) - 1):
        if BANDS[i] <= ms < BANDS[i + 1]:
            return i
    return len(BANDS) - 2


def _draw(pool: list[dict], budget_ms: float, rng: random.Random, endless: bool) -> list[dict]:
    """Stratified systematic draw from a pool of calibrated entries.

    Endless pools (points with sampled rationals, which may repeat, each time
    with a new sample) are stratified by family and size band: the budget is
    split evenly over families, then over each family's bands, and a band's
    share buys cases at the band's mean cost, at least one.  Other pools give
    each point at most once; they are stratified by family and take the same
    share of every family, scaled so the whole draw fits the budget.

    Within a stratum the entries are sorted by cost and the cases are taken
    at evenly spaced positions from a seeded offset, so each seed picks other
    points but the same spread of costs.  The offsets are spread evenly over
    the families (a seeded Latin hypercube), so the families do not all pick
    their dearest points together.  That keeps total work and latency
    percentiles steady from seed to seed.
    """
    strata: dict[tuple[str, int], list[dict]] = {}
    for entry in pool:
        band = _band(entry["ms"]) if endless else 0
        strata.setdefault((entry["family"], band), []).append(entry)
    families = sorted({family for family, _ in strata})
    offsets = {}
    for band in sorted({band for _, band in strata}):
        having = [family for family in families if (family, band) in strata]
        slots = list(range(len(having)))
        rng.shuffle(slots)
        jitter = rng.random()
        for family, slot in zip(having, slots):
            offsets[family, band] = (slot + jitter) / len(having)
    share = min(1.0, budget_ms / sum(entry["ms"] for entry in pool))
    out = []
    for key in sorted(strata):
        entries = sorted(strata[key], key=lambda e: (e["ms"], json.dumps(e["params"], sort_keys=True), e["m"]))
        if endless:
            bands = sum(1 for family, _ in strata if family == key[0])
            stratum_budget = budget_ms / len(families) / bands
            k = max(1, round(stratum_budget * len(entries) / sum(e["ms"] for e in entries)))
        else:
            k = round(share * len(entries))
        out += [entries[int((j + offsets[key]) * len(entries) / k)] for j in range(k)]
    return out


def _case(cid, entry, op, rng, expect):
    return {
        "cid": cid,
        "op": op,
        "id": entry["id"],
        "family": entry["family"],
        "params": dict(entry["params"]),
        "m": entry.get("m", "both"),
        "seed": rng.randrange(1_000_000),
        "expect": expect,
        "ms": entry["ms"],
    }


def generate(workload: str, seed: int, seconds: float) -> dict:
    """The generated input of one run: a case list, or a CLI invocation."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    costs = load_costs()
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli_fanout":
        return _generate_cli(costs["cli_fanout"], rng, seconds)
    section = costs[workload]
    budget = seconds * 1000.0 * FILL
    control_budget = budget * CONTROL_SHARE
    cap = min(CAP_MS, CAP_MS_PER_S[workload] * seconds)
    pool = [entry for entry in section["pool"] if entry["ms"] <= cap]
    drawn = _draw(pool, budget - control_budget, rng, endless=workload == "q_generic")
    controls = _draw(section["controls"], control_budget, rng, endless=False)
    control_op = "classical_control" if workload == "classical" else "control"
    cases = [_case(0, e, "run", rng, "verified") for e in drawn]
    cases += [_case(0, e, control_op, rng, "failed") for e in controls]
    if workload == "q_closed":
        # One client sweeping growing n; ties keep the seeded shuffle order.
        rng.shuffle(cases)
        cases.sort(key=_size_key)
    else:
        rng.shuffle(cases)
    for cid, case in enumerate(cases):
        case["cid"] = cid
    return {"workload": workload, "seed": seed, "cases": cases}


def cli_seed_band(seed_ms: list[float], trials: int) -> list[int]:
    """CLI --seed values whose stragglers cost the middle half.

    With --seed S and --trials T the CLI samples the parametric stragglers
    with trial seeds S .. S+T-1; seed_ms[s] is the calibrated cost of all
    their desk cases at trial seed s.  That cost differs by half between
    the cheapest and the dearest of 40 trial seeds, and the dearest tasks
    decide the wall time of the whole invocation, so the draw is stratified
    by that cost: only seeds from the middle half of the candidates by
    total cost are used.
    """
    totals = sorted((sum(seed_ms[s : s + trials]), s) for s in range(len(seed_ms) - trials + 1))
    quarter = len(totals) // 4
    return sorted(s for _, s in totals[quarter : len(totals) - quarter])


def _generate_cli(section: dict, rng: random.Random, seconds: float) -> dict:
    """One invocation over every light, classical and heavy id's desk cases.

    The id mix is fixed: the stragglers set the wall time and the light ids
    set the record count, so a seeded subset of either would move
    records_per_s with the seed.  The seed draws the CLI's own --seed, which
    picks the sampled rationals of the parametric stragglers, from the band
    of calibrated seeds of typical cost (cli_seed_band); --trials (one per
    10 s of --seconds) scales their share of the work.
    """
    ids = sorted((*CLI_LIGHT_Q, *CLI_CLASSICAL, *CLI_HEAVY))
    trials = max(1, round(seconds / 10.0))
    return {
        "workload": "cli_fanout",
        "ids": ids,
        "cli_seed": rng.choice(cli_seed_band(section["seed_ms"], trials)),
        "trials": trials,
        "expected_tasks": sum(section["tasks"][i] for i in ids),
    }
