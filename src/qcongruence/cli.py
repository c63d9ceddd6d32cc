"""Command line front end: sweep statements, emit machine-readable reports.

Subcommands:
  list      print the statement inventory
  verify    run catalog statements over parameter ranges
  padic     run the classical (prime-power) statements only
  identity  exact checks of terminating summation identities
  check     verify declarations from a .qcs file

Reports are JSONL (default) or CSV with a fixed field order: id, params,
modulus, m_choice, status, witness, elapsed_ms, seed.  Identical settings
and seed produce byte-identical reports; elapsed_ms stays 0 unless
--timestamps is given.  Exit status: 0 all verified (skips allowed), 1 any
failure or error, 2 usage problem, 3 nothing but skips.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import catalog
from .congruence import Modulus, congruent
from .errors import (
    NonIntegerBound,
    QCongruenceError,
    SideConditionViolated,
    SpecSyntaxError,
    UnknownKind,
)
from .expr import Mul, Phi, Pow, QInt, eval_expr, eval_int, load_spec_file
from .polyring import cyclotomic_form, q_integer_form

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_ALL_SKIPPED = 3

FIELDS = ("id", "params", "modulus", "m_choice", "status", "witness", "elapsed_ms", "seed")
RANGE_KEYS = ("n", "d", "r", "t", "p", "s")
_TRUE_WORDS = ("1", "true", "yes", "on")


class UsageError(Exception):
    pass


# -- option plumbing ---------------------------------------------------------


def _parse_range(text: str, key: str) -> list[int]:
    """Accept '5', '3..15', or comma lists mixing both."""
    values = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo_text, _, hi_text = part.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise UsageError(f"bad range for --{key}: {part!r}")
            if hi < lo:
                raise UsageError(f"empty range for --{key}: {part!r}")
            values.extend(range(lo, hi + 1))
        else:
            try:
                values.append(int(part))
            except ValueError:
                raise UsageError(f"bad value for --{key}: {part!r}")
    if not values:
        raise UsageError(f"empty value list for --{key}")
    return values


def _load_config(path: str) -> dict:
    data = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                data[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    return data


def _as_int(value, key: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{key} must be an integer, got {value!r}")


def _settings(args) -> dict:
    """Merge flags over config-file values over built-in defaults."""
    config = _load_config(args.config) if getattr(args, "config", None) else {}

    def pick(key, default, convert=lambda v: v):
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        if key in config:
            return convert(config[key])
        return default

    settings = {
        "ids": pick("id", "all"),
        "seed": pick("seed", 0, lambda v: _as_int(v, "seed")),
        "trials": pick("trials", 3, lambda v: _as_int(v, "trials")),
        "m_choice": pick("m_choice", "both"),
        "format": pick("format", "jsonl"),
        "out": pick("out", None),
        "jobs": pick("jobs", os.cpu_count() or 1, lambda v: _as_int(v, "jobs")),
        "timestamps": pick("timestamps", False, lambda v: v.lower() in _TRUE_WORDS),
    }
    if settings["m_choice"] not in ("first", "second", "both"):
        raise UsageError(f"m_choice must be first, second or both, got {settings['m_choice']!r}")
    if settings["format"] not in ("jsonl", "csv"):
        raise UsageError(f"format must be jsonl or csv, got {settings['format']!r}")
    if settings["jobs"] < 1:
        raise UsageError("jobs must be at least 1")
    if settings["trials"] < 1:
        raise UsageError("trials must be at least 1")
    ranges = {}
    for key in RANGE_KEYS:
        flag = getattr(args, key, None)
        text = flag if flag is not None else config.get(key)
        if text is not None:
            ranges[key] = _parse_range(text, key)
    settings["ranges"] = ranges
    return settings


# -- task generation and execution -------------------------------------------


def _resolve_ids(spec_text: str, classical_only: bool) -> list[str]:
    known = catalog.list_statements()
    if classical_only:
        known = [s for s in known if s.kind == "classical"]
    if spec_text == "all":
        return [s.stmt_id for s in known]
    allowed = {s.stmt_id for s in known}
    ids = []
    for part in spec_text.split(","):
        part = part.strip()
        if not part:
            continue
        if part not in allowed:
            raise UsageError(f"unknown statement id {part!r}")
        ids.append(part)
    if not ids:
        raise UsageError("no statement ids given")
    return ids


def _cases_for(stmt: catalog.Statement, ranges: dict) -> list[dict]:
    if not ranges:
        return [dict(case) for case in stmt.desk]
    keys = [k for k in RANGE_KEYS if k in ranges]
    return [
        dict(zip(keys, combo))
        for combo in itertools.product(*[ranges[k] for k in keys])
    ]


def _case_key(case: dict):
    return tuple(sorted(case.items()))


def _task_record(task, status: str, witness: dict) -> dict:
    """The one record a task yields when its statement produced none."""
    stmt_id, case, m_policy, seed = task[:4]
    slot = catalog._fallback_slot(m_policy)
    record = catalog.VerificationRecord(stmt_id, case, "", slot, status, witness, 0, seed)
    return record.to_json_dict()


def _run_verify_task(task) -> list[dict]:
    """Run one (statement, case) task; it never raises for a bad point.

    Points outside the side conditions give a skipped record; any other
    exception gives an error record naming it, so one task cannot discard
    the rest of the batch.
    """
    stmt_id, case, m_policy, seed, trials, timestamps = task
    try:
        records = catalog.run_statement(
            stmt_id,
            case,
            m_policy=m_policy,
            seed=seed,
            trials=trials,
            timestamps=timestamps,
        )
        return [rec.to_json_dict() for rec in records]
    except (SideConditionViolated, NonIntegerBound) as exc:
        return [_task_record(task, "skipped", {"reason": str(exc)})]
    except Exception as exc:
        return [_task_record(task, "error", {"error": type(exc).__name__, "detail": str(exc)})]


def _run_tasks(tasks: list, jobs: int) -> list[dict]:
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # The fork start method launches every worker up front, so never
        # ask for more workers than there are tasks.
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            chunks = list(pool.map(_run_verify_task, tasks))
    else:
        chunks = [_run_verify_task(task) for task in tasks]
    return [rec for chunk in chunks for rec in chunk]


# -- report rendering ---------------------------------------------------------


def _render_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(rec) + "\n" for rec in records)


def _render_csv(records: list[dict]) -> str:
    if not records:
        return ""
    import csv as _csv
    import io

    buffer = io.StringIO()
    writer = _csv.writer(buffer, lineterminator="\n")
    writer.writerow(FIELDS)
    for rec in records:
        writer.writerow(
            [
                rec["id"],
                json.dumps(rec["params"]),
                rec["modulus"],
                rec["m_choice"],
                rec["status"],
                json.dumps(rec["witness"]),
                rec["elapsed_ms"],
                "" if rec["seed"] is None else rec["seed"],
            ]
        )
    return buffer.getvalue()


def _emit(records: list[dict], fmt: str, out: str | None):
    text = _render_csv(records) if fmt == "csv" else _render_jsonl(records)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _exit_code(records: list[dict]) -> int:
    statuses = [rec["status"] for rec in records]
    if any(s in ("failed", "error") for s in statuses):
        return EXIT_FAILED
    if any(s == "verified" for s in statuses):
        return EXIT_OK
    return EXIT_ALL_SKIPPED


def _summarize(records: list[dict]):
    counts = {"verified": 0, "failed": 0, "skipped": 0, "error": 0}
    for rec in records:
        counts[rec["status"]] = counts.get(rec["status"], 0) + 1
    parts = " ".join(f"{key}={counts[key]}" for key in ("verified", "failed", "skipped", "error"))
    print(parts, file=sys.stderr)


# -- subcommands ---------------------------------------------------------------


def _cmd_list(args) -> int:
    for stmt in catalog.list_statements():
        print(f"{stmt.stmt_id}  [{stmt.kind}]  {stmt.description}")
        print(f"    parameters: {stmt.param_doc}")
        print(f"    side conditions: {stmt.side_doc}")
        print(f"    truncations: {stmt.m_doc}")
    return EXIT_OK


def _cmd_verify(args, classical_only: bool = False) -> int:
    settings = _settings(args)
    ids = _resolve_ids(settings["ids"], classical_only)
    tasks = []
    for stmt_id in ids:
        stmt = catalog.get_statement(stmt_id)
        for case in _cases_for(stmt, settings["ranges"]):
            tasks.append(
                (
                    stmt_id,
                    case,
                    settings["m_choice"],
                    settings["seed"],
                    settings["trials"],
                    settings["timestamps"],
                )
            )
    tasks.sort(key=lambda task: (task[0], _case_key(task[1])))
    records = _run_tasks(tasks, settings["jobs"])
    _emit(records, settings["format"], settings["out"])
    _summarize(records)
    return _exit_code(records)


def _cmd_padic(args) -> int:
    return _cmd_verify(args, classical_only=True)


def _cmd_identity(args) -> int:
    seed = args.seed if args.seed is not None else 0
    count = args.random if args.random is not None else 1
    if count < 1:
        raise UsageError("--random must be at least 1")
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.d is not None:
        params["d"] = args.d
    if args.r is not None:
        params["r"] = args.r
    records = []
    any_unequal = False
    for i in range(count):
        try:
            check = catalog.check_terminating_identity(args.id, dict(params), rng_seed=seed + i)
        except KeyError as exc:
            raise UsageError(str(exc))
        except QCongruenceError as exc:
            raise UsageError(f"inadmissible parameters for {args.id}: {exc}")
        rec = {
            "id": check.identity_id,
            "params": catalog._json_safe(check.params),
            "equal": check.equal,
            "seed": seed + i,
        }
        if not check.equal:
            rec["detail"] = check.detail
            any_unequal = True
        records.append(rec)
    _emit(records, "jsonl", args.out)
    return EXIT_FAILED if any_unequal else EXIT_OK


def _modulus_from_node(node, env) -> Modulus:
    """Flatten a modulus expression (products and integer powers) to factors.

    A qint(..) or phi(..) factor carries its binomial form; any other factor,
    even one equal to a q-integer or a cyclotomic, carries none.
    """
    factors, forms = [], []

    def walk(nd, mult):
        if mult == 0:
            return
        if isinstance(nd, Mul):
            walk(nd.a, mult)
            walk(nd.b, mult)
            return
        if isinstance(nd, Pow):
            exponent = eval_int(nd.exp, env)
            if exponent < 0:
                raise SideConditionViolated("modulus factors need nonnegative exponents")
            walk(nd.base, mult * exponent)
            return
        value = eval_expr(nd, env)
        if value.den.degree != 0:
            raise SideConditionViolated("modulus factor is not a polynomial in q")
        if value.num.is_zero():
            raise SideConditionViolated("modulus factor is zero")
        form = None
        if isinstance(nd, QInt):
            form = q_integer_form(eval_int(nd.arg, env))
        elif isinstance(nd, Phi):
            form = cyclotomic_form(eval_int(nd.arg, env))
        factors.append((value.num, mult))
        forms.append(form)

    walk(node, 1)
    return Modulus(factors, forms=forms)


def _cmd_check(args) -> int:
    try:
        specs = load_spec_file(args.spec)
    except OSError as exc:
        raise UsageError(f"cannot read spec file: {exc}")
    except SpecSyntaxError as exc:
        raise UsageError(str(exc))
    records = []
    for spec in specs:
        env = dict(spec.bindings)
        try:
            lhs = eval_expr(spec.lhs, env)
            rhs = eval_expr(spec.rhs, env)
            modulus = None if spec.modulus is None else _modulus_from_node(spec.modulus, env)
            result = congruent(lhs, rhs, modulus)
            status, witness = result.status, result.witness
            label = catalog._label(modulus)
        except Exception as exc:  # one bad declaration must not end the batch
            status = "error"
            witness = {"error": type(exc).__name__, "detail": str(exc)}
            label = ""
        record = catalog.VerificationRecord(
            spec.spec_id, spec.bindings, label, "first", status, witness, 0, None
        )
        records.append(record.to_json_dict())
    _emit(records, args.format or "jsonl", args.out)
    _summarize(records)
    return _exit_code(records)


# -- parser ---------------------------------------------------------------------


def _add_report_options(parser):
    parser.add_argument("--seed", type=int, default=None, help="base random seed (default 0)")
    parser.add_argument(
        "--trials", type=int, default=None, help="sampled specializations per case (default 3)"
    )
    parser.add_argument(
        "--m-choice",
        dest="m_choice",
        choices=("first", "second", "both"),
        default=None,
        help="which truncation slot(s) to run (default both)",
    )
    parser.add_argument("--format", choices=("jsonl", "csv"), default=None)
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    parser.add_argument(
        "--jobs", type=int, default=None, help="worker processes (default: available cores)"
    )
    parser.add_argument(
        "--timestamps",
        action="store_true",
        default=None,
        help="record wall-clock elapsed_ms per record (otherwise 0)",
    )
    parser.add_argument("--config", default=None, help="key=value settings file; flags override")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcong",
        description="Exact verification of q-congruences and their prime-power specializations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the statement inventory")

    verify = sub.add_parser("verify", help="verify catalog statements over parameter ranges")
    verify.add_argument("--id", default=None, help="statement id, comma list, or 'all'")
    for key in RANGE_KEYS:
        verify.add_argument(
            f"--{key}", default=None, help=f"values for {key}: '5', '3..15', or comma list"
        )
    _add_report_options(verify)

    padic_cmd = sub.add_parser("padic", help="verify the classical prime-power statements")
    padic_cmd.add_argument("--id", default=None, help="classical statement id, comma list, or 'all'")
    for key in ("p", "s", "d", "r"):
        padic_cmd.add_argument(
            f"--{key}", default=None, help=f"values for {key}: '7', '5..13', or comma list"
        )
    _add_report_options(padic_cmd)

    identity = sub.add_parser("identity", help="exact terminating-identity checks")
    identity.add_argument("--id", required=True, help="identity id, e.g. QCHU or WATSON_SPEC")
    identity.add_argument("--n", type=int, default=None)
    identity.add_argument("--d", type=int, default=None)
    identity.add_argument("--r", type=int, default=None)
    identity.add_argument("--random", type=int, default=None, help="number of seeded checks")
    identity.add_argument("--seed", type=int, default=None)
    identity.add_argument("--out", default=None)

    check = sub.add_parser("check", help="verify declarations from a .qcs file")
    check.add_argument("--spec", required=True, help="path to the declarations file")
    check.add_argument("--format", choices=("jsonl", "csv"), default=None)
    check.add_argument("--out", default=None)

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "verify": _cmd_verify,
    "padic": _cmd_padic,
    "identity": _cmd_identity,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, UnknownKind) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
