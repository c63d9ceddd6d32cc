"""Print every function of the package that a fixed set of commands never calls.

    PYTHONPATH=src python tests/unreached.py

Runs in this process, under a function-level profile hook (sys.setprofile)
installed before the package is imported:
  - every golden command of tests/test_golden.py (CASES and CI_CASES, the
    identity runs and the check specs), at --jobs 1, and `qcong list`;
  - `padic --id all --p 17..61 --d 3,4,5 --r 1,-1,2,-2,3,-3,4,-4` and
    `padic --id all --p 3..61 --s 1,2`;
  - the seed-1 case lists of the classical, q_closed and q_generic benchmark
    workloads, generated by perfbench/workloads.py and run as
    perfbench/worker.py runs them.
Then it prints each function of src/qcongruence that none of them called,
as module.qualname (lambdas and comprehensions are not counted), and exits 1
if one of them is not listed in tests/data/unreached.txt, which gives every
name kept on purpose with its reason, or if a name listed there is no longer
defined.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcongruence"
KEPT = ROOT / "tests" / "data" / "unreached.txt"

SWEEPS = [
    ["padic", "--id", "all", "--p", "17..61", "--d", "3,4,5", "--r", "1,-1,2,-2,3,-3,4,-4"],
    ["padic", "--id", "all", "--p", "3..61", "--s", "1,2"],
]
WORKLOADS = ("classical", "q_closed", "q_generic")


def _functions() -> dict[tuple[str, int, str], str]:
    """{(file, first line, name): module.qualname} for every def in the package."""
    names = {}

    def walk(code, path, prefix):
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                name = f"{prefix}.{const.co_name}"
                if const.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
                    names[(path, const.co_firstlineno, const.co_name)] = name
                walk(const, path, name)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), str(path), path.stem)
    return names


def _traffic(out: Path):
    """Run every command and case list above."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]
    import test_golden
    import worker
    import workloads
    from qcongruence import catalog
    from qcongruence.cli import main
    from qcongruence.polyring import QPoly, QRat

    runs = [["list"]]
    for name, argv, _ in test_golden.CASES + test_golden.CI_CASES:
        runs += [run + ["--jobs", "1"] for run in test_golden._commands(argv)]
    runs += [list(run) for run in test_golden.IDENTITY_RUNS]
    runs += [["check", "--spec", str(test_golden.DATA / spec)] for spec, _, _ in test_golden.CHECK_CASES]
    runs += [run + ["--jobs", "1"] for run in SWEEPS]
    for i, argv in enumerate(runs):
        if argv[0] != "list":
            argv = argv + ["--out", str(out / f"{i}.out")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(argv)
    q = QRat(QPoly([0, 1]))
    for workload in WORKLOADS:
        for case in workloads.generate(workload, 1, 20.0)["cases"]:
            worker._run_case(catalog, case, q)


def main() -> int:
    seen: set = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as out:
        sys.setprofile(hook)
        try:
            _traffic(Path(out))
        finally:
            sys.setprofile(None)
    functions = _functions()
    called = {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name) for c in seen}
    unreached = [name for key, name in functions.items() if key not in called]
    kept = {}
    for line in KEPT.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition(" ")
            kept[name] = reason.strip()
    unlisted = [name for name in unreached if name not in kept]
    stale = sorted(set(kept) - set(functions.values()))
    print(f"{len(unreached)} of {len(functions)} functions never called ({time.perf_counter() - started:.1f} s):")
    for name in unreached:
        print(f"  {name}" + ("" if name in kept else "    NOT LISTED in tests/data/unreached.txt"))
    for name in stale:
        print(f"  {name} is listed in tests/data/unreached.txt but not defined")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
