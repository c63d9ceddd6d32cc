"""Tests for the command line interface and report formats."""

import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcongruence import catalog, cli
from qcongruence.cli import main

FIELD_ORDER = ["id", "params", "modulus", "m_choice", "status", "witness", "elapsed_ms", "seed"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_jsonl_schema_and_order(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "GS_16", "--n", "2..4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        record = json.loads(line)
        assert list(record) == FIELD_ORDER
    statuses = [json.loads(line)["status"] for line in lines]
    assert statuses == ["verified", "skipped", "verified"]


def test_verify_sweep_skips_and_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "THM_A", "--n", "3..6", "--m-choice", "first")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    by_n = {rec["params"]["n"]: rec["status"] for rec in records}
    assert by_n == {3: "verified", 4: "skipped", 5: "verified", 6: "skipped"}
    for rec in records:
        if rec["status"] == "skipped":
            assert "reason" in rec["witness"]
            assert rec["modulus"] == ""


def test_verify_all_skipped_exit_three(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "THM_B", "--n", "5..5")
    assert code == 3
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec["status"] for rec in records] == ["skipped"]


def test_verify_unknown_id_exit_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--id", "NO_SUCH")
    assert code == 2
    assert "unknown statement id" in err


def test_verify_single_slot_second_choice_skips(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "GS_16", "--n", "4", "--m-choice", "second")
    assert code == 3
    record = json.loads(out.strip())
    assert record["status"] == "skipped"
    assert record["m_choice"] == "second"


def test_verify_deterministic_and_parallel_merge(tmp_path, capsys):
    args = ["verify", "--id", "PROP_3_1,GS_16", "--n", "2..5", "--seed", "1"]
    paths = [tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl")]
    for path, extra in zip(paths, ([], [], ["--jobs", "2"])):
        code = main(args + ["--out", str(path)] + extra)
        capsys.readouterr()
        assert code == 0
    blobs = [path.read_bytes() for path in paths]
    assert blobs[0] == blobs[1]
    assert blobs[0] == blobs[2]


def test_importing_cli_leaves_the_process_pool_unloaded():
    # Only --jobs > 1 uses the pool, so a fresh interpreter that imports the
    # command line module loads neither concurrent.futures.process nor
    # multiprocessing.
    code = (
        "import sys\n"
        "import qcongruence.cli\n"
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_verify_pool_never_exceeds_task_count(capsys, monkeypatch):
    seen = []

    class InlineExecutor:
        """Records the pool size asked for and maps in this process."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            seen.append(len(tasks))
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    code, out, _ = run_cli(capsys, "verify", "--id", "THM_A", "--n", "5,7", "--jobs", "16")
    assert code == 0
    assert len(out.strip().splitlines()) == 4  # both m choices at each n
    assert seen == [2, 2]  # two workers for two tasks


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "THM_C", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,params,modulus,m_choice,status,witness,elapsed_ms,seed"
    assert len(lines) == 3
    assert lines[1].startswith("THM_C,")


def test_verify_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "settings.cfg"
    config.write_text("id = GS_16\nn = 2\nformat = csv\nseed = 3\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--config", str(config))
    assert code == 0
    assert out.startswith("id,params")
    code, out, _ = run_cli(capsys, "verify", "--config", str(config), "--format", "jsonl")
    assert code == 0
    record = json.loads(out.strip().splitlines()[0])
    assert record["id"] == "GS_16"
    assert record["seed"] == 3


def test_verify_desk_cases_when_no_ranges(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "LEM_REL")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 7
    assert all(rec["status"] == "verified" for rec in records)


def test_unexpected_task_exception_becomes_error_record(tmp_path, capsys, monkeypatch):
    real = catalog.run_statement

    def run_statement(stmt_id, *args, **kwargs):
        if stmt_id == "THM_C":
            raise RuntimeError("boom")
        return real(stmt_id, *args, **kwargs)

    expected = tmp_path / "expected.jsonl"
    assert main(["verify", "--id", "GS_16", "--n", "2", "--jobs", "1", "--out", str(expected)]) == 0
    monkeypatch.setattr(catalog, "run_statement", run_statement)
    out = tmp_path / "report.jsonl"
    argv = ["verify", "--id", "GS_16,THM_C", "--n", "2", "--jobs", "1", "--out", str(out)]
    code = main(argv)
    capsys.readouterr()
    assert code == 1
    lines = out.read_text(encoding="utf-8").splitlines(keepends=True)
    assert "".join(lines[:-1]) == expected.read_text(encoding="utf-8")
    record = json.loads(lines[-1])
    assert list(record) == FIELD_ORDER
    assert record["id"] == "THM_C"
    assert record["params"] == {"n": 2}
    assert record["status"] == "error"
    assert record["witness"] == {"error": "RuntimeError", "detail": "boom"}


def test_padic_subcommand(capsys):
    code, out, _ = run_cli(capsys, "padic", "--id", "SUN_H2", "--p", "5,7")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec["params"]["p"] for rec in records] == [5, 7]
    assert all(rec["modulus"].endswith("^2") for rec in records)


def test_padic_rejects_q_side_ids(capsys):
    code, _, err = run_cli(capsys, "padic", "--id", "THM_A")
    assert code == 2
    assert "unknown statement id" in err


def test_identity_checks(capsys):
    code, out, _ = run_cli(capsys, "identity", "--id", "QCHU", "--random", "3", "--seed", "2")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 3
    assert all(rec["equal"] for rec in records)
    assert [rec["seed"] for rec in records] == [2, 3, 4]


def test_identity_invalid_parameters_exit_two(capsys):
    code, _, err = run_cli(capsys, "identity", "--id", "WATSON_SPEC", "--n", "0")
    assert code == 2
    assert "inadmissible" in err
    code, _, err = run_cli(capsys, "identity", "--id", "NOPE")
    assert code == 2


@pytest.mark.parametrize("d,r", [("0", None), ("1", "-5"), ("2", "-5")])
def test_identity_watson_sampler_refuses_bad_d_and_r(capsys, d, r):
    # With n left to the sampler, a d below 1, or an r so negative that no
    # n = r + d*k with k <= 3 is positive, is refused before n is drawn.
    argv = ["identity", "--id", "WATSON_SPEC", "--d", d] + ([f"--r={r}"] if r else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "inadmissible parameters for WATSON_SPEC: " in err


def test_check_spec_file(tmp_path, capsys):
    spec = tmp_path / "decls.qcs"
    spec.write_text(
        "# three declarations\n"
        "GOOD : qint(n)^2 * poch(q^3; q^4; (n-1)/2) / poch(q^5; q^4; (n-1)/2)"
        " == 0 mod qint(n) with n = 5\n"
        "EXACT : poch(q; q^2; t) * poch(q^2; q^2; t) == poch(q; q; 2*t) with t = 4\n"
        "WRONG : qint(n) == 1 mod phi(n) with n = 4\n"
        "UNEQUAL : poch(q; q^2; t) * poch(q^2; q^2; t) == poch(q; q; 2*t) + q^2 with t = 2\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "check", "--spec", str(spec))
    assert code == 1
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec["status"] for rec in records] == ["verified", "verified", "failed", "failed"]
    assert records[1]["modulus"] == "exact"
    assert records[2]["witness"]["failing_factor"] == "(q^2+1)"
    assert records[3]["modulus"] == "exact"
    assert records[3]["witness"] == {"difference_degree": 2}


def test_check_spec_error_record(tmp_path, capsys):
    spec = tmp_path / "bad.qcs"
    spec.write_text("BOOM : 1 / (q - q) == 0 mod phi(2) with n = 1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "check", "--spec", str(spec))
    assert code == 1
    record = json.loads(out.strip())
    assert record["status"] == "error"
    assert record["witness"]["error"]


def test_check_value_error_is_an_error_record(tmp_path, capsys):
    spec = tmp_path / "value.qcs"
    spec.write_text(
        "GOOD : qint(n) == 0 mod qint(n) with n = 3\n"
        "PHI0 : phi(0) == 0\n"
        "STEP0 : poch(q; q^0; 2) == 1\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "check", "--spec", str(spec))
    assert code == 1
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [rec["status"] for rec in records] == ["verified", "error", "error"]
    assert [rec["witness"]["error"] for rec in records[1:]] == ["ValueError", "ValueError"]
    assert "step must be at least 1" in records[2]["witness"]["detail"]


def test_check_zero_denominator_binding_exit_two(tmp_path, capsys):
    spec = tmp_path / "zero.qcs"
    spec.write_text(
        "GOOD : qint(n) == 0 mod qint(n) with n = 3\n"
        "ZERO : qint(n) == a with n = 3, a = 1/0\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "check", "--spec", str(spec))
    assert code == 2
    assert out == ""
    assert "line 2, col 39: zero denominator" in err


def test_check_spec_modulus_powers(tmp_path, capsys):
    spec = tmp_path / "pow.qcs"
    spec.write_text(
        "POW : qint(n)^3 == 0 mod phi(n)^2 * qint(n) with n = 3\n", encoding="utf-8"
    )
    code, out, _ = run_cli(capsys, "check", "--spec", str(spec))
    assert code == 0
    record = json.loads(out.strip())
    assert record["status"] == "verified"


def test_check_empty_spec_gives_empty_report(tmp_path, capsys):
    spec = tmp_path / "empty.qcs"
    spec.write_text("# nothing here\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "check", "--spec", str(spec))
    assert code == 3
    assert out == ""


def test_check_syntax_error_exit_two(tmp_path, capsys):
    spec = tmp_path / "syntax.qcs"
    spec.write_text("this is not a declaration\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "check", "--spec", str(spec))
    assert code == 2
    assert err


def test_check_missing_file_exit_two(capsys):
    code, _, err = run_cli(capsys, "check", "--spec", "/nonexistent/path.qcs")
    assert code == 2


def test_list_subcommand(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert "THM_A" in out
    assert "COR_1_4" in out
    assert "side conditions" in out


def test_bad_range_exit_two(capsys):
    code, _, err = run_cli(capsys, "verify", "--id", "GS_16", "--n", "two")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--id", "GS_16", "--n", "5..3")
    assert code == 2


def test_trials_below_one_exit_two(tmp_path, capsys):
    # Both routes: the flag, and a config file.  No record is written.
    config = tmp_path / "settings.cfg"
    config.write_text("trials = 0\n", encoding="utf-8")
    for extra in (["--trials", "0"], ["--trials", "-2"], ["--config", str(config)]):
        code, out, err = run_cli(capsys, "verify", "--id", "THM_3_2", "--n", "4", *extra)
        assert (code, out) == (2, ""), extra
        assert "trials must be at least 1" in err, extra


def test_argparse_usage_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--m-choice", "bogus"])
    assert info.value.code == 2
    capsys.readouterr()


def test_precision_budget_is_no_longer_an_option(tmp_path, capsys):
    # The flag is gone, so argparse refuses it; a config file that still sets
    # precision_budget is ignored like any other unknown key.
    with pytest.raises(SystemExit) as info:
        main(["padic", "--id", "LR", "--p", "31", "--precision-budget", "10"])
    assert info.value.code == 2
    capsys.readouterr()
    config = tmp_path / "settings.cfg"
    config.write_text("precision_budget = 10\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "padic", "--id", "LR", "--p", "31", "--config", str(config))
    assert code == 0
    assert [json.loads(line)["status"] for line in out.strip().splitlines()] == ["verified"]


def test_timestamps_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "--id", "GS_16", "--n", "2", "--timestamps")
    assert code == 0
    record = json.loads(out.strip())
    assert isinstance(record["elapsed_ms"], int)
    assert record["elapsed_ms"] >= 0
