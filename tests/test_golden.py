"""Golden reports: the CLI must reproduce the checked-in bytes exactly.

The files under tests/data/ were written by the same commands before the
verdict, sampling and evaluation paths were merged; any change to a verdict,
a witness, a label or the record layout shows up here as a byte difference.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from qcongruence.cli import main

DATA = Path(__file__).parent / "data"

_Q_IDS = "THM_A,GWY,THM_B,THM_C,GS_16,LEM_WEI_K,LEM_WEI_M,LEM_WEI_N,LEM_PP,PROP_2_1,THM_2_2"

_FAMILY_IDS = "THM_D,THM_E,PROP_5_3,THM_5_4,THM_5_5,LEM_OO,NW_A,NW_B"
_FAMILY_CLASSICAL_IDS = "COR_1_5,COR_1_6,COR_5_E,COR_5_G,COR_5_H,PROP_1_8,LR,VH_A2,VH_D2,LIU"

CASES = [
    ("golden_verify.jsonl", ["verify", "--id", _Q_IDS, "--n", "1..7", "--trials", "1"], 0),
    (
        "golden_verify.csv",
        ["verify", "--id", _Q_IDS, "--n", "1..7", "--trials", "1", "--format", "csv"],
        0,
    ),
    ("golden_lem_rel.jsonl", ["verify", "--id", "LEM_REL", "--t", "0..4"], 0),
    (
        "golden_padic.jsonl",
        ["padic", "--id", "COR_1_4,SUN_H2,PROP_1_7", "--p", "3,5,7,11,13"],
        0,
    ),
    # Desk cases of the statements whose closed forms or desks come from a
    # shared template or constant (THM_E from THM_D's, THM_5_5 from
    # PROP_5_3's, COR_5_H from COR_5_E's, COR_1_5/COR_1_6 from PROP_1_8's),
    # written before those were merged.
    ("golden_desk_verify.jsonl", ["verify", "--id", _FAMILY_IDS, "--trials", "1"], 0),
    ("golden_desk_padic.jsonl", ["padic", "--id", _FAMILY_CLASSICAL_IDS], 0),
    # Desk cases of the parametric stragglers, whose trial divisions by
    # rational binomials and GCDHEU candidates take the exact-quotient
    # kernel, written before it replaced fraction-free long division there.
    (
        "golden_stragglers.jsonl",
        ["verify", "--id", "NW_B,THM_D,THM_3_2", "--seed", "26", "--trials", "2"],
        0,
    ),
    # The two-slot classical statements at s = 2 and primes 17..41, the pool's
    # (d, r) shapes included: two runs, whose reports follow each other in the
    # file.  Written before the verdicts at prime p read sides built modulo
    # a power of p.
    (
        "golden_padic_s2.jsonl",
        (
            ["padic", "--id", "COR_5_E,COR_5_G,COR_5_H", "--p", "17,19,23,29,31", "--s", "2",
             "--d", "3,4,5", "--r", "1,-1,2,-2"],
            ["padic", "--id", "COR_1_4,COR_1_5,COR_1_6", "--p", "17,19,23,29,31,37,41", "--s", "2"],
        ),
        0,
    ),
    # The two-slot classical statements at s = 3, p = 5..17, the pool's (d, r)
    # shapes included: two runs, as golden_padic_s2.jsonl.  Written before
    # the verdicts at prime p read sides built to fixed relative precision.
    (
        "golden_padic_s3.jsonl",
        (
            ["padic", "--id", "COR_1_4,COR_1_5,COR_1_6", "--p", "5,7,11,13,17", "--s", "3"],
            ["padic", "--id", "COR_5_E,COR_5_G,COR_5_H", "--p", "5,7,11,13", "--s", "3",
             "--d", "3,4,5", "--r", "1,-1,2,-2"],
        ),
        0,
    ),
    # The closed q-side sums over n = 1..21: THM_A and GWY extend the cached
    # quartic, THM_B, THM_C, GS_16 and LEM_OO the cubic, from one n to the
    # next.  Written before the partial sums divided their terms' common
    # denominator out of the chained one.
    (
        "golden_sweep.jsonl",
        ["verify", "--id", "THM_A,GWY,THM_B,THM_C,GS_16,LEM_OO,LEM_WEI_N", "--n", "1..21"],
        0,
    ),
    # The parametric statements at sampled rationals, three draws per seed:
    # both sides' denominators carry irreducible binomial keys q^e - c, and
    # some draws leave a Capelli-reducible one (q^3 + 8, q^6 + 8, q^4 + 4).
    # Written before lhs - rhs read its gcd off the factored denominators.
    (
        "golden_parametric.jsonl",
        tuple(
            ["verify", "--id", "PROP_3_1,THM_3_2,THM_3_3,NW_23,PROP_5_3,THM_5_4,THM_5_5",
             "--seed", seed, "--trials", "3"]
            for seed in ("0", "3", "8")
        ),
        0,
    ),
    # Every classical statement at odd composite p: the Gamma_p statements
    # are skipped there, the rational ones decided from both sides' digits at
    # each prime factor of p, or from the exact sides where those cannot.
    (
        "golden_padic_composite.jsonl",
        ["padic", "--id", "all", "--p", "9,15,21,25,27,33,35,49"],
        1,
    ),
    # The two-slot classical statements at s = 2 and the benchmark's control
    # moduli, the pool's (d, r) shapes included: two runs, as
    # golden_padic_s2.jsonl.  Written while composite p was decided from
    # exact sides reduced to Fractions only.
    (
        "golden_padic_composite_s2.jsonl",
        (
            ["padic", "--id", "COR_5_E,COR_5_G,COR_5_H", "--p", "9,15,21,25,27,33,35", "--s", "2",
             "--d", "3,4,5", "--r", "1,-1,2,-2,3,-3,4"],
            ["padic", "--id", "COR_1_4,COR_1_5,COR_1_6", "--p", "9,15,21,25,27,33,35", "--s", "2"],
        ),
        1,
    ),
    # COR_5_H at (d, r) = (3, -1), s = 3, whose sides agree to more than
    # k + 6 digits (v_p(lhs - rhs) is 14 or 15 against k = 8).  Written while
    # such a slot was rebuilt from exact pairs, 14 s at p = 31.
    (
        "golden_padic_cliff.jsonl",
        ["padic", "--id", "COR_5_H", "--p", "7,13,19,31", "--s", "3", "--d", "3", "--r=-1"],
        0,
    ),
    # Slots that only an exact build decides: COR_5_E and COR_5_G at d = 1
    # and 2, whose sides are equal at (d, r) = (1, 1) for every p and at a
    # few other points, prime and composite p alike (124 records); then
    # SUN_H2, SUN_H2HALF and SUN_H3 at p = 67..101, where a composite p
    # leaves a side not p-integral and NotPIntegral names its reduced value
    # (27 records).  Two runs, as golden_padic_s2.jsonl.  Written while those
    # slots were decided from exact pairs summed by binary splitting.
    (
        "golden_padic_exact.jsonl",
        (
            ["padic", "--id", "COR_5_E,COR_5_G", "--p", "3..31", "--s", "1,2", "--d", "1,2",
             "--r", "1,2,-1"],
            ["padic", "--id", "SUN_H2,SUN_H2HALF,SUN_H3", "--p", "67..101"],
        ),
        1,
    ),
    # The skip reasons of the cubic and degree-d families, each strengthened
    # statement beside its general one, over grids that cross every side
    # condition: three runs, as golden_padic_s2.jsonl.  Written before each
    # family shared one build; rewritten when each id was crossed only with
    # its own axes, so THM_B, THM_C, LEM_OO, THM_3_2, THM_3_3, THM_D and
    # THM_5_4 run once per point without t, and SUN_H2 and SUN_H2HALF once per
    # p without s (2,872 records became 1,348).
    (
        "golden_skips.jsonl",
        (
            ["verify", "--id", "THM_B,THM_C,LEM_OO,PROP_3_1,THM_3_2,THM_3_3", "--n=-1..10",
             "--t=-1..3", "--trials", "1"],
            ["verify", "--id", "THM_D,PROP_5_3,THM_5_4", "--n=0..4", "--d=0..4", "--r=-3..3",
             "--t=0..3", "--trials", "1"],
            ["padic", "--id", "COR_1_5,COR_1_6,SUN_H2,SUN_H2HALF",
             "--p=1,2,3,5,7,11,13,17,19,23", "--s=0..2"],
        ),
        0,
    ),
    # Every classical statement at every odd prime up to 61, s = 1 and 2 where
    # it takes s: each record is verified or skipped, and the Gamma_p
    # statements carry their witness residues.  Written before gamma_p
    # returned a plain int residue; rewritten when the single-power statements
    # stopped being crossed with s (576 records became 423).
    (
        "golden_padic_primes.jsonl",
        ["padic", "--id", "all", "--p", "3,5,7,11,13,17,19,23,29,31,37,41,43,47,53,59,61",
         "--s", "1,2"],
        0,
    ),
]


# Reports that tier-1 leaves out for their run time; CI reproduces them, with
# every other golden report, through the installed qcong script (run_installed).
CI_CASES = [
    # Every statement's desk verdicts through the process pool.
    ("golden_verify_all.jsonl", ["verify", "--id", "all", "--seed", "3"], 0),
    # The closed q-side sums past the benchmark pools, where lhs - rhs over
    # the two factored denominators is the largest sum taken.
    (
        "golden_large.jsonl",
        (
            ["verify", "--id", "THM_C", "--n", "32"],
            ["verify", "--id", "THM_B", "--n", "31"],
            ["verify", "--id", "THM_A", "--n", "33"],
        ),
        0,
    ),
]


def _commands(argv) -> tuple:
    """argv is one command, or a tuple of commands whose reports are concatenated."""
    return argv if isinstance(argv, tuple) else (argv,)


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_report(tmp_path, capsys, name, argv, code):
    got = b""
    for i, run in enumerate(_commands(argv)):
        out = tmp_path / f"{i}-{name}"
        assert main(run + ["--jobs", "1", "--out", str(out)]) == code
        got += out.read_bytes()
    capsys.readouterr()
    assert got == (DATA / name).read_bytes()


# identity takes one id and no --jobs, so the four reports are written one
# after another and compared as one file.
IDENTITY_RUNS = tuple(
    ["identity", "--id", identity_id, "--random", "25", "--seed", "0"]
    for identity_id in ("QCHU", "WHIPPLE_SPEC", "JACKSON_SPEC", "WATSON_SPEC")
)


def test_golden_identity_report(tmp_path, capsys):
    got = b""
    for i, argv in enumerate(IDENTITY_RUNS):
        out = tmp_path / f"{i}.jsonl"
        assert main(argv + ["--out", str(out)]) == 0
        got += out.read_bytes()
    capsys.readouterr()
    assert got == (DATA / "golden_identity.jsonl").read_bytes()


def test_golden_list(capsys):
    # Every statement's id, kind, description and documentation as listed.
    assert main(["list"]) == 0
    assert capsys.readouterr().out == (DATA / "golden_list.txt").read_text()


CHECK_CASES = [
    ("golden.qcs", "golden_check.jsonl", 1),
    # Moduli typed as polynomials (Phi_d, [n], their products and powers, a
    # scaled factor and one of no binomial form): no factor carries a
    # binomial form, so every division takes the general kernel.
    ("golden_typed.qcs", "golden_typed_check.jsonl", 1),
    # Verified cases with coprime denominators, failures, and denominators
    # sharing a Phi_d^j, a binomial or a typed factor with the modulus,
    # written before the unit check left the success path.
    ("golden_unit.qcs", "golden_unit_check.jsonl", 1),
]


@pytest.mark.parametrize("spec,name,code", CHECK_CASES, ids=[c[1] for c in CHECK_CASES])
def test_golden_check_report(tmp_path, capsys, spec, name, code):
    out = tmp_path / name
    assert main(["check", "--spec", str(DATA / spec), "--out", str(out)]) == code
    capsys.readouterr()
    assert out.read_bytes() == (DATA / name).read_bytes()


# Named spellings of golden_typed.qcs's moduli: each factor typed there as a
# polynomial is written as the qint(..) or phi(..) it equals, so it carries
# a binomial form.  SCALED's 2+2q has no such spelling.
NAMED_MODULI = {
    "PHI2": "phi(2)",
    "PHI3_SQ": "phi(3)^2",
    "PHI4_PHI2": "phi(4)*qint(2)",
    "PHI5": "phi(5)",
    "QINT4": "qint(4)",
    "PHI6_SQ": "phi(6)^2",
    "MIXED": "(q-2)*phi(2)",
    "FAIL": "qint(3)^2",
    "UNIT": "phi(2)*qint(3)",
}


def test_named_moduli_report_as_typed(tmp_path, capsys):
    # The binomial passes and the general kernel reach the same verdicts,
    # witnesses and errors: each record is the golden one but for its id.
    declarations, want = [], []
    for line in (DATA / "golden_typed.qcs").read_text().splitlines():
        spec_id, _, rest = line.partition(" : ")
        if spec_id in NAMED_MODULI:
            sides, _, tail = rest.partition(" mod ")
            bindings = tail.partition(" with ")[2]
            declarations.append(f"{spec_id}_NAMED : {sides} mod {NAMED_MODULI[spec_id]} with {bindings}\n")
    for line in (DATA / "golden_typed_check.jsonl").read_text().splitlines(keepends=True):
        spec_id = json.loads(line)["id"]
        if spec_id in NAMED_MODULI:
            want.append(line.replace(f'"id": "{spec_id}"', f'"id": "{spec_id}_NAMED"', 1))
    spec, out = tmp_path / "named.qcs", tmp_path / "named.jsonl"
    spec.write_text("".join(declarations))
    assert main(["check", "--spec", str(spec), "--out", str(out)]) == 1
    capsys.readouterr()
    assert len(want) == len(NAMED_MODULI)
    assert out.read_text() == "".join(want)


def run_installed() -> int:
    """Write every golden report above through the qcong script on PATH, into
    the current directory, at --jobs 2 where the subcommand takes it, and
    compare `qcong list` with golden_list.txt; print each exit code or report
    that differs and return 1 if any does."""
    runs = [
        (name, code, [run + ["--jobs", "2"] for run in _commands(argv)])
        for name, argv, code in CASES + CI_CASES
    ]
    runs.append(("golden_identity.jsonl", 0, list(IDENTITY_RUNS)))
    runs += [
        (name, code, [["check", "--spec", str(DATA / spec)]]) for spec, name, code in CHECK_CASES
    ]
    failed = 0
    listed = subprocess.run(["qcong", "list"], capture_output=True)
    if listed.returncode != 0 or listed.stdout != (DATA / "golden_list.txt").read_bytes():
        print("FAIL golden_list.txt: qcong list differs from the golden file")
        failed = 1
    else:
        print("ok golden_list.txt")
    for name, code, commands in runs:
        got = b""
        for i, run in enumerate(commands):
            out = Path(f"{i}-{name}")
            out.unlink(missing_ok=True)
            argv = ["qcong", *run, "--out", str(out)]
            returned = subprocess.run(argv).returncode
            if returned != code:
                print(f"FAIL {name}: {' '.join(argv)} exited {returned}, not {code}")
                failed = 1
            got += out.read_bytes() if out.exists() else b""
        if got != (DATA / name).read_bytes():
            print(f"FAIL {name}: the report differs from the golden file")
            failed = 1
        else:
            print(f"ok {name}")
    return failed


if __name__ == "__main__":
    sys.exit(run_installed())
