import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quadpair import latcount, paircorr
from quadpair.acceptance import run_suite
from quadpair.cli import fmt_float, load_config, main
from quadpair.constructor import tail_budget
from quadpair.errors import PrecisionError
from quadpair.expsum import quad_sum
from quadpair.modcount import dispersion_report, divisor_sum_ap
from quadpair.paircorr import demo_counterexample

ROOT = Path(__file__).resolve().parents[1]


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_paircorr_csv_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["paircorr", "--alpha", "sqrt:2", "--N", "500", "--X", "0.5,1,2"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "alpha,N,X,R,R0,method"
    assert len(lines) == 4
    assert lines[1].startswith("sqrt:2,500,0.5,")
    assert lines[1].endswith("sorted-window")


def test_paircorr_rejects_zero_denominator(capsys):
    code, _ = run(["paircorr", "--alpha", "rat:1/0", "--N", "10", "--X", "1"], capsys)
    assert code == 2


def test_usage_error_exit_code():
    assert main(["nonsense-subcommand"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["paircorr", "--alpha", "sqrt:2", "--N", "10", "--X", "1/0"],
        ["construct", "--interval", "1/0:1", "--qstart", "10", "--qmax", "12"],
        ["lattice", "--M", "10", "--beta", "sqrt:2", "--delta", "1/0"],
    ],
)
def test_arithmetic_errors_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: Fraction(1, 0)\n"


def _command_line_section(name: str) -> str:
    text = (ROOT / name).read_text(encoding="utf-8")
    return re.search(r"^## Command line\n.*?(?=^#)", text, re.M | re.S).group(0)


def _readme_examples() -> list[str]:
    """Each example line of README's "Command line" block, once with every
    bracketed optional given and once with none."""
    block = _command_line_section("README.md").split("```")[1]
    runs = []
    for line in block.strip().splitlines():
        for variant in (re.sub(r"\[([^]]*)\]", r"\1", line), re.sub(r" *\[[^]]*\]", "", line)):
            if variant not in runs:
                runs.append(variant)
    return runs


def test_paper_command_line_section_matches_readme():
    assert _command_line_section("PAPER.md") == _command_line_section("README.md")


@pytest.mark.parametrize("line", _readme_examples())
def test_readme_examples_run(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)
    prog, *argv = line.split()
    assert prog == "quadpair"
    code = main(argv)
    assert code == 0, capsys.readouterr().err


def test_expsum_json_matches_library(tmp_path):
    out = tmp_path / "e.json"
    assert main(["expsum", "--b", "1,0,0,0", "--q", "21", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    ref = quad_sum((1, 0, 0, 0), 21)
    assert payload["re"] == ref.re
    assert payload["im"] == ref.im
    assert payload["method"] == ref.method


def test_construct_certificate(tmp_path):
    out = tmp_path / "cert.json"
    code = main(
        [
            "construct",
            "--interval",
            "1/3:2/5",
            "--qstart",
            "1000",
            "--qmax",
            "1003",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["final"] == "334669/1004004"
    assert cert["violations"] == []
    assert cert["budget_ok"] is True
    assert len(cert["r_sequence"]) == 4


README_CERTIFICATE = """\
{
  "budget_ok": true,
  "class_measures": {
    "class1": "1941066020709825755555253482873/167692782014408351744023137987830",
    "class2": "47392628377501/7906657000500000",
    "class3": "0",
    "total": "2329474494067616034681495370868018663322031283/132588930884754228618254692800545355330391500000"
  },
  "eta": "1/200",
  "final": "334669/1004004",
  "interval": [
    "1/3",
    "2/5"
  ],
  "lemma2_constant": "1",
  "q_max": 1005,
  "q_start": 1000,
  "r_sequence": [
    "1/3",
    "1/3",
    "334669/1004004",
    "334669/1004004",
    "334669/1004004",
    "334669/1004004"
  ],
  "violations": []
}
"""


def test_readme_construct_certificate_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["construct", "--interval", "1/3:2/5", "--qstart", "1000", "--qmax", "1005"]
    assert main(argv + ["--out", "cert.json"]) == 0
    assert (tmp_path / "cert.json").read_bytes() == README_CERTIFICATE.encode()
    assert run(argv, capsys) == (0, README_CERTIFICATE)


def test_construct_certificate_prints_past_the_int_digit_limit(capsys):
    # the class measures of 1000..1120 have a 676-digit denominator; 640 is
    # the least limit Python accepts
    argv = ["construct", "--interval", "1/3:2/5", "--qstart", "1000", "--qmax", "1120",
            "--no-strict-budget"]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = run(argv, capsys)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0, capsys.readouterr().err
    measures = json.loads(out)["class_measures"]
    assert len(measures["total"].partition("/")[2]) > 640
    budget = tail_budget(1000, 1120, Fraction(1, 200))
    assert measures == {
        "class1": str(budget.class1_sum),
        "class2": str(budget.class2_sum),
        "class3": str(budget.class3_sum),
        "total": str(budget.total),
    }

def test_construct_budget_failure_is_an_error(capsys):
    code, _ = run(
        ["construct", "--interval", "1/3:2/5", "--qstart", "10", "--qmax", "200"], capsys
    )
    assert code == 2


@pytest.mark.parametrize("values", [[], ["--x", "7/20", "--alpha", "sqrt:2"]])
def test_verify_avoidance_takes_exactly_one_value(capsys, values):
    argv = ["verify-avoidance", "--qstart", "10", "--qmax", "12", *values]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: verify-avoidance needs exactly one of --alpha and --x\n"


def test_verify_avoidance_json(tmp_path):
    out = tmp_path / "v.json"
    assert (
        main(["verify-avoidance", "--x", "7/20", "--qstart", "10", "--qmax", "40", "--out", str(out)])
        == 0
    )
    payload = json.loads(out.read_text())
    assert {"q": 20, "a": 7, "class": 1} in payload["violations"]


def test_conjecture2_rows(tmp_path):
    out = tmp_path / "c.csv"
    assert main(
        ["conjecture2", "--N", "200", "--q", "101", "--samples", "5", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,q,c,count,expected,ratio"
    assert len(lines) == 6


def test_divisor_ap_json(tmp_path):
    out = tmp_path / "d.json"
    assert main(["divisor-ap", "--M", "20", "--q", "4", "--s", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["sum"] == 10 == divisor_sum_ap(20, 4, 1)


def test_divisor_ap_range_and_cap(capsys):
    assert main(["divisor-ap", "--M", "10000000000", "--q", "7", "--s", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["sum"] == divisor_sum_ap(10 ** 10, 7, 3)
    assert main(["divisor-ap", "--M", "1000000000001", "--q", "7", "--s", "3"]) == 2
    assert "divisor_sum_ap is capped at m <= 10^12" in capsys.readouterr().err


def test_conjecture2_needs_a_modulus_of_two_or_more(capsys):
    assert main(["conjecture2", "--N", "10", "--q", "1"]) == 2
    assert capsys.readouterr().err == "error: --q must be >= 2\n"


def test_badset_and_dispersion(tmp_path):
    out = tmp_path / "b.csv"
    assert main(["badset", "--qlo", "4", "--qhi", "8", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "q,eta,card,members"
    assert len(lines) == 6

    out2 = tmp_path / "disp.csv"
    assert main(["dispersion", "--q", "5,64", "--out", str(out2)]) == 0
    lines = out2.read_text().splitlines()
    assert lines[0] == "q,q1,eta,sum_delta_star_sq,bound,ratio,card_bad_set"
    assert lines[1].split(",")[0] == "5"
    assert lines[1].split(",")[3] == fmt_float(Fraction(930, 625))


def test_dispersion_range_rows_match_the_library(tmp_path):
    out = tmp_path / "disp.csv"
    assert main(["dispersion", "--qlo", "50", "--qhi", "60", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 12
    for q, line in zip(range(50, 61), lines[1:]):
        rep = dispersion_report(q, eta=Fraction(1, 200))
        assert line == (
            f"{q},{rep.q1},1/200,{fmt_float(rep.sum_delta_sq)},{fmt_float(rep.bound_value)},"
            f"{fmt_float(rep.ratio)},{rep.card_bad_set}"
        )


def test_badset_profiles_past_the_count_A_cap(capsys):
    code, out = run(["badset", "--qlo", "31627", "--qhi", "31627"], capsys)
    assert code == 0, capsys.readouterr().err
    assert out.splitlines()[1].startswith("31627,")


def test_lattice_rows(tmp_path):
    out = tmp_path / "lat.csv"
    assert main(
        ["lattice", "--M", "50,100", "--beta", "sqrt:2", "--delta", "3/10", "--out", str(out)]
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "M,beta,delta,R,lambda1,count,main,error_term"
    for line in lines[1:]:
        fields = line.split(",")
        assert int(fields[5]) == 1 + 2 * int(fields[3])


def test_vcounts_partition(tmp_path):
    out = tmp_path / "v.json"
    assert main(
        [
            "vcounts",
            "--A", "6", "--B", "9", "--delta", "1/2", "--alpha", "rat:2/7",
            "--P0", "2", "--P1", "11", "--out", str(out),
        ]
    ) == 0
    payload = json.loads(out.read_text())
    assert payload["partition_ok"] is True
    assert payload["V"] == payload["V1"] + sum(payload["V2"].values())


def test_r0_identities(tmp_path):
    out = tmp_path / "r0.csv"
    assert main(["r0", "--alpha", "rat:3/7", "--N", "40", "--X", "1.5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["coverage_ok"] == "True"
    assert row["square_ok"] == "True"
    assert row["additive_ok"] == "True"


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    # paircorr does not read eta; a shared file may still carry it
    cfg.write_text("# sweep defaults\nX = 1,2\nN = 100\neta = 1/100\n")
    out1 = tmp_path / "o1.csv"
    assert main(
        ["paircorr", "--alpha", "sqrt:3", "--N", "100", "--X", "1,2", "--out", str(out1)]
    ) == 0
    # N and X come from the file here
    out2 = tmp_path / "o2.csv"
    assert main(["paircorr", "--alpha", "sqrt:3", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # an explicit flag beats the file
    out3 = tmp_path / "o3.csv"
    out4 = tmp_path / "o4.csv"
    assert main(["paircorr", "--alpha", "sqrt:3", "--N", "100", "--X", "3", "--out", str(out3)]) == 0
    assert main(
        ["paircorr", "--alpha", "sqrt:3", "--config", str(cfg), "--X", "3", "--out", str(out4)]
    ) == 0
    assert out3.read_bytes() == out4.read_bytes()
    assert load_config(cfg) == {"X": "1,2", "N": "100", "eta": "1/100"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a key value line\n")
    with pytest.raises(ValueError):
        load_config(bad)


def test_config_booleans_are_true_or_false(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    argv = ["construct", "--interval", "1/3:2/5", "--qstart", "10", "--qmax", "200",
            "--config", str(cfg)]
    cfg.write_text("no_strict_budget = false\n")
    assert main(argv) == 2
    assert "is not below half the interval length" in capsys.readouterr().err
    cfg.write_text("no_strict_budget = true\n")
    assert main(argv) == 2
    assert "refinement emptied at modulus 47" in capsys.readouterr().err
    cfg.write_text("no_strict_budget = yes\n")
    assert main(argv) == 2
    assert "no_strict_budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["divisor-ap", "--M", "20", "--q", "4", "--s", "1", "--format", "csv"],
        ["expsum", "--b", "1,0,0,0", "--q", "21", "--eta", "1/3"],
        ["suite", "--level", "quick", "--only", "A5", "--threads", "2"],
        ["construct", "--interval", "1/3:2/5", "--qstart", "1000", "--qmax", "1005",
         "--lemma2-constant", "2"],
    ],
)
def test_flags_the_subcommand_does_not_read_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_suite_quick_subset(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, text = run(["suite", "--level", "quick", "--only", "A5,A8", "--out", str(out)], capsys)
    assert code == 0
    assert "A5" in text and "A8" in text and "suite: PASS" in text
    report = json.loads(out.read_text())
    assert report["suite_passed"] is True
    assert report["config"] == {"level": "quick"}
    assert [c["name"] for c in report["criteria"]] == ["A5", "A8"]


@pytest.mark.parametrize("only, unknown", [("A5,A0", "A0"), ("A0", "A0")])
def test_suite_only_rejects_unknown_criteria(capsys, only, unknown):
    assert main(["suite", "--level", "quick", "--only", only]) == 2
    valid = ", ".join(f"A{i}" for i in range(1, 10))
    assert capsys.readouterr() == (
        "", f"error: unknown criterion name(s) {unknown}; valid names are {valid}\n"
    )
    with pytest.raises(ValueError, match=unknown):
        run_suite("quick", only.split(","))


def test_demo_counterexample_values():
    big = demo_counterexample(1009, Fraction(3, 10))
    assert big.r >= Fraction(504, 1009)
    small = demo_counterexample(13, Fraction(3, 10))
    assert small.r >= Fraction(6, 13)
    with pytest.raises(ValueError):
        demo_counterexample(12, Fraction(3, 10))
    with pytest.raises(ValueError):
        demo_counterexample(13, Fraction(1, 5))


def test_demo_counterexample_deterministic_per_seed():
    a = demo_counterexample(101, Fraction(3, 10), seed=7)
    b = demo_counterexample(101, Fraction(3, 10), seed=7)
    assert a.r == b.r


def test_explicit_flag_equal_to_default_beats_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = json\neta = 1/100\n")
    argv = ["badset", "--qlo", "4", "--qhi", "5", "--config", str(cfg)]
    code, text = run(argv + ["--format", "csv", "--eta", "1/200"], capsys)
    assert code == 0
    assert text.splitlines() == ["q,eta,card,members", "4,1/200,0,", "5,1/200,0,"]
    # without the flags the file's values apply
    code, text = run(argv, capsys)
    assert code == 0
    assert [row["eta"] for row in json.loads(text)] == ["1/100", "1/100"]


def _fail_first_call(monkeypatch, name, module=paircorr):
    real = getattr(module, name)
    calls = []

    def flaky(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise PrecisionError("first attempt cannot certify")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, flaky)
    return calls


@pytest.mark.parametrize(
    "argv, name",
    [
        (["paircorr", "--alpha", "sqrt:2", "--N", "300", "--X", "0.5,1,2"], "pair_correlation"),
        (["r0", "--alpha", "sqrt:3", "--N", "60", "--X", "1.5,3"], "verify_integral_identities"),
    ],
)
def test_precision_error_past_sequence_build_retries(monkeypatch, capsys, argv, name):
    code, expected = run(argv, capsys)
    assert code == 0
    calls = _fail_first_call(monkeypatch, name)
    code, text = run(argv, capsys)
    assert code == 0
    assert text == expected
    # the retry rebuilt the sequence at more bits
    assert calls[1][0].den > calls[0][0].den


@pytest.mark.parametrize(
    "argv, name, bits_of",
    [
        (
            ["lattice", "--M", "50,100", "--beta", "sqrt:2", "--delta", "3/10"],
            "near_multiple_count",
            lambda args: args[1].frac_bits,
        ),
        (
            ["vcounts", "--A", "6", "--B", "9", "--delta", "1/2", "--alpha", "sqrt:2"],
            "v_count",
            lambda args: args[0].alpha.frac_bits,
        ),
    ],
)
def test_precision_error_in_lattice_and_vcounts_retries(monkeypatch, capsys, argv, name, bits_of):
    code, expected = run(argv, capsys)
    assert code == 0
    calls = _fail_first_call(monkeypatch, name, latcount)
    code, text = run(argv, capsys)
    assert code == 0
    assert text == expected
    assert bits_of(calls[1]) > bits_of(calls[0])


def test_verify_avoidance_escalates_precision(capsys):
    # within 2^-192 of 49/144, the edge of the class-2 interval at 4/12
    alpha = "dec:0.3402777777777777777777777777777777777777777777777777777777777777"
    argv = ["verify-avoidance", "--alpha", alpha, "--qstart", "12", "--qmax", "12"]
    code, text = run(argv, capsys)
    assert code == 0
    assert run(argv + ["--bits", "384"], capsys) == (0, text)
