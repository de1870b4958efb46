import hashlib
import itertools
import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from quadpair import latcount, paircorr
from quadpair.acceptance import run_suite
from quadpair.cli import SUBCOMMANDS, fmt_float, load_config, main
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
    "exc, message",
    [
        (MemoryError(), "MemoryError"),
        (MemoryError("Unable to allocate 7.28 TiB"), "Unable to allocate 7.28 TiB"),
    ],
)
def test_out_of_memory_is_a_usage_error(monkeypatch, capsys, exc, message):
    # raised, not allocated: with overcommit a huge request may succeed and
    # the process be killed later
    def no_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(paircorr, "quadratic_sequence", no_memory)
    assert main(["paircorr", "--alpha", "sqrt:2", "--N", "1000000000000", "--X", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dispersion"], "dispersion needs --q or both --qlo and --qhi"),
        (["expsum", "--b", "1,2,3", "--q", "5"], "--b needs four comma-separated integers"),
        (["paircorr", "--alpha", "sqrt:2"], "the following arguments are required: --N"),
    ],
)
def test_handler_usage_errors(tmp_path, capsys, argv, message):
    # the config file gives X but not N, so --N is missing from both
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("X = 1\n")
    assert main(argv + ["--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_paircorr_escalates_past_the_certification_guard(monkeypatch, capsys):
    # 64 bits cannot certify the sequence at N = 10^5 (see
    # quadratic_sequence); the whole alpha is redone at 128
    built = []
    original = paircorr.quadratic_sequence

    def spy(alpha, n):
        built.append(alpha.frac_bits)
        return original(alpha, n)

    argv = ["paircorr", "--alpha", "sqrt:2", "--N", "100000", "--X", "1/2,2"]
    monkeypatch.setattr(paircorr, "quadratic_sequence", spy)
    escalated = run(argv + ["--bits", "64"], capsys)
    assert built == [64, 128]
    assert escalated == run(argv, capsys)
    assert escalated[0] == 0


@pytest.mark.parametrize(
    "beta, delta",
    [("sqrt:2", "1/100000000000"), ("sqrt:7", "1/100000000000"), ("sqrt:2", "1/10000000")],
)
def test_lattice_refuses_ill_conditioned_bases(capsys, beta, delta):
    # the float reduction cannot certify lambda1 for these skew pair lattices
    assert main(["lattice", "--M", "100000", "--beta", beta, "--delta", delta]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: ill-conditioned basis (condition squared above 1e+24): "
        "its first minimum is not certified\n"
    )


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


def test_readme_flag_and_schema_lists_match_the_declarations():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert all({"config", "out"} <= cmd.flags.keys() for cmd in SUBCOMMANDS.values())
    shared = re.search(r"subcommands that read it:\n\n(.*?)\n\n", readme, re.S).group(1)
    listed = {}
    for bullet in re.split(r"\n(?=- )", shared):
        # "- `--format csv|json` (default csv): `paircorr`, ...; the other ..."
        m = re.fullmatch(r"- `--(\w+)(?: ([\w|]+))?`(?: \(default (\w+)\))?: ([^;]*).*", bullet,
                         re.S)
        flag, choices, default, readers = m.groups()
        listed[flag] = re.findall(r"`([\w-]+)`", readers)
        for name in listed[flag]:
            declared = SUBCOMMANDS[name].flags[flag]
            if choices:
                assert (choices, default) == ("|".join(declared.choices), declared.default)
    assert listed == {
        flag: [name for name, cmd in SUBCOMMANDS.items() if flag in cmd.flags]
        for flag in ("format", "bits", "eta", "seed")
    }
    schemas = re.search(r"^### CSV schemas\n\n(.*?)\n\n", readme, re.M | re.S).group(1)
    assert dict(re.findall(r"^- `([\w-]+)`: `([^`]*)`$", schemas, re.M)) == {
        name: ",".join(cmd.columns) for name, cmd in SUBCOMMANDS.items() if cmd.columns
    }


# sha256 of each README example's stdout and of each file it writes
README_DIGESTS = {
    "quadpair paircorr --alpha sqrt:2 --N 100000 --X 0.5,1,2": (
        "794b62a2201375283c03c4eb0f9af4f4413b51b0552f1d91b9c1c1b2d283b9d4",
        {},
    ),
    "quadpair r0 --alpha rat:3/7 --N 40 --X 1.5": (
        "ef1d15a902498a4cdd690057b4f07a75e9a95e6f07796ce7b7b6b0e5806181a9",
        {},
    ),
    "quadpair badset --qlo 2 --qhi 50": (
        "6bafc381e22bec92a97523b75efa1773a531a49672ca0f1bfd094d2d9ea3448e",
        {},
    ),
    "quadpair dispersion --q 101,1009 --N 20": (
        "6417b380a5e621fe38dbc7a7987dc30598263ca7ffd685e41b99a034521b2931",
        {},
    ),
    "quadpair dispersion --q 101,1009": (
        "4346b9bce4660792fa6fff758fcd1b4014eb814c7d76b1414fd8be525eaaf8c4",
        {},
    ),
    "quadpair construct --interval 1/3:2/5 --qstart 1000 --qmax 1005 --out cert.json": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        {"cert.json": "e022d7ae17d0c5cde8a60ed6660e500e6ba61a0aff318f4a0486fcd6ef9f1d42"},
    ),
    "quadpair verify-avoidance --x 7/20 --qstart 10 --qmax 40": (
        "09694522d0abe549d3e19461e2496f67f5d7e215385aed02a64026e24822827b",
        {},
    ),
    "quadpair expsum --b 1,0,0,0 --q 21": (
        "aa74dfa7aa931a5e900555160734dfcf57c154bf104c43d1328731354d15a091",
        {},
    ),
    "quadpair lattice --M 100,200 --beta sqrt:2 --delta 3/10": (
        "ba716534e1b820935d4e5aadbd5d0323a3ed7cca72a8f0b388904064cdc08e0e",
        {},
    ),
    "quadpair vcounts --A 6 --B 9 --delta 1/2 --alpha rat:2/7 --P0 2 --P1 11": (
        "b608712f37a1c32360169339b4aafaba4748941313974501a38ae1a2b18e5b63",
        {},
    ),
    "quadpair conjecture2 --N 3000 --q 1009 --samples 50": (
        "905b2c82fe67f80c88e4b0e8625721de2e5be0541e557317ca3eaad8201fe5e0",
        {},
    ),
    "quadpair divisor-ap --M 20 --q 4 --s 1": (
        "690ce5869519bad588bd18199e76b222bd57da088b3ba8b29e7e85e1d4d49ee2",
        {},
    ),
}


@pytest.mark.parametrize("line", _readme_examples())
def test_readme_examples_run(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)
    prog, *argv = line.split()
    assert prog == "quadpair"
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    written = {f.name: _sha256(f.read_bytes()) for f in tmp_path.iterdir()}
    assert (_sha256(out.encode()), written) == README_DIGESTS[line]


# stdout sha256 of a/q + 1/(4q^3) = (4aq^2 + 1)/(4q^3) over dens in
# [2^31, 2^51] (q = 10007) and (2^51, 2^62] (q = 1000003), which the int64
# float-quotient build serves; recorded from the Python-int list build
INT64_DIGESTS = {
    "paircorr --alpha rat:494291281865/4008405881372 --N 100000 --X 1/4,16":
        "48dc3aeb3ea41cdbca1c02354cbf5db7b57c8191b788629a5a8ee070b339a15e",
    "paircorr --alpha rat:1256643539827309725/4000036000108000108 --N 100000 --X 1/4,16":
        "26371aaf72868212d36d05721738b08bcc5820c1debc38d52189dd2637c3226a",
}


@pytest.mark.parametrize("line", INT64_DIGESTS)
def test_int64_build_prints_the_list_build_bytes(capsys, line):
    code, out = run(line.split(), capsys)
    assert code == 0
    assert _sha256(out.encode()) == INT64_DIGESTS[line]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# stdout sha256 of rational windows the residue histogram counts, recorded
# from the sorted-window search alone: ties, X = 0 and an empty R0
HISTOGRAM_DIGESTS = {
    "paircorr --alpha rat:38717/92551 --N 100000 --X 0.25,1,16":
        "fd82aaa14964635646a7920293e581b734e897c58332038f18db90cb6b80f30c",
    "paircorr --alpha rat:83/809 --N 20000 --X 0,1/2,16 --format json":
        "2bc888065bf92db57e9f11ee87d8c9101e8e35d3c9ee304781bbecd39d45b948",
}


@pytest.mark.parametrize("line", HISTOGRAM_DIGESTS)
def test_histogram_windows_print_the_sorted_window_bytes(capsys, line):
    code, out = run(line.split(), capsys)
    assert code == 0
    assert _sha256(out.encode()) == HISTOGRAM_DIGESTS[line]


# stdout sha256 of R and R0 read off one window count: a certified
# irrational with X = 0, a rational the residue histogram counts, and r0,
# whose weighted call has no count before it; recorded from the separate
# count and weighted passes they replaced
WINDOW_STATS_DIGESTS = {
    "paircorr --alpha sqrt:3 --N 500 --X 0,1,16":
        "a4c198bd8d533b7daec82db639984d4228ffdd8a6570ae9f54ae1ea83c287212",
    "paircorr --alpha rat:38717/92551 --N 100000 --X 1,16":
        "15c61a72820fcbd77e516c34a317ffd1645ba487569fd6e58050575a40066659",
    "r0 --alpha sqrt:2 --N 2000 --X 1,16":
        "ece008150c2a147e548fa1f09800818f7ada38e2af9d4d50d2781b1c1a76d1cc",
}


@pytest.mark.parametrize("line", WINDOW_STATS_DIGESTS)
def test_window_stats_bytes_are_pinned(capsys, line):
    code, out = run(line.split(), capsys)
    assert code == 0
    assert _sha256(out.encode()) == WINDOW_STATS_DIGESTS[line]


# stdout sha256 of V, V*, V1 and V2 at 192 bits, from boxes of a few
# thousand cells to 9 * 10^5; recorded from the per-cell window loop
VCOUNTS_DIGESTS = {
    "vcounts --A 30 --B 81 --delta 1/25 --alpha sqrt:164 --P0 3 --P1 14":
        "73ffc57b37ce78a4e0522355ef39556bee163d5fc7d405035842c30d34a2fef3",
    "vcounts --A 27 --B 88 --delta 1/50 --alpha sqrt:22 --P0 2 --P1 19":
        "40d4821079ad5a33b3d98be302d10898e27f5762ca15472f8c0e6ef4c39fde0f",
    "vcounts --A 300 --B 3000 --delta 1/100 --alpha sqrt:2 --P0 2 --P1 100":
        "e1ea4d4e7fd2d5c54e78eb45e3e66c2be676a23f7b8db0cecca3febc92187ea5",
}


@pytest.mark.parametrize("line", VCOUNTS_DIGESTS)
def test_vcounts_bytes_are_pinned(capsys, line):
    code, out = run(line.split(), capsys)
    assert code == 0
    assert _sha256(out.encode()) == VCOUNTS_DIGESTS[line]


def test_million_point_paircorr_bytes_are_pinned(capsys):
    # the sorted limb rows at N = 10^6 and 192 bits; recorded from the
    # Python-int list build they replaced
    code, out = run(["paircorr", "--alpha", "sqrt:2", "--N", "1000000", "--X", "1"], capsys)
    assert code == 0
    assert _sha256(out.encode()) == "de45f5086bce315cc06d4bb41890d141ca08dca7d3aaf48c8d48cf06e16acb58"


def test_list_build_paircorr_bytes_are_pinned(capsys):
    # den = 2^65 + 1, past 2^62 and not a power of two, so quadratic_sequence
    # builds its numerators as Python ints and the constructor converts them
    # to limb rows; recorded before that conversion moved into the constructor
    code, out = run(["paircorr", "--alpha", "rat:12345678901234567891/36893488147419103233",
                     "--N", "100000", "--X", "1/4,1,16"], capsys)
    assert code == 0
    assert _sha256(out.encode()) == "a8a7f1ec92ab36c63e9d86d1079a89e227fe42aa964876b0cc9a7fa7b9d83947"


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


@pytest.mark.parametrize("eta", ["-1/2", "0", "1/50"])
@pytest.mark.parametrize("argv", [
    ["construct", "--interval", "1/3:2/5", "--qstart", "1000", "--qmax", "1005"],
    ["verify-avoidance", "--x", "7/20", "--qstart", "10", "--qmax", "40"],
])
def test_construction_sweeps_check_eta_first(capsys, argv, eta):
    assert main(argv + [f"--eta={eta}"]) == 2
    assert capsys.readouterr() == ("", "error: eta must lie in (0, 1/100]\n")


def test_construct_bytes_are_pinned(capsys):
    # the keyed open union's survivors over 201 moduli; recorded from the
    # Fraction-bisecting union it replaced
    code, out = run(["construct", "--interval", "1/3:2/5", "--qstart", "1000", "--qmax", "1200",
                     "--no-strict-budget"], capsys)
    assert code == 0
    assert _sha256(out.encode()) == "6071b8991173577742bf04b502d0113354e299e3974bc6ffa0f1cadc293459e4"


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


def test_verify_avoidance_reads_x_mod_one(capsys):
    argv = ["verify-avoidance", "--qstart", "10", "--qmax", "40"]
    payloads = []
    for x in ("7/20", "27/20"):
        code, text = run(argv + ["--x", x], capsys)
        assert code == 0
        payloads.append(json.loads(text))
    # the label is kept as given; the violations are those of x mod 1
    assert payloads[1]["x"] == "27/20"
    assert payloads[1]["violations"] == payloads[0]["violations"] != []


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


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["badset", "--qlo", "5", "--qhi", "3"], "q,eta,card,members\n"),
        (["badset", "--qlo", "5", "--qhi", "3", "--format", "json"], "[]\n"),
        (["paircorr", "--alpha", "sqrt:2", "--N", "10", "--X", ","], "alpha,N,X,R,R0,method\n"),
    ],
)
def test_empty_selections_print_the_header_alone(capsys, argv, expected):
    assert run(argv, capsys) == (0, expected)


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


@pytest.mark.parametrize("box", [("--A", "10000001", "--B", "1"), ("--A", "1", "--B", "10000001")])
def test_vcounts_box_guard_exits_before_any_table(monkeypatch, capsys, box):
    assert int(box[1]) * int(box[3]) == latcount.V_ENUM_GUARD + 1

    def no_table(*args, **kwargs):
        raise AssertionError("a table was allocated")

    monkeypatch.setattr(latcount.np, "zeros", no_table)
    argv = ["vcounts", *box, "--delta", "1/2", "--alpha", "rat:2/7", "--P0", "2", "--P1", "11"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: box enumeration too large\n")


def test_r0_identities(tmp_path):
    out = tmp_path / "r0.csv"
    assert main(["r0", "--alpha", "rat:3/7", "--N", "40", "--X", "1.5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["coverage_ok"] == "True"
    assert row["square_ok"] == "True"
    assert row["additive_ok"] == "True"


def test_r0_runs_past_the_old_identity_cap(capsys):
    # N = 5000 was refused (exit 2) while the identities enumerated every pair
    code, text = run(["r0", "--alpha", "sqrt:2", "--N", "5000", "--X", "1,16"], capsys)
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        row = dict(zip(lines[0].split(","), line.split(",")))
        flags = ("coverage_ok", "square_ok", "square_applicable", "additive_ok")
        assert [row[f] for f in flags] == ["True"] * 4, line


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
    "argv, key, value, allowed",
    [
        (["paircorr", "--alpha", "sqrt:2", "--N", "10", "--X", "1"], "format", "xml", "csv or json"),
        (["suite", "--only", "A8"], "level", "fast", "desk or quick"),
    ],
)
def test_config_values_are_checked_against_the_flag_choices(
    tmp_path, capsys, argv, key, value, allowed
):
    out = tmp_path / "out"
    assert main(argv + [f"--{key}", value, "--out", str(out)]) == 2
    assert "invalid choice" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: config key {key} must be {allowed}, got {value!r}\n")
    assert not out.exists()


def test_config_switch_of_another_subcommand_is_ignored(tmp_path, capsys):
    # paircorr does not read no_strict_budget, so its value is not checked
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("no_strict_budget = yes\n")
    argv = ["paircorr", "--alpha", "sqrt:2", "--N", "10", "--X", "1"]
    expected = run(argv, capsys)
    assert expected[0] == 0
    assert run(argv + ["--config", str(cfg)], capsys) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["divisor-ap", "--M", "20", "--q", "4", "--s", "1", "--format", "csv"],
        ["expsum", "--b", "1,0,0,0", "--q", "21", "--eta", "1/3"],
        ["suite", "--level", "quick", "--only", "A5", "--threads", "2"],
        ["construct", "--interval", "1/3:2/5", "--qstart", "1000", "--qmax", "1005",
         "--lemma2-constant", "2"],
        # each subcommand given a flag that another one reads
        ["paircorr", "--alpha", "sqrt:2", "--N", "10", "--X", "1", "--eta", "1/3"],
        ["r0", "--alpha", "rat:3/7", "--N", "40", "--X", "1.5", "--seed", "1"],
        ["badset", "--qlo", "2", "--qhi", "5", "--bits", "256"],
        ["dispersion", "--q", "101", "--bits", "256"],
        ["construct", "--interval", "1/3:2/5", "--qstart", "1000", "--qmax", "1005",
         "--bits", "256"],
        ["verify-avoidance", "--x", "7/20", "--qstart", "10", "--qmax", "40", "--format", "json"],
        ["lattice", "--M", "100", "--beta", "sqrt:2", "--delta", "3/10", "--eta", "1/3"],
        ["vcounts", "--A", "6", "--B", "9", "--delta", "1/2", "--alpha", "rat:2/7",
         "--format", "json"],
        ["conjecture2", "--N", "200", "--q", "101", "--bits", "256"],
        ["suite", "--level", "quick", "--only", "A5", "--format", "json"],
    ],
)
def test_flags_the_subcommand_does_not_read_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_suite_quick_subset(tmp_path, capsys, monkeypatch):
    # a clock that moves one second a read: the printed total and the
    # report's wall_clock agree only if they come from the same read
    ticks = itertools.count()
    monkeypatch.setattr(time, "time", lambda: float(next(ticks)))
    out = tmp_path / "report.json"
    code, text = run(["suite", "--level", "quick", "--only", "A5,A8", "--out", str(out)], capsys)
    assert code == 0
    assert "A5" in text and "A8" in text and "suite: PASS" in text
    report = json.loads(out.read_text())
    assert report["suite_passed"] is True
    assert report["config"] == {"level": "quick"}
    assert [c["name"] for c in report["criteria"]] == ["A5", "A8"]
    assert f"suite: PASS ({report['wall_clock']:.2f}s total)" in text


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
