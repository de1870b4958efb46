import runpy
import sys
from pathlib import Path

import pytest

from quadpair import paircorr
from quadpair.cli import main as cli_main
from quadpair.errors import PrecisionError

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
WINDOWS = "1/4,1/2,1,2,4,8,16"


def run_script(monkeypatch, capsys, script, *args):
    monkeypatch.setattr(sys, "argv", [script, *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("script", sorted(path.name for path in SCRIPTS.glob("*.py")))
def test_script_help(monkeypatch, capsys, script):
    code, out, _ = run_script(monkeypatch, capsys, script, "--help")
    assert code == 0
    assert out.startswith("usage: ")


def _table(out: str) -> dict[str, list[list[str]]]:
    lines = out.splitlines()
    start = lines.index("alpha,N,X,R,R0,R_minus_X")
    rows = {}
    for line in lines[start + 1:]:
        label, *cells = line.rsplit(",", 5)
        rows.setdefault(label, []).append(cells)
    return rows


def test_build_alpha_table_matches_paircorr(monkeypatch, capsys):
    code, out, err = run_script(monkeypatch, capsys, "build_alpha.py", "--N", "200")
    assert code == 0, err
    table = _table(out)
    final = "rat:334669/1004004"
    assert list(table) == [final, "sqrt:2", "sqrt:3", "ratio:(1+sqrt:5)/2"]
    for label in (final, "sqrt:2"):
        assert cli_main(["paircorr", "--alpha", label, "--N", "200", "--X", WINDOWS]) == 0
        rows = [line.rsplit(",", 5)[1:5] for line in capsys.readouterr().out.splitlines()[1:]]
        # N, X, R and R0, as strings
        assert [cells[:4] for cells in table[label]] == rows


def test_build_alpha_escalates_precision(monkeypatch, capsys):
    code, expected, _ = run_script(monkeypatch, capsys, "build_alpha.py", "--N", "200")
    assert code == 0
    real = paircorr.pair_correlation
    certified = []

    def flaky(seq, x):
        # the first window on an irrational cannot certify
        if seq.err:
            certified.append(seq)
            if len(certified) == 1:
                raise PrecisionError("first attempt cannot certify")
        return real(seq, x)

    monkeypatch.setattr(paircorr, "pair_correlation", flaky)
    code, out, err = run_script(monkeypatch, capsys, "build_alpha.py", "--N", "200")
    assert code == 0, err
    assert out == expected
    # the retry rebuilt the sequence at more bits
    assert certified[1].den > certified[0].den


def test_build_alpha_reports_an_unwritable_out(tmp_path, monkeypatch, capsys):
    out_path = str(tmp_path / "missing" / "cert.json")
    code, out, err = run_script(monkeypatch, capsys, "build_alpha.py", "--N", "200", "--out", out_path)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out


@pytest.mark.parametrize(
    "extra, message",
    [
        ([], "through q=10 is not below half the interval length"),
        (["--no-strict-budget"], "refinement emptied at modulus 47"),
    ],
)
def test_build_alpha_reports_construct_errors(monkeypatch, capsys, extra, message):
    # the errors `quadpair construct` reports exit 2, not with a traceback
    args = ["--qstart", "10", "--qmax", "120", "--N", "200", *extra]
    code, out, err = run_script(monkeypatch, capsys, "build_alpha.py", *args)
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert not out
