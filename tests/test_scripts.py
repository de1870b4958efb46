import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        ("paircorr_growth.py", ["--N", "200"]),
        ("build_alpha.py", ["--N", "200"]),
        # 64 bits cannot certify N = 3000: the script must escalate
        ("paircorr_growth.py", ["--N", "3000", "--bits", "64"]),
    ],
)
def test_script_runs(tmp_path, monkeypatch, capsys, script, args):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script, *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exc.value.code == 0, capsys.readouterr().err
    assert capsys.readouterr().out


@pytest.mark.parametrize(
    "extra, message",
    [
        ([], "through q=10 is not below half the interval length"),
        (["--no-strict-budget"], "refinement emptied at modulus 47"),
    ],
)
def test_build_alpha_reports_construct_errors(monkeypatch, capsys, extra, message):
    # the errors `quadpair construct` reports exit 2, not with a traceback
    args = ["build_alpha.py", "--qstart", "10", "--qmax", "120", "--N", "200", *extra]
    monkeypatch.setattr(sys, "argv", args)
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "build_alpha.py"), run_name="__main__")
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert err.startswith("error: ") and message in err
    assert not out
