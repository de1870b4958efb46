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
