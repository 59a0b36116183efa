"""The scripts in demos/ run to completion and report success."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from algebroids import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


@pytest.mark.parametrize("name", ["check_preset.py", "failing_witness.py",
                                  "manin_round_trip.py"])
def test_demo_exits_zero(name):
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=ROOT,
                          env=_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def _load_failing_witness():
    spec = importlib.util.spec_from_file_location(
        "failing_witness", DEMOS / "failing_witness.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("code", [0, 2])
def test_failing_witness_rejects_other_exit_codes(code, monkeypatch, capsys):
    demo = _load_failing_witness()
    monkeypatch.setattr(cli, "main", lambda argv: code)
    assert demo.main() != 0
    assert "should exit 1" in capsys.readouterr().out
