"""The README's scripts, run end to end at tiny sizes via subprocess."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args):
    """Run scripts/<name> on this checkout's src, ahead of any installed copy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)], capture_output=True, text=True, env=env
    )


def test_baseline_failure_demo():
    proc = run_script("baseline_failure_demo.py", "--length", 60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("path of 30 two-edge pieces, r=2")
    rows = [line.split() for line in proc.stdout.splitlines()[-3:]]
    assert [row[0] for row in rows] == ["naive", "periodic", "combined"]


def test_main_theorem_sweep(tmp_path):
    out, table = tmp_path / "report.json", tmp_path / "report.csv"
    proc = run_script("main_theorem_sweep.py", "--count", 2, "--r", 2, 4, "--out", out, "--csv", table)
    assert proc.returncode == 0, proc.stderr
    assert "cells=4 passed=4" in proc.stdout
    assert [len(space["cells"]) for space in json.loads(out.read_text())["spaces"]] == [2, 2]
    with table.open() as f:
        assert len(list(csv.DictReader(f))) == 4
