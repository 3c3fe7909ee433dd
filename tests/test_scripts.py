"""Smoke tests of the command-line scripts under scripts/, run as subprocesses."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_run_acceptance_sweeps_pw_over_two_seeds():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_acceptance.py"), "--suite", "pw", "--seeds", "1-2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3, proc.stdout
    for seed, line in zip((1, 2), lines):
        assert re.fullmatch(rf"pw seed={seed} PASS [0-9a-f]{{16}}", line), line
    assert lines[2] == "0 of 2 runs failed"
    assert re.fullmatch(r"pw: median \d+\.\d\d s over 2 seeds", proc.stderr.splitlines()[-1]), proc.stderr
