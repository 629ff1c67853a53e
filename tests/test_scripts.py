import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_reproduces_its_golden(script):
    # every script's output is pinned in tests/golden/<stem>.txt, so a changed
    # verdict or witness shows here, and a script cannot land without one
    golden = ROOT / "tests" / "golden" / f"{script.stem}.txt"
    assert golden.exists(), f"{script.name} has no golden {golden.name}"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(script)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden.read_text()
