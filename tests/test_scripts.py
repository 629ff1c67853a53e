import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_countermodel_survey_output_is_unchanged():
    # the survey runs valid_in and find_invalidating_singletons end to end;
    # its output is pinned, so a changed verdict or witness shows here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "countermodel_survey.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "golden" / "countermodel_survey.txt").read_text()
