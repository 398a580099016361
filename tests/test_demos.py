"""The demos run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_channel_walkthrough.py", "02_line_structure.py",
                                  "03_detection_pipeline.py", "04_ber_sweep.py"])
def test_demo_runs(demo, tmp_path):
    # Demos 02 and 04 write their CSVs to the working directory.
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
