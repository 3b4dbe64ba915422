"""Every narrative demo runs to completion against the package in this checkout."""

import glob
import os
import subprocess
import sys

import pytest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(_REPO_ROOT, "demos", "0*.py")))


def test_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(script, tmp_path):
    # Demo 06 exits 0 with a notice when the chest-X-ray archive is absent.
    temp_dir = tmp_path / "tmp"  # demos 04 and 05 write temp files and must remove them
    temp_dir.mkdir()
    env = dict(os.environ, TMPDIR=str(temp_dir))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(_REPO_ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert list(temp_dir.iterdir()) == []
