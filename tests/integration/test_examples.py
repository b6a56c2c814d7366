"""Every example script still imports against the public API.

The examples run in one child interpreter: ``custom_predictor.py`` registers
``pc-blacklist`` at import time, and that registration must not leak into
this process's predictor registry.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))

_IMPORT_ALL = """
import runpy, sys
for path in sys.argv[1:]:
    runpy.run_path(path, run_name="example_import_check")
"""


def test_every_example_imports():
    assert EXAMPLES
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-W", "error", "-c", _IMPORT_ALL, *map(str, EXAMPLES)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
