"""Smoke test: the command-line demo runs end to end in a fresh interpreter."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_cli_pipeline_demo_exits_0():
    # the demo's flags, not stray STFORGE_* settings, must decide its config
    env = {k: v for k, v in os.environ.items() if not k.startswith("STFORGE_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "08_cli_pipeline.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
