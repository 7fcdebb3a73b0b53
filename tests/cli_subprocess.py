"""Run this checkout's ``degenpoly`` CLI in a child process."""

import os
import subprocess
import sys
from pathlib import Path

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(
    *args: str, env_extra: dict | None = None, stdout=subprocess.PIPE
) -> subprocess.CompletedProcess:
    """Run this checkout's CLI in a child process, never an installed copy."""
    env = {k: v for k, v in os.environ.items() if k != "DEGENPOLY_OUT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC_DIR, env.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "degenpoly", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
