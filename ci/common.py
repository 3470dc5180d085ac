"""What the CI scripts share: the maxplus CLI run in a child interpreter.

The scripts run from the repository root as

    PYTHONPATH=src:tests python ci/<name>.py

and the children inherit that PYTHONPATH.  Standard library only.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

sys.stdout.reconfigure(line_buffering=True)  # keep this script's lines in order with its children's


def maxplus(*args: object, out: str | Path | None = None, stderr: bool = True) -> int:
    """The exit code of `python -m maxplus.cli args`, with its stdout written
    to the file out when given (os.devnull drops it) and its stderr dropped
    unless stderr."""
    command = [sys.executable, "-m", "maxplus.cli", *map(str, args)]
    errors = None if stderr else subprocess.DEVNULL
    if out is None:
        return subprocess.run(command, stderr=errors).returncode
    with open(out, "w") as stream:
        return subprocess.run(command, stdout=stream, stderr=errors).returncode


def check(rc: int, what: str) -> None:
    """Exit 1, saying what failed, unless rc is 0."""
    if rc != 0:
        print(f"{what}: exit {rc}")
        sys.exit(1)
