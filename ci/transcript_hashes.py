"""Every verb and library reader gives the pinned transcript hashes.

    PYTHONPATH=src:tests python ci/transcript_hashes.py

The hash covers stderr and exception texts, whose wording may change
between Python versions, and the pinned hashes were verified on Python
3.11.7 only, so the workflow runs this on 3.11 alone.  Standard library
only.
"""

from __future__ import annotations

import subprocess
import sys

PINNED = {
    1: "826a292b4e38b704daef0f5ff6ef50d3748a23992c95e36815c14826feb26a10",
    2: "26a5cf71e9c311bc627bbf37a8bced2a51b113536b6108df1cd43e6c52fa5509",
}

for seed, pinned in PINNED.items():
    command = [sys.executable, "tests/transcript.py", "--src", "src", "--seed", str(seed), "--count", "1500"]
    lines = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
    got = lines[-1] if lines else ""
    print(f"seed {seed}: {got}")
    if got != f"sha256 {pinned}":
        sys.exit(1)
