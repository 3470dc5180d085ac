"""Run every CI script in turn, as the workflow does.

    python ci/run_all.py

From any directory: each script runs from the repository root with
PYTHONPATH=src:tests.  The transcript hashes were pinned on Python 3.11,
and like the workflow this runs them there only.  Prints each script's
exit code and time, and exits 1 if any script failed.  Standard library
only.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = [
    "stdlib_only", "instances20", "memos20", "large", "exponent", "heaviest", "transcript_hashes", "spectrum", "unweighted",
    "loc",
]

env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
failed = []
for name in SCRIPTS:
    if name == "transcript_hashes" and sys.version_info[:2] != (3, 11):
        print(f"== ci/{name}.py: not run, the hashes are pinned on Python 3.11", flush=True)
        continue
    print(f"== ci/{name}.py", flush=True)
    start = time.time()
    rc = subprocess.run([sys.executable, f"ci/{name}.py"], cwd=ROOT, env=env).returncode
    print(f"== ci/{name}.py: exit {rc} ({time.time() - start:.1f} s)", flush=True)
    if rc != 0:
        failed.append(name)
print("all CI scripts passed" if not failed else f"failed: {', '.join(failed)}")
sys.exit(1 if failed else 0)
