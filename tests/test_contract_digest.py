"""tools/contract_digest.py runs on this tree and prints its 14 digests."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_contract_digest_prints_fourteen_digests_and_nothing_on_stderr():
    # Nine shipped outputs, two benchmark rounds, two verify reports and the
    # closed forms of two rounds of verify pairs. A benchmark op whose check
    # fails prints its failure on stderr.
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "contract_digest.py"), "src"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    assert len(lines) == 14
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines), lines
