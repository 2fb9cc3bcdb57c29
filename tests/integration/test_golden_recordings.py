"""Golden flight-recording digests: recordings are byte-identical across
refactors of the kernel, the event types and the JSONL writer.

Each digest is the SHA-256 of the file written by::

    python -m repro record <args> --no-telemetry --no-profile --out <file>

``--no-profile`` drops the wall-clock phase timers, so the file is a pure
function of the run.  The digests were generated at commit
a2e31478edbf4a6f710477395fcb2a46e4578185 (before payload summaries were
memoised per message object) and must reproduce byte for byte after any
change that claims to leave the recording format alone.  They do not
depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

GOLDEN = {
    # The classic whp_ba recording.
    "whp_ba": (
        ["--n", "16", "--seed", "3"],
        "b96fa33a899b83592ffb4c14d6488f7b1604aebd535e00a7400f56c1afc69edd",
    ),
    # Lossy path: held messages are delivered out of order.
    "reorder_heavy": (
        ["--protocol", "reorder_heavy", "--n", "16", "--seed", "3"],
        "3c0fcf4ebf1384d56aa9ee7b71205a6018137868edadc3298816d5a49655a6d2",
    ),
    # Scenario zoo, 6,064 deliveries: duplicated envelopes deliver one
    # payload object several times to the same process.
    "dup_storm": (
        ["--protocol", "dup_storm", "--n", "16", "--seed", "3"],
        "854ca1491367c4cbe7a52b638ab3547ffc43e0f8fdbc08e2086d7df3955a40ff",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_recording_digest(name, tmp_path):
    args, digest = GOLDEN[name]
    out = tmp_path / "flight.jsonl"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    subprocess.run(
        [sys.executable, "-m", "repro", "record", *args,
         "--no-telemetry", "--no-profile", "--out", str(out)],
        check=True, env=env, capture_output=True,
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
