"""Golden digests of the default pipeline's artifacts.

The session `pipeline` fixture runs the CLI defaults end to end; this test
pins the sha256 of what it and two `generate` runs write. Every change that
claims "same bits" (a refactor, a faster path) must leave these unchanged, so
tier-1 guards the bit contract itself, not only its consequences.

The digests depend on numpy's random streams and float kernels, so they are
only asserted under the numpy major.minor they were recorded with.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from segvid import cli

NUMPY = "2.4"
GOLDEN = {
    "stage1_train_log": "fc944afe662cd9ad5ca9c473b13ff2b7ec258a55a9352b0632be0f4e2a54fe27",
    "stage2_train_log": "bb6bac3da534b085dc7a7da684cd378aca15413f6960715233feeed7fff09bec",
    "generate_T81": "8a550c12c7a3613bd764f97da9b58db75afc0a38c46836c64e488b822b8eb3b6",
    "generate_stream_T641": "4346676992d3d55888c6a4a07b82166c9bea2098757a2d4c9b5e2ec14d63b3ac",
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _generate(pipeline, out, frames, *extra) -> str:
    rc = cli.main(["generate", "--stage1", pipeline["s1"], "--stage2", pipeline["s2"],
                   "--image", pipeline["image"], "--out", str(out),
                   "--frames", str(frames), *extra])
    assert rc == 0
    return _sha256(Path(out) / "video.siv1")


@pytest.mark.skipif(".".join(np.__version__.split(".")[:2]) != NUMPY,
                    reason=f"golden digests were recorded under numpy {NUMPY}.x")
def test_golden_digests(pipeline, tmp_path):
    got = {
        "stage1_train_log": _sha256(Path(pipeline["s1"]) / "train_log.csv"),
        "stage2_train_log": _sha256(Path(pipeline["s2"]) / "train_log.csv"),
        "generate_T81": _generate(pipeline, tmp_path / "plain", 81),
        "generate_stream_T641": _generate(pipeline, tmp_path / "stream", 641, "--stream"),
    }
    assert got == GOLDEN
