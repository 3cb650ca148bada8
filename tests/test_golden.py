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
    "stage1_train_log": "37eec42bc9930aeec397ec25c851feebf3a956b16d83e0f8cf2d97435b2f02b9",
    "stage2_train_log": "e17ec9206d0909b492efbfc9b2b5ca2bfbd4f4012e2e98659e69e9a21e7210a8",
    "generate_T81": "550f122c9580c6dd5899fb2f051a8a6b8f2834038a0a04196e31a1611ce8c7b2",
    "generate_stream_T641": "2725c07618b28a6237111d5411f28df1087066c401037015dde87020bbc986b7",
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
