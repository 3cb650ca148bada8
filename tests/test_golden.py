"""Golden digests of the default pipeline's artifacts, per OpenBLAS kernel.

`golden.digests` hashes what the CLI defaults write: both training logs and
two `generate` runs. Every change that claims "same bits" (a refactor, a
faster path) must leave these unchanged, so tier-1 guards the bit contract
itself, not only its consequences.

Float32 matmul sums in each kernel's own order, so the digests are recorded
per kernel, keyed by the core name OpenBLAS reports. The session pipeline is
checked against the kernel this process runs on; each kernel that
`OPENBLAS_CORETYPE` can force is checked in a subprocess of its own, which
also checks `codec.lift` against the stacked per-row product. The digests
also depend on numpy's random streams, so they are only asserted under the
numpy major.minor they were recorded with.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import golden
import segvid

NUMPY = "2.4"
# OPENBLAS_CORETYPE settings run in subprocesses. numpy 2.4's OpenBLAS 0.3.31
# reports Prescott as Katmai and Zen as Haswell.
CORETYPES = ("Prescott", "Nehalem", "Sandybridge", "Haswell", "Zen", "SkylakeX")
GOLDEN = {
    "SkylakeX": {
        "stage1_train_log": "fc944afe662cd9ad5ca9c473b13ff2b7ec258a55a9352b0632be0f4e2a54fe27",
        "stage2_train_log": "bb6bac3da534b085dc7a7da684cd378aca15413f6960715233feeed7fff09bec",
        "generate_T81": "8a550c12c7a3613bd764f97da9b58db75afc0a38c46836c64e488b822b8eb3b6",
        "generate_stream_T641": "4346676992d3d55888c6a4a07b82166c9bea2098757a2d4c9b5e2ec14d63b3ac",
    },
    "Haswell": {
        "stage1_train_log": "5e73dc26dae9080a7b15993dca9a05c1618682f0adca8bd5c2c4d1afa42c2d49",
        "stage2_train_log": "c353d94af1a589712dccbae1756de8ae5129a5ffccdf849288097c919c3525e1",
        "generate_T81": "43bb6fe1a3e56822bff406dd112e18c653f7ce2eccbe2dfba8d7f85e0f8f92a4",
        "generate_stream_T641": "b2f3b08d7c379299eff9ccdedfb4419b46414ca780bc6d573460511b3a6ea2f1",
    },
    "Sandybridge": {
        "stage1_train_log": "632b6fde2664e2e8794f2297485698679d310a7475eea1f560b834f7a912d7e0",
        "stage2_train_log": "de87e583b16312d665249a6add7958d90f67157949d25aad4563f68cdec3e04c",
        "generate_T81": "6c24220e9d62accee0380191e12316b2facd64361447c58c0a420c88d720ee5b",
        "generate_stream_T641": "5e14a359f622f10583e3d2a21edfe89148f4ad563b6ceda0f2d386753a9b18e7",
    },
    "Nehalem": {
        "stage1_train_log": "3bd59dca8da2ea5a6bfca7656ac0004f963b2a0c0d3086a512bee0db636d74cb",
        "stage2_train_log": "7865bd6f0f3bdef2a43b25a6a2d407d66177385c8616f35f976699f4be75c021",
        "generate_T81": "99a31f8437b9afd2f66a4a0852eee4c7b82506b639be80e517726f162de00a1b",
        "generate_stream_T641": "1ee5ee1675ad1a1a574700a498699204875be4973e3720aec748dd5023240864",
    },
    "Katmai": {
        "stage1_train_log": "d5e646f64bba4ac6ab823ae40b55d3230451d799fbbff0d3d82bbf0f336046cd",
        "stage2_train_log": "41386cc7f82c5c847fc52661888dbd9bd2f162bbe31d027f6a8372ad9446df8f",
        "generate_T81": "81426a49cde8062cd90f5971aaa1efed2e9d846a4acf077bba7acf80a28fb64f",
        "generate_stream_T641": "7a3c9b44956587ea4961917cdff2be495b39c3ab60787c6b9dab7fbce8783fc2",
    },
}

recorded_numpy = pytest.mark.skipif(".".join(np.__version__.split(".")[:2]) != NUMPY,
                                    reason=f"golden digests were recorded under numpy {NUMPY}.x")


def _expected(core, reason, got):
    """The recorded digests of ``core``; skips where there are none."""
    if core is None:
        pytest.skip(reason)
    if core not in GOLDEN:
        pytest.skip(f"no golden digests recorded for OpenBLAS core {core}; got {got}")
    return GOLDEN[core]


@recorded_numpy
def test_golden_digests(pipeline, tmp_path):
    core, reason = golden.openblas_core()
    got = golden.digests(pipeline, tmp_path)
    assert got == _expected(core, reason, got)


@recorded_numpy
@pytest.mark.parametrize("coretype", CORETYPES)
def test_golden_digests_per_kernel(coretype, tmp_path):
    src = str(Path(segvid.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": coretype,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, golden.__file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    result, reason = golden.read_result(proc, coretype)
    if result is None:
        pytest.skip(reason)
    core = result["core"]
    assert result["lift_mismatches"] == [], f"codec.lift differs from the per-row products on {core}"
    assert result["digests"] == _expected(core, result["reason"], result["digests"]), core


def test_openblas_core_names_what_was_found_without_openblas():
    core, reason = golden.openblas_core(["/usr/lib/libc.so.6", "/opt/lib/libmkl_rt.so.2"])
    assert core is None and "no OpenBLAS" in reason and "libmkl_rt.so.2" in reason
    core, reason = golden.openblas_core(["/usr/lib/libc.so.6", "/usr/lib/libm.so.6"])
    assert core is None and "none of 2" in reason
    core, reason = golden.openblas_core(["/nonexistent/libopenblas.so.0"])
    assert core is None and golden.CORENAME_SYMBOL in reason and "libopenblas.so.0" in reason


def test_a_kernel_the_host_cannot_execute_is_skipped_not_failed():
    died = subprocess.CompletedProcess([], -signal.SIGILL, "", "")
    result, reason = golden.read_result(died, "SkylakeX")
    assert result is None and "SkylakeX" in reason and "SIGILL" in reason
    with pytest.raises(AssertionError, match="exited 1"):
        golden.read_result(subprocess.CompletedProcess([], 1, "", "Traceback"), "Haswell")
    ok = subprocess.CompletedProcess([], 0, 'wrote\n{"core": "Haswell"}\n', "")
    assert golden.read_result(ok, "Zen") == ({"core": "Haswell"}, "")
