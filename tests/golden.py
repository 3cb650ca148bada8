"""The golden pipeline and the OpenBLAS kernel it ran on.

`build_pipeline` runs the CLI defaults end to end (corpus, stage 1, stage 2,
plus an input image); `digests` hashes what it and two `generate` runs write.
The session `pipeline` fixture and `tests/test_golden.py` both use them.

Run as a script, it does the same in a fresh directory and prints, as its
last line, one JSON object: the OpenBLAS core that numpy's BLAS reports, the
digests, and the lift cases where `codec.lift` differs from the stacked
per-row product. `tests/test_golden.py` runs it once per kernel, forced by
`OPENBLAS_CORETYPE`:

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/golden.py OUT_DIR
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import re
import signal
import sys
from pathlib import Path

import numpy as np

from segvid import cli, synth
from segvid.codec import CodecConfig, channel_lift, lift
from segvid.grid import FLOAT, write_siv1

CORENAME_SYMBOL = "scipy_openblas_get_corename64_"  # numpy's bundled OpenBLAS


def build_pipeline(root) -> dict:
    """CLI defaults end to end under ``root``: 6-clip T=81 corpus, 600-step
    stage 1, 600-step stage 2, plus a single-frame SIV1 input image."""
    root = Path(root)
    corpus, s1, s2 = str(root / "corpus"), str(root / "s1"), str(root / "s2")
    assert cli.main(["synth", "--out", corpus]) == 0
    assert cli.main(["train-stage1", "--corpus", corpus, "--out", s1]) == 0
    assert cli.main(["train-stage2", "--corpus", corpus, "--stage1", s1, "--out", s2]) == 0
    image = str(root / "input.siv1")
    write_siv1(image, synth.render_scene(synth.SceneSpec(seed=777, T=17))[:1])
    return {"root": root, "corpus": corpus, "s1": s1, "s2": s2, "image": image}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _generate(pipeline, out, frames, *extra) -> str:
    rc = cli.main(["generate", "--stage1", pipeline["s1"], "--stage2", pipeline["s2"],
                   "--image", pipeline["image"], "--out", str(out),
                   "--frames", str(frames), *extra])
    assert rc == 0
    return _sha256(Path(out) / "video.siv1")


def digests(pipeline, out) -> dict:
    """sha256 of both training logs and of a plain T=81 and a streamed T=641
    generate, written under ``out``."""
    out = Path(out)
    return {
        "stage1_train_log": _sha256(Path(pipeline["s1"]) / "train_log.csv"),
        "stage2_train_log": _sha256(Path(pipeline["s2"]) / "train_log.csv"),
        "generate_T81": _generate(pipeline, out / "plain", 81),
        "generate_stream_T641": _generate(pipeline, out / "stream", 641, "--stream"),
    }


def mapped_libraries() -> list[str]:
    """Paths of the shared objects mapped into this process (Linux only)."""
    with open("/proc/self/maps") as f:
        return sorted({p[5] for line in f if len(p := line.split()) >= 6 and ".so" in p[5]})


def openblas_core(libraries=None) -> tuple[str | None, str]:
    """The core name OpenBLAS reports for its active kernel, and "". Where it
    cannot be read, None and a reason that names what was found instead.
    ``libraries`` are the mapped shared objects; by default this process's."""
    if libraries is None:
        try:
            libraries = mapped_libraries()
        except OSError as e:
            return None, f"cannot list the mapped libraries: {e}"
    blas = [p for p in libraries if "openblas" in Path(p).name.lower()]
    if not blas:
        other = [Path(p).name for p in libraries
                 if re.search(r"blas|lapack|mkl|accelerate", Path(p).name, re.I)]
        return None, (f"no OpenBLAS mapped; BLAS-like libraries mapped: "
                      f"{', '.join(other) or f'none of {len(libraries)}'}")
    for path in blas:
        try:
            fn = getattr(ctypes.CDLL(path), CORENAME_SYMBOL)
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [], ctypes.c_char_p
        return fn().decode(), ""
    return None, f"no {CORENAME_SYMBOL} in {', '.join(Path(p).name for p in blas)}"


def lift_bits(n, h, w, c, scale, zeros, seed):
    """uint32 views of `codec.lift` and of the lift as numpy's stacked
    product (one (w, 3) @ (3, c) product per pixel row) of one (n, h, w, 3)
    float32 array: seeded standard normals times ``scale``, or all -0.0."""
    cfg = CodecConfig(c=c)
    x = (np.random.default_rng(seed).standard_normal((n, h, w, 3)) * scale).astype(FLOAT)
    if zeros:
        x[...] = -0.0
    return lift(x, cfg).view(np.uint32), (x @ channel_lift(cfg).T).view(np.uint32)


def lift_mismatches(seed=0, count=300) -> list[dict]:
    """Seeded lift cases where `codec.lift` and the stacked per-row product
    differ in any bit, sign of zero included: n in 1..160, h in 1..8, w in
    2..8, c in {3, 4, 6}, scales 1e-3..1e2, and every tenth case all -0.0."""
    g = np.random.default_rng(seed)
    cases = [dict(n=int(g.integers(1, 161)), h=int(g.integers(1, 9)), w=int(g.integers(2, 9)),
                  c=int(g.choice((3, 4, 6))), scale=float(10.0 ** g.uniform(-3, 2)),
                  zeros=i % 10 == 0, seed=i) for i in range(count)]
    return [case for case in cases if not np.array_equal(*lift_bits(**case))]


def read_result(proc, coretype) -> tuple[dict | None, str]:
    """The JSON result of a `python tests/golden.py` run under
    ``OPENBLAS_CORETYPE=coretype``, and "". None and a skip reason when the
    host cannot execute that kernel (the run died of SIGILL); any other
    failure raises."""
    if proc.returncode == -signal.SIGILL:
        return None, f"OPENBLAS_CORETYPE={coretype}: this host cannot execute the kernel (SIGILL)"
    if proc.returncode != 0:
        raise AssertionError(f"OPENBLAS_CORETYPE={coretype}: golden run exited "
                             f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), ""


def main(out) -> None:
    core, reason = openblas_core()
    got = digests(build_pipeline(out), out)
    print(json.dumps({"core": core, "reason": reason, "digests": got,
                      "lift_mismatches": lift_mismatches()}))


if __name__ == "__main__":
    main(sys.argv[1])
