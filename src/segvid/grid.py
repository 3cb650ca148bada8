"""Dense float32 tensors, seeded randomness, and the SIV1 on-disk container.

Every array that crosses a module boundary in this package is a row-major
float32 numpy array with finite entries. Pixel videos are (T, H, W, C) with
values in [0, 1]; latent videos are (t, h, w, c). This module owns the three
shared primitives: the deterministic RNG, the cell means that all spatial
pooling adds through (``codec.pool``, the stage-2 reference), and file I/O.

Reproducibility contract: ``Rng`` wraps numpy's PCG64 bit generator seeded
through ``SeedSequence``. The same 64-bit seed yields the same value stream
on every run and platform (for a fixed numpy major version). Sub-streams are
derived with ``split``, which feeds a tuple of integer keys into
``SeedSequence(spawn_key=...)``; the key constants below are fixed and part
of the format of any seeded artifact. A stream seeds its generator on its
first draw, so a stream that is only split never builds one.

The initial latent noise of a request's stage is one stream, drawn in block
order: ``noise_filler`` hands out consecutive runs of blocks, which is how
every denoising path visits them, and ``init_noise_blocks`` draws every block
at once with the same bits.

``write_siv1`` rewrites an existing file in place rather than truncating it
first, and writes the header last.
"""

from __future__ import annotations

import os
import stat
import struct
from pathlib import Path

import numpy as np

FLOAT = np.float32

SIV1_MAGIC = b"SIV1"
_HEADER = struct.Struct("<4sIIIII")  # magic, T, H, W, C, reserved

# Named sub-stream keys (first element of every split key tuple).
SUB_INIT_NOISE = 0xA1  # initial latent noise, one stream drawn in block order
SUB_TRAIN = 0xB2       # one stream for every draw of a training or evaluation run
SUB_TRANSITION = 0xC3  # transition-pair corruption, key (SUB_TRANSITION, pair)
SUB_PARAMS = 0xD4      # parameter initialization
SUB_SCENE = 0xE5       # synthetic scene content

_MAX_ELEMENTS = 1 << 31  # refuse absurd allocations up front


class Rng:
    """Deterministic random stream with keyed sub-streams.

    ``Rng(seed)`` is the root stream; ``rng.split(*keys)`` derives an
    independent child stream identified by the integer key path. Streams are
    single-owner: never share one instance across concurrent contexts.
    """

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        if not isinstance(seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
        if not 0 <= int(seed) < 2**64:
            raise ValueError(f"seed must fit in u64, got {seed}")
        self.seed = int(seed)
        self.key = tuple(int(k) for k in _key)
        self._gen = None

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)))
        return self._gen

    def split(self, *keys: int) -> "Rng":
        """Child stream for the given key path, independent of this one."""
        return Rng(self.seed, self.key + keys)

    def normal(self, shape: tuple[int, ...], out: np.ndarray | None = None) -> np.ndarray:
        """Standard normal FLOAT draws; into out, a FLOAT array of that
        shape, when given."""
        return self._generator().standard_normal(shape, dtype=FLOAT, out=out)

    def uniform01(self) -> float:
        """One double in [0, 1)."""
        return float(self._generator().random())

    def integers(self, low: int, high: int) -> int:
        """One integer in [low, high)."""
        return int(self._generator().integers(low, high))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(seed={self.seed}, key={self.key})"


def _check_dims(dims: tuple[int, ...], where: str = "") -> tuple[int, ...]:
    """The extents as ints; errors start with ``where`` (e.g. a file path)."""
    dims = tuple(int(d) for d in dims)
    if len(dims) == 0:
        raise ValueError(f"{where}dims must be non-empty")
    if any(d <= 0 for d in dims):
        raise ValueError(f"{where}all extents must be positive, got {dims}")
    n = 1
    for d in dims:
        n *= d
    if n > _MAX_ELEMENTS:
        raise ValueError(f"{where}tensor of {n} elements exceeds the {_MAX_ELEMENTS} cap")
    return dims


def require_finite(arr: np.ndarray, name: str = "tensor") -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def as_f32(arr, name: str = "tensor") -> np.ndarray:
    """Coerce to a finite float32 array (no copy when already one)."""
    out = np.asarray(arr, dtype=FLOAT)
    require_finite(out, name)
    return out


def noise_filler(rng: Rng, t: int):
    """The initial-noise filler of stream rng over blocks 2..t (block 1 is
    the anchor): fill(out, first_block) writes the noise of blocks
    first_block, first_block + 1, ... (1-based) into the rows of out, one row
    per block.

    The noise is one float32 standard-normal stream,
    rng.split(SUB_INIT_NOISE), drawn in block order. Any chunking of it into
    consecutive draws has the bits of one draw, so the windowed,
    full-sequence and streaming paths see the same noise per block. A gap, a
    repeat or a block past t raises ValueError, so a traversal that skipped
    ahead fails instead of shifting the noise.
    """
    gen = rng.split(SUB_INIT_NOISE)._generator()
    next_block = 2

    def fill(out: np.ndarray, first_block: int) -> None:
        nonlocal next_block
        last = first_block + len(out) - 1
        if first_block != next_block or last > t:
            raise ValueError(f"blocks {first_block}..{last} requested; the next block is "
                             f"{next_block} and the last is {t}")
        gen.standard_normal(dtype=FLOAT, out=out)
        next_block = last + 1

    return fill


def init_noise_blocks(rng: Rng, t: int, h: int, w: int, c: int) -> np.ndarray:
    """Initial latents: blocks 2..t at their noise (see noise_filler), block 1
    zeroed (the caller installs the anchor there)."""
    z = np.zeros(_check_dims((t, h, w, c)), FLOAT)
    noise_filler(rng, t)(z[1:], 2)
    return z


def pixel_views(dst: np.ndarray, src: np.ndarray):
    """(dst, src) views for the copy dst[...] = src between arrays of
    (..., c) pixels. When both hold one dtype with unit-strided channels, the
    views see each pixel as one record of c values, so the copy moves one
    item per pixel instead of looping over c values at a time (a channel
    slice of a [z | ref] buffer is strided from pixel to pixel). Otherwise
    they are the arrays themselves, and the copy casts value by value."""
    c = dst.shape[-1]
    if (dst.dtype == src.dtype and src.shape[-1] == c
            and dst.strides[-1] == src.strides[-1] == dst.itemsize):
        pixel = f"V{c * dst.itemsize}"
        return dst.view(pixel), src.view(pixel)
    return dst, src


def cell_means(taps: np.ndarray) -> np.ndarray:
    """(n, h, f, w, g, C) float32 tap view to its (n, h, w, C) cell means.

    The f·g taps of a cell are added into a float32 sum that starts at +0.0,
    in row-major (i, j) order, and the sum is divided by f·g in float32. For
    a C-contiguous view with C >= 2 that is the order in which numpy's
    float32 mean over axes 2 and 4 adds (the channel axis is innermost and
    not reduced), and numpy's float64 division rounds to the same float32, so
    the bits equal numpy's mean. For C = 1 or other strides numpy adds in
    another order; no caller pools such views. A stride-0 view over a smaller
    array is pooled without materialising it.
    """
    f, g = taps.shape[2], taps.shape[4]
    out = taps[:, :, 0, :, 0] + FLOAT(0)  # as numpy's sum, so a cell of -0.0 gives +0.0
    for i in range(f):
        for j in range(g):
            if i or j:
                out += taps[:, :, i, :, j]
    out /= FLOAT(f * g)
    return out


def write_siv1(path, arr: np.ndarray) -> None:
    """Write a 4-D float32 tensor as an SIV1 file.

    Layout: magic ``SIV1``, five little-endian u32 (the four extents and a
    zero reserved word), then the row-major little-endian float32 payload.
    The same container stores pixel videos (T,H,W,C) and latents (t,h,w,c).

    An existing regular file is rewritten in place, without truncating it
    first: a zeroed header, the payload, a truncate to the new length, then
    the real header at offset 0. (On ext4 mounted with ``discard``, freeing
    and reallocating every block of the old file took several times as long
    as the write itself: about 5 ms against 1 ms for a T=641 video.) The bytes on disk are those of a fresh
    write, and a new file gets the mode open(path, "wb") gives it. A write
    that stops before the header (an exception, a killed process) leaves a
    file that read_siv1 rejects for its magic, never a valid header over a
    mix of old and new payload, which the size check cannot catch when the
    old file had the same shape. Nothing is synced, so this does not hold
    across a power loss. Other targets, such as /dev/null (which cannot be
    truncated) or a pipe (which cannot be rewound), get the header, then
    the payload.
    """
    a = as_f32(arr, "tensor")
    if a.ndim != 4:
        raise ValueError(f"SIV1 stores 4-D tensors, got shape {a.shape}")
    _check_dims(a.shape)
    header = _HEADER.pack(SIV1_MAGIC, *a.shape, 0)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as f:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        f.write(bytes(len(header)) if regular else header)
        f.write(np.ascontiguousarray(a, dtype="<f4").data)
        if regular:
            f.truncate()
            f.seek(0)
            f.write(header)


def read_siv1(path) -> np.ndarray:
    """Read an SIV1 file back into a (d0, d1, d2, d3) float32 array.

    The header and the file size are checked before any payload byte is
    read, so a corrupt or oversized file is rejected without loading it.
    """
    path = Path(path)
    with open(path, "rb") as f:
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"{path}: truncated SIV1 header")
        magic, d0, d1, d2, d3, reserved = _HEADER.unpack(head)
        if magic != SIV1_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if reserved != 0:
            raise ValueError(f"{path}: nonzero reserved word {reserved}")
        dims = _check_dims((d0, d1, d2, d3), f"{path}: ")
        n = d0 * d1 * d2 * d3
        size = os.fstat(f.fileno()).st_size - _HEADER.size
        if size != 4 * n:
            raise ValueError(f"{path}: payload is {size} bytes, expected {4 * n}")
        payload = bytearray(4 * n)
        got = f.readinto(payload)
    if got != 4 * n:
        raise ValueError(f"{path}: payload is {got} bytes, expected {4 * n}")
    arr = np.frombuffer(payload, dtype="<f4").reshape(dims).astype(FLOAT, copy=False)
    require_finite(arr, str(path))
    return arr
