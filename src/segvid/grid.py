"""Dense float32 tensors, seeded randomness, and the SIV1 on-disk container.

Every array that crosses a module boundary in this package is a row-major
float32 numpy array with finite entries. Pixel videos are (T, H, W, C) with
values in [0, 1]; latent videos are (t, h, w, c). This module owns the three
shared primitives: the deterministic RNG, spatial resizing (and the cell
pooling that the codec shares), and file I/O.

Reproducibility contract: ``Rng`` wraps numpy's PCG64 bit generator seeded
through ``SeedSequence``. The same 64-bit seed yields the same value stream
on every run and platform (for a fixed numpy major version). Sub-streams are
derived with ``split``, which feeds a tuple of integer keys into
``SeedSequence(spawn_key=...)``; the key constants below are fixed and part
of the format of any seeded artifact. A stream seeds its generator on its
first draw, so a stream that is only split never builds one.

``init_noise_blocks`` needs one sub-stream per latent block. Rather than a
``SeedSequence`` and a ``PCG64`` per block, it restates numpy's
``SeedSequence`` hashing and PCG64 seeding in Python integers (hashing the
shared key prefix once per call) and sets the resulting state on one
generator; the tests check it against the per-block ``split`` streams.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

FLOAT = np.float32

SIV1_MAGIC = b"SIV1"
_HEADER = struct.Struct("<4sIIIII")  # magic, T, H, W, C, reserved

# Named sub-stream keys (first element of every split key tuple).
SUB_INIT_NOISE = 0xA1  # per-block initial latent noise, key (SUB_INIT_NOISE, block)
SUB_TRAIN = 0xB2       # training-step draws, key (SUB_TRAIN, step)
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

    def normal(self, shape: tuple[int, ...]) -> np.ndarray:
        return self._generator().standard_normal(shape, dtype=FLOAT)

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


def init_noise_blocks(rng: Rng, t: int, h: int, w: int, c: int) -> np.ndarray:
    """Initial latents: blocks 2..t from per-block noise sub-streams, block 1
    zeroed (the caller installs the anchor there). Keying by block index means
    any windowed traversal of the same stream sees identical noise per block,
    which is what makes the windowed, full-sequence, and streaming denoise
    paths comparable bit for bit."""
    z = np.zeros(_check_dims((t, h, w, c)), FLOAT)
    pcg64_state = _pcg64_seeder(rng.seed, rng.key + (SUB_INIT_NOISE,))
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    for i in range(2, t + 1):
        # same bits as rng.split(SUB_INIT_NOISE, i).normal((h, w, c))
        bits.state = pcg64_state(i)
        gen.standard_normal(dtype=FLOAT, out=z[i - 1])
    return z


# numpy's SeedSequence (a pool of four u32 words) and PCG64 seeding, in
# Python integers. Part of the stream format, like the keys above.
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _u32_words(x: int) -> list[int]:
    """SeedSequence's coercion of a nonnegative int: little-endian u32 words."""
    words = [x & _M32]
    while x := x >> 32:
        words.append(x & _M32)
    return words


def _hashmix(value: int, hc: int) -> tuple[int, int]:
    """(hashed value, next hash constant)."""
    value ^= hc
    hc = hc * _MULT_A & _M32
    value = value * hc & _M32
    return value ^ value >> 16, hc


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _hash_constants(hc: int, mult: int, n: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) pairs that n successive hashes starting from
    hash constant hc apply; they do not depend on the hashed data."""
    out = []
    for _ in range(n):
        out.append((hc, hc * mult & _M32))
        hc = out[-1][1]
    return out


def _pcg64_seeder(seed: int, prefix: tuple[int, ...]):
    """word -> the state dict of PCG64(SeedSequence(seed, spawn_key=prefix +
    (word,))) for a one-word (u32) last key, bit for bit.

    The pool after every entropy word but the last is computed once; the last
    word then costs four hash-and-mix steps, the eight state words of
    generate_state(4, uint64) and the 128-bit PCG64 set-seed, unrolled.
    """
    run = _u32_words(seed)
    run += [0] * (4 - len(run))  # numpy pads the seed to the pool size under a spawn key
    words = run + [w for k in prefix for w in _u32_words(k)]
    hc = _INIT_A
    pool = []
    for w in words[:4]:
        v, hc = _hashmix(w, hc)
        pool.append(v)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v, hc = _hashmix(pool[src], hc)
                pool[dst] = _mix(pool[dst], v)
    for w in words[4:]:
        for dst in range(4):
            v, hc = _hashmix(w, hc)
            pool[dst] = _mix(pool[dst], v)
    (x0, m0), (x1, m1), (x2, m2), (x3, m3) = _hash_constants(hc, _MULT_A, 4)
    l0, l1, l2, l3 = (_MIX_L * p for p in pool)  # the pool's half of _mix
    (a0, b0), (a1, b1), (a2, b2), (a3, b3), (a4, b4), (a5, b5), (a6, b6), (a7, b7) = \
        _hash_constants(_INIT_B, _MULT_B, 8)
    M, R = _M32, _MIX_R

    def state(word: int) -> dict:
        v = (word ^ x0) * m0 & M
        q0 = (l0 - R * (v ^ v >> 16)) & M
        v = (word ^ x1) * m1 & M
        q1 = (l1 - R * (v ^ v >> 16)) & M
        v = (word ^ x2) * m2 & M
        q2 = (l2 - R * (v ^ v >> 16)) & M
        v = (word ^ x3) * m3 & M
        q3 = (l3 - R * (v ^ v >> 16)) & M
        q0, q1, q2, q3 = q0 ^ q0 >> 16, q1 ^ q1 >> 16, q2 ^ q2 >> 16, q3 ^ q3 >> 16
        s0, s1 = (q0 ^ a0) * b0 & M, (q1 ^ a1) * b1 & M
        s2, s3 = (q2 ^ a2) * b2 & M, (q3 ^ a3) * b3 & M
        s4, s5 = (q0 ^ a4) * b4 & M, (q1 ^ a5) * b5 & M
        s6, s7 = (q2 ^ a6) * b6 & M, (q3 ^ a7) * b7 & M
        # u64 words are little-endian u32 pairs; set-seed takes (high, low)
        init = ((s1 ^ s1 >> 16) << 96 | (s0 ^ s0 >> 16) << 64
                | (s3 ^ s3 >> 16) << 32 | s2 ^ s2 >> 16)
        inc = ((s5 ^ s5 >> 16) << 97 | (s4 ^ s4 >> 16) << 65 | (s7 ^ s7 >> 16) << 33
               | (s6 ^ s6 >> 16) << 1 | 1) & _M128
        return {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                "state": {"state": ((inc + init) * _PCG_MULT + inc) & _M128, "inc": inc}}

    return state


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


def resize_spatial(video: np.ndarray, mode: str, factor: int) -> np.ndarray:
    """Spatial resize of a (T, H, W, C) pixel video.

    ``down_avg`` takes non-overlapping factor×factor block means (H and W must
    be divisible by factor) with ``cell_means``, which for C >= 2 equals
    numpy's float32 mean of each cell bit for bit; ``up_nearest`` replicates
    each pixel factor×factor. Values stay in [0, 1] for inputs in [0, 1].
    """
    v = as_f32(video, "video")
    if v.ndim != 4:
        raise ValueError(f"expected (T,H,W,C) video, got shape {v.shape}")
    factor = int(factor)
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if factor == 1:
        return v.copy()
    t, h, w, c = v.shape
    if mode == "down_avg":
        if h % factor or w % factor:
            raise ValueError(f"extents {h}x{w} not divisible by factor {factor}")
        return cell_means(v.reshape(t, h // factor, factor, w // factor, factor, c))
    if mode == "up_nearest":
        return np.repeat(np.repeat(v, factor, axis=1), factor, axis=2)
    raise ValueError(f"unknown resize mode {mode!r}")


def write_siv1(path, arr: np.ndarray) -> None:
    """Write a 4-D float32 tensor as an SIV1 file.

    Layout: magic ``SIV1``, five little-endian u32 (the four extents and a
    zero reserved word), then the row-major little-endian float32 payload.
    The same container stores pixel videos (T,H,W,C) and latents (t,h,w,c).
    """
    a = as_f32(arr, "tensor")
    if a.ndim != 4:
        raise ValueError(f"SIV1 stores 4-D tensors, got shape {a.shape}")
    _check_dims(a.shape)
    path = Path(path)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(SIV1_MAGIC, *a.shape, 0))
        f.write(np.ascontiguousarray(a, dtype="<f4").data)


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
