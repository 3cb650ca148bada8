"""Toy 3D latent codec: first frame as its own block, temporal grouping,
spatial mean pooling, and a fixed orthonormal channel lift.

A (T, H, W, 3) video maps to (t, h, w, c) with t = 1 + (T−1)/f_t,
h = H/f_s, w = W/f_s. Block 1 derives from frame 1 alone; block i (i ≥ 2)
derives from frames (i−2)·f_t+2 .. (i−1)·f_t+1 (1-based, inclusive). The
channel lift is a seeded c×3 matrix with orthonormal columns, so decoding
inverts it exactly and codec fidelity is just the pooling projection.

Block indices are 1-based throughout this package (block 1 is the anchor).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import FLOAT, Rng, SUB_PARAMS, as_f32, cell_means


@dataclass(frozen=True)
class CodecConfig:
    f_s: int = 4          # spatial pooling factor
    f_t: int = 4          # frames per non-anchor block
    c: int = 4            # latent channels, >= 3 for an exact lift inverse
    lift_seed: int = 0x11F7

    def __post_init__(self):
        if self.f_s < 1 or self.f_t < 1:
            raise ValueError(f"factors must be >= 1, got f_s={self.f_s} f_t={self.f_t}")
        if self.c < 3:
            raise ValueError(f"latent channels must be >= 3, got {self.c}")


@lru_cache(maxsize=None)
def channel_lift(cfg: CodecConfig) -> np.ndarray:
    """Seeded (c, 3) matrix with orthonormal columns; left inverse is its transpose."""
    g = Rng(cfg.lift_seed).split(SUB_PARAMS)
    m = g.normal((cfg.c, 3)).astype(np.float64)
    q, r = np.linalg.qr(m)
    q = q * np.sign(np.diag(r))  # fix the sign convention so the lift is seed-stable
    return q.astype(FLOAT)


def num_blocks(T: int, f_t: int) -> int:
    if T < 1:
        raise ValueError(f"frame count must be >= 1, got {T}")
    if (T - 1) % f_t:
        raise ValueError(f"(T-1)={T - 1} not divisible by f_t={f_t}")
    return 1 + (T - 1) // f_t


def frames_for_block(i: int, f_t: int) -> tuple[int, int]:
    """Inclusive 1-based frame range covered by block i (i is 1-based)."""
    if i < 1:
        raise ValueError(f"block index must be >= 1, got {i}")
    if i == 1:
        return (1, 1)
    return ((i - 2) * f_t + 2, (i - 1) * f_t + 1)


def latent_shape(T: int, H: int, W: int, cfg: CodecConfig) -> tuple[int, int, int, int]:
    if H % cfg.f_s or W % cfg.f_s:
        raise ValueError(f"{H}x{W} not divisible by f_s={cfg.f_s}")
    return (num_blocks(T, cfg.f_t), H // cfg.f_s, W // cfg.f_s, cfg.c)


def video_shape(t: int, h: int, w: int, cfg: CodecConfig) -> tuple[int, int, int, int]:
    """(T, H, W, 3) of the video that t latent blocks of h x w decode to."""
    return (1 + (t - 1) * cfg.f_t, h * cfg.f_s, w * cfg.f_s, 3)


def group_means(video: np.ndarray, f_t: int) -> np.ndarray:
    """(t-1, H, W, C): frames 2..T averaged in consecutive groups of f_t, one
    per block 2..t."""
    T, H, W, C = video.shape
    t = num_blocks(T, f_t)
    return video[1:].reshape(t - 1, f_t, H, W, C).mean(axis=1, dtype=FLOAT)


def pool_and_lift(frames: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """(n, H, W, 3) frames, one per block, to (n, h, w, c) latents: f_s x f_s
    spatial mean pooling, then the channel lift.

    The pooling is ``grid.cell_means``: each cell's taps are added in
    row-major order, which for C-contiguous frames is the order numpy's
    float32 mean over the two tap axes adds in, so the bits equal that mean."""
    n, H, W, _ = frames.shape
    f = cfg.f_s
    return cell_means(frames.reshape(n, H // f, f, W // f, f, 3)) @ channel_lift(cfg).T


def encode(video: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Encode a (T, H, W, 3) video to (t, h, w, c) latents."""
    v = as_f32(video, "video")
    if v.ndim != 4 or v.shape[3] != 3:
        raise ValueError(f"expected (T,H,W,3) video, got shape {v.shape}")
    T, H, W, _ = v.shape
    t, h, w, c = latent_shape(T, H, W, cfg)
    out = np.empty((t, h, w, c), dtype=FLOAT)
    out[0] = pool_and_lift(v[:1], cfg)[0]
    if t > 1:
        out[1:] = pool_and_lift(group_means(v, cfg.f_t), cfg)
    return out


def decode_block(block: np.ndarray, cfg: CodecConfig, first: bool,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Decode one (h, w, c) latent block to its frames (1 or f_t of them).

    The frames are written into ``out`` when given, a C-contiguous
    (n, h·f_s, w·f_s, 3) float32 array such as a slice of the video, and
    returned; otherwise into a new array.
    """
    h, w, _ = block.shape
    f = cfg.f_s
    shape = (1 if first else cfg.f_t, h * f, w * f, 3)
    if out is None:
        out = np.empty(shape, FLOAT)
    elif out.shape != shape or out.dtype != FLOAT or not out.flags.c_contiguous:
        raise ValueError(f"decode target must be C-contiguous {shape} float32, "
                         f"got {out.shape} {out.dtype}")
    # exact left inverse of the lift; clamping is elementwise, so clamping
    # before the spatial repeat and the frame copies gives the same bits.
    # np.clip, not maximum/minimum: those differ from it on -0.0.
    rgb = block @ channel_lift(cfg)
    np.clip(rgb, 0.0, 1.0, out=rgb)
    out.reshape(shape[0], h, f, w, f, 3)[0] = rgb[:, None, :, None]  # a view: out is contiguous
    out[1:] = out[0]
    return out


def decode(latent: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """Decode (t, h, w, c) latents to a (T, H, W, 3) video clamped to [0, 1],
    block by block into one video array."""
    z = as_f32(latent, "latent")
    if z.ndim != 4:
        raise ValueError(f"expected (t,h,w,c) latent, got shape {z.shape}")
    if z.shape[3] != cfg.c:
        raise ValueError(f"latent has {z.shape[3]} channels, config expects {cfg.c}")
    t, h, w, _ = z.shape
    video = np.empty(video_shape(t, h, w, cfg), FLOAT)
    decode_block(z[0], cfg, first=True, out=video[:1])
    for i in range(2, t + 1):
        lo, hi = frames_for_block(i, cfg.f_t)
        decode_block(z[i - 1], cfg, first=False, out=video[lo - 1:hi])
    return video
