"""Synthetic video corpus with exactly known ground-truth motion.

Each clip is a seeded base pattern advected by a constant per-frame velocity
with periodic wrap: frame τ (1-based) equals the base pattern translated by
(τ−1)·velocity. Integer velocities are implemented as exact circular shifts,
so the motion is recoverable bit-for-bit by a shift oracle; fractional
velocities fall back to bilinear sampling on the torus. The motif name picks
the base pattern, not the dynamics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import stage1
from .codec import CodecConfig, latent_shape
from .grid import FLOAT, Rng, SUB_SCENE, write_siv1, read_siv1

MOTIFS = ("translating_checker", "rotating_gradient", "bouncing_blob")


@dataclass(frozen=True)
class SceneSpec:
    """One synthetic clip: seed, extents, base pattern, and velocity.

    ``validate`` checks that the clip encodes under a codec config.
    """

    seed: int
    T: int = 17
    H: int = 32
    W: int = 32
    motif: str = "translating_checker"
    velocity: tuple[float, float] = (1.0, 0.0)  # (dy, dx) pixels per frame

    def validate(self, cfg: CodecConfig = CodecConfig()) -> None:
        if self.T < 1 or self.H < 1 or self.W < 1:
            raise ValueError(f"extents must be positive: T={self.T} H={self.H} W={self.W}")
        latent_shape(self.T, self.H, self.W, cfg)
        if self.motif not in MOTIFS:
            raise ValueError(f"unknown motif {self.motif!r}")


def _checker(rng: Rng, h: int, w: int) -> np.ndarray:
    # Cell size tied to the frame so a 4x4 grid of cells survives the codec's
    # two rounds of 4x pooling; per-cell shades (not two-tone parity) keep the
    # shift-correlation peak unique instead of tied across the period.
    cell = max(4, min(h, w) // 4)
    gh, gw = -(-h // cell), -(-w // cell)
    frame = np.empty((h, w, 3), dtype=FLOAT)
    for ch in range(3):
        shades = np.empty((gh, gw), dtype=FLOAT)
        for i in range(gh):
            for j in range(gw):
                shades[i, j] = 0.1 + 0.8 * rng.uniform01()
        frame[:, :, ch] = np.repeat(np.repeat(shades, cell, 0), cell, 1)[:h, :w]
    return frame


def _gradient(rng: Rng, h: int, w: int) -> np.ndarray:
    # Oriented sinusoid; orientation and phase vary per seed and channel.
    yy, xx = np.meshgrid(np.arange(h) / h, np.arange(w) / w, indexing="ij")
    frame = np.empty((h, w, 3), dtype=FLOAT)
    theta = 2 * np.pi * rng.uniform01()
    for ch in range(3):
        phase = 2 * np.pi * rng.uniform01()
        ang = theta + ch * np.pi / 3
        wave = np.sin(2 * np.pi * (np.cos(ang) * xx + np.sin(ang) * yy) + phase)
        frame[:, :, ch] = (0.5 + 0.45 * wave).astype(FLOAT)
    return frame


def _blob(rng: Rng, h: int, w: int) -> np.ndarray:
    cy = h * rng.uniform01()
    cx = w * rng.uniform01()
    sigma = 0.12 * min(h, w) + 0.1 * min(h, w) * rng.uniform01()
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    # Periodic distance so the blob wraps seamlessly when advected.
    dy = np.minimum(np.abs(yy - cy), h - np.abs(yy - cy))
    dx = np.minimum(np.abs(xx - cx), w - np.abs(xx - cx))
    bump = np.exp(-(dy**2 + dx**2) / (2 * sigma**2))
    frame = np.empty((h, w, 3), dtype=FLOAT)
    for ch in range(3):
        amp = 0.5 + 0.4 * rng.uniform01()
        frame[:, :, ch] = (0.08 + amp * bump).astype(FLOAT)
    return np.clip(frame, 0.0, 1.0)


_PATTERNS = {
    "translating_checker": _checker,
    "rotating_gradient": _gradient,
    "bouncing_blob": _blob,
}


def _advect(base: np.ndarray, dy: float, dx: float) -> np.ndarray:
    """Translate by (dy, dx) with periodic wrap; exact for integer shifts."""
    h, w = base.shape[:2]
    if dy == int(dy) and dx == int(dx):
        return np.roll(base, (int(dy), int(dx)), axis=(0, 1))
    yy, xx = np.meshgrid(np.arange(h, dtype=np.float64) - dy,
                         np.arange(w, dtype=np.float64) - dx, indexing="ij")
    y0 = np.floor(yy).astype(int)
    x0 = np.floor(xx).astype(int)
    fy = (yy - y0).astype(FLOAT)[..., None]
    fx = (xx - x0).astype(FLOAT)[..., None]
    p00 = base[y0 % h, x0 % w]
    p01 = base[y0 % h, (x0 + 1) % w]
    p10 = base[(y0 + 1) % h, x0 % w]
    p11 = base[(y0 + 1) % h, (x0 + 1) % w]
    top = p00 * (1 - fx) + p01 * fx
    bot = p10 * (1 - fx) + p11 * fx
    return (top * (1 - fy) + bot * fy).astype(FLOAT)


def render_scene(spec: SceneSpec, cfg: CodecConfig = CodecConfig()) -> np.ndarray:
    """Render the clip described by spec as a (T, H, W, 3) video in [0, 1]."""
    spec.validate(cfg)
    rng = Rng(spec.seed).split(SUB_SCENE)
    base = _PATTERNS[spec.motif](rng, spec.H, spec.W)
    dy, dx = spec.velocity
    frames = [_advect(base, (tau - 1) * dy, (tau - 1) * dx) for tau in range(1, spec.T + 1)]
    video = np.stack(frames).astype(FLOAT)
    return np.clip(video, 0.0, 1.0)


def write_corpus(out_dir, specs: list[SceneSpec], cfg: CodecConfig = CodecConfig()) -> Path:
    """Render every spec into out_dir and write the manifest; returns its path.
    Nothing is written unless every spec encodes in both stages, stage 2
    the clips (``validate``), stage 1 their LR video (``lr_size``), and all
    specs share the first one's frame size, as ``load_corpus`` requires."""
    for i, spec in enumerate(specs):
        spec.validate(cfg)
        try:
            stage1.lr_size(spec.H, spec.W, cfg)
        except ValueError as e:
            raise ValueError(f"corpus {e}") from None
        if (spec.H, spec.W) != (specs[0].H, specs[0].W):
            raise ValueError(f"corpus clip {i} is {spec.H}x{spec.W}, the first clip "
                             f"{specs[0].H}x{specs[0].W}: a corpus holds one frame size")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for i, spec in enumerate(specs):
        name = f"clip_{i:04d}.siv1"
        write_siv1(out / name, render_scene(spec, cfg))
        rec = asdict(spec)
        rec["velocity"] = list(spec.velocity)
        rec["file"] = name
        records.append(rec)
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps(records, indent=2))
    return manifest


# A manifest record's keys and the JSON types of their values: SceneSpec's
# fields and the clip's file name. velocity is a pair of numbers.
_RECORD = {"seed": int, "T": int, "H": int, "W": int, "motif": str, "velocity": list,
           "file": str}


def _check_record(rec, i: int, where: str) -> None:
    """A one-line ValueError naming where, record i and the key unless rec
    is a manifest record of a SceneSpec (a bool is no int)."""
    if type(rec) is not dict:
        raise ValueError(f"{where}: record {i} must be a JSON object, got {json.dumps(rec)}")
    for key, want in _RECORD.items():
        if key not in rec:
            raise ValueError(f"{where}: record {i} lacks key {key!r}")
        v = rec[key]
        if type(v) is not want:
            raise ValueError(f"{where}: record {i} key {key!r} expects {want.__name__}, "
                             f"got {json.dumps(v)}")
    vel = rec["velocity"]
    if len(vel) != 2 or any(type(v) not in (int, float) or not math.isfinite(v) for v in vel):
        raise ValueError(f"{where}: record {i} key 'velocity' expects two finite numbers, "
                         f"got {json.dumps(vel)}")
    if rec["motif"] not in MOTIFS:
        raise ValueError(f"{where}: record {i} key 'motif' expects one of {MOTIFS}, "
                         f"got {json.dumps(rec['motif'])}")


def load_corpus(corpus_dir) -> list[tuple[SceneSpec, np.ndarray]]:
    """Load (spec, video) pairs from a corpus directory written by write_corpus.
    The manifest is checked whole before any clip is read (a list of records
    of SceneSpec's keys and types, see _check_record); a clip whose extents
    differ from its record or the first clip's is refused."""
    corpus_dir = Path(corpus_dir)
    manifest = corpus_dir / "manifest.json"
    records = json.loads(manifest.read_text())
    if type(records) is not list:
        raise ValueError(f"{manifest}: expects a JSON list of clip records, "
                         f"got {type(records).__name__}")
    if not records:
        raise ValueError(f"corpus {corpus_dir} holds no clips")
    for i, rec in enumerate(records):
        _check_record(rec, i, str(manifest))
    out = []
    for rec in records:
        spec = SceneSpec(seed=rec["seed"], T=rec["T"], H=rec["H"], W=rec["W"],
                         motif=rec["motif"], velocity=tuple(rec["velocity"]))
        path = corpus_dir / rec["file"]
        video = read_siv1(path)
        if video.shape != (spec.T, spec.H, spec.W, 3):
            raise ValueError(f"{path}: clip is {video.shape}, its manifest record says "
                             f"{(spec.T, spec.H, spec.W, 3)}")
        if out and video.shape[1:] != out[0][1].shape[1:]:
            raise ValueError(f"{path}: frames {video.shape[1:3]} differ from the first "
                             f"clip's {out[0][1].shape[1:3]}")
        out.append((spec, video))
    return out


def default_specs(n: int, base_seed: int, T: int = 17, H: int = 32, W: int = 32,
                  motif: str = "translating_checker") -> list[SceneSpec]:
    """n clips of one motif with varied seeds and codec-exact velocities.

    Velocities are multiples of 4 px/frame so one temporal block of motion is
    one spatial pooling cell: the pooled latents then shift by whole cells and
    the motion survives encode/decode exactly, keeping it oracle-recoverable.
    """
    vels = [(4.0, 0.0), (0.0, 4.0), (4.0, 4.0), (-4.0, 0.0), (0.0, -4.0), (4.0, -4.0)]
    return [
        SceneSpec(seed=base_seed + i, T=T, H=H, W=W, motif=motif,
                  velocity=vels[i % len(vels)])
        for i in range(n)
    ]
