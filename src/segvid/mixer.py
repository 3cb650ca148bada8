"""Toy windowed denoiser: per-block linear embedding, one head of scaled
dot-product attention across the blocks of a window (bidirectional or causal
mask), residual connection, linear readout to a velocity prediction.

The model predicts the rectified-flow velocity v = eps - x0 on the linear
path x_sigma = (1-sigma)*x0 + sigma*eps, and the sampler takes Euler steps
z <- z + (sigma_to - sigma_from) * v_hat. Gradients are hand-derived; the
whole module is dtype-generic so tests can run the same code in float64 for
finite-difference checks while the pipeline stays float32.

Conditioning enters additively: a fixed sinusoidal code of the noise level
and a fixed sinusoidal positional code of each block's absolute temporal
index (windows are non-contiguous, so window-relative positions would alias).
Both codes are tabled rather than recomputed per forward pass: position codes
live in a read-only per-(d, dtype) table whose rows are `sin_code` rows, a
window's rows of it are gathered once per index tuple into a small bounded
cache (a window runs every step of its sigma ladder on the same indices),
and noise-level codes sit in another such cache, so the bits equal
`sin_code`'s.

Both pipeline stages are this denoiser. A stage model is the mixer parameters
plus the codec and sigma schedule it was trained with; a stage differs from
the other only in its window policy (which blocks, which reference). The
shared pieces live here: the seeded initial latents, the full-window denoise,
the teacher-forced window loss that is `denoise_window`'s training twin, the
training loop with its divergence guard, the evaluation loss, and the
checkpoint files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .codec import CodecConfig
from .grid import (FLOAT, SUB_TRAIN, Rng, init_noise_blocks, read_siv1, require_finite,
                   write_siv1)

MASK_MODES = ("bidirectional", "causal")


@dataclass
class MixerParams:
    w_in: np.ndarray    # (d_in, d)
    w_q: np.ndarray     # (d, d)
    w_k: np.ndarray     # (d, d)
    w_v: np.ndarray     # (d, d)
    w_out: np.ndarray   # (d, d_out)
    d: int
    mask_mode: str

    @property
    def d_in(self) -> int:
        return self.w_in.shape[0]

    @property
    def d_out(self) -> int:
        return self.w_out.shape[1]

    def check(self):
        if self.mask_mode not in MASK_MODES:
            raise ValueError(f"mask_mode must be one of {MASK_MODES}, got {self.mask_mode!r}")
        d = self.d
        if self.w_in.shape[1] != d or self.w_out.shape[0] != d:
            raise ValueError("embedding/readout width disagrees with d")
        for name in ("w_q", "w_k", "w_v"):
            if getattr(self, name).shape != (d, d):
                raise ValueError(f"{name} must be ({d},{d})")
        for name in ("w_in", "w_q", "w_k", "w_v", "w_out"):
            require_finite(getattr(self, name), name)

    def finite(self) -> bool:
        return all(np.isfinite(getattr(self, name)).all() for name in _MATS)

    def astype(self, dtype) -> "MixerParams":
        return replace(self, w_in=self.w_in.astype(dtype), w_q=self.w_q.astype(dtype),
                       w_k=self.w_k.astype(dtype), w_v=self.w_v.astype(dtype),
                       w_out=self.w_out.astype(dtype))


_MATS = ("w_in", "w_q", "w_k", "w_v", "w_out")


def init_mixer(rng: Rng, d_in: int, d_out: int, d: int = 32,
               mask_mode: str = "bidirectional",
               zero_rows: np.ndarray | None = None) -> MixerParams:
    """Random small init, N(0, 1/fan_in). `zero_rows` zeroes the named rows of
    w_in so the corresponding input channels start inert (see conditioning)."""
    if d % 2:
        raise ValueError(f"hidden width must be even for the sinusoid codes, got {d}")
    mats = {}
    for name, shape in (("w_in", (d_in, d)), ("w_q", (d, d)), ("w_k", (d, d)),
                        ("w_v", (d, d)), ("w_out", (d, d_out))):
        g = rng.split(ord(name[2]), shape[0], shape[1])
        mats[name] = g.normal(shape) / np.sqrt(FLOAT(shape[0]))
    if zero_rows is not None:
        mats["w_in"][np.asarray(zero_rows)] = 0.0
    p = MixerParams(d=d, mask_mode=mask_mode, **mats)
    p.check()
    return p


def ref_rows(h: int, w: int, c: int) -> np.ndarray:
    """Rows of w_in fed by the reference half under denoise_window's packing
    (per-pixel channel layout [noisy c | reference c])."""
    base = np.arange(h * w) * (2 * c)
    return (base[:, None] + np.arange(c, 2 * c)[None, :]).ravel()


def sin_code(x: float, d: int, dtype=FLOAT) -> np.ndarray:
    """Fixed sinusoidal code of a scalar, standard geometric frequency ladder."""
    half = d // 2
    freqs = 10000.0 ** (-np.arange(half, dtype=np.float64) / half)
    ang = float(x) * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)]).astype(dtype)


@lru_cache(maxsize=64)
def _level_code(x: float, d: int, dtype) -> np.ndarray:
    # Bounded: training draws a fresh continuous sigma every step.
    code = sin_code(x, d, dtype)
    code.flags.writeable = False
    return code


@lru_cache(maxsize=None)
def _pos_table(rows: int, d: int, dtype) -> np.ndarray:
    # Row i-1 is sin_code(i). Asked for power-of-two row counts only, so a
    # longer video gets a new, larger table and a published table never
    # changes under the streamer's producer thread.
    table = np.stack([sin_code(float(i), d, dtype) for i in range(1, rows + 1)], axis=0)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=256)
def _window_pos_codes(indices: tuple, d: int, dtype) -> np.ndarray:
    # Bounded: training and long videos visit many windows, each briefly.
    ix = np.asarray(indices)
    if ix.dtype.kind not in "iu" or ix.min() < 1:
        raise ValueError(f"block indices must be integers >= 1, got {indices}")
    rows = 1 << max(6, (int(ix.max()) - 1).bit_length())
    codes = _pos_table(rows, d, dtype)[ix - 1]
    codes.flags.writeable = False
    return codes


def _pos_codes(indices, d: int, dtype) -> np.ndarray:
    """Position-code rows of the 1-based block indices, sin_code's bits."""
    return _window_pos_codes(indices if type(indices) is tuple else tuple(indices), d, dtype)


def _embed(p: MixerParams, x: np.ndarray, sigma: float, indices) -> np.ndarray:
    n = x.shape[0]
    if indices is None:
        indices = range(1, n + 1)
    dt = p.w_in.dtype
    h = x @ p.w_in
    h = h + _level_code(float(1000.0 * sigma), p.d, dt)[None, :]
    return h + _pos_codes(indices, p.d, dt)


def _attend(p: MixerParams, h: np.ndarray):
    n = h.shape[0]
    dt = h.dtype
    q, k, v = h @ p.w_q, h @ p.w_k, h @ p.w_v
    scale = dt.type(1.0) / np.sqrt(dt.type(p.d))
    logits = (q @ k.T) * scale
    if p.mask_mode == "causal":
        keep = np.tril(np.ones((n, n), dtype=bool))
        logits = np.where(keep, logits, dt.type(-np.inf))
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    attn = e / e.sum(axis=1, keepdims=True)
    return q, k, v, attn, scale


def _forward_cache(p: MixerParams, window_blocks: np.ndarray, sigma: float, indices):
    x = np.asarray(window_blocks, dtype=p.w_in.dtype)
    if x.ndim != 2 or x.shape[1] != p.d_in:
        raise ValueError(f"window blocks must be (n, {p.d_in}), got {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("window must contain at least one block")
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"sigma must lie in [0,1], got {sigma}")
    h = _embed(p, x, sigma, indices)
    q, k, v, attn, scale = _attend(p, h)
    r = h + attn @ v
    y = r @ p.w_out
    return y, (x, h, q, k, v, attn, scale, r)


def forward(p: MixerParams, window_blocks: np.ndarray, sigma: float,
            indices=None) -> np.ndarray:
    """Velocity predictions, one (d_out,) row per window block.

    `indices` are the blocks' absolute 1-based temporal positions; defaults
    to 1..n for tests that do not care.
    """
    y, _ = _forward_cache(p, window_blocks, sigma, indices)
    return y


def loss_and_grad(p: MixerParams, window_blocks: np.ndarray, clean_targets: np.ndarray,
                  noisy_mask: np.ndarray, sigma: float, eps: np.ndarray,
                  indices=None):
    """Masked flow-matching loss and analytic parameter gradients.

    loss = mean over noisy blocks of ||v_hat - (eps - x0)||^2. Blocks with
    noisy_mask False are teacher-forced conditioning; their loss rows are
    dropped, so their terms contribute exactly zero gradient.
    """
    mask = np.asarray(noisy_mask, dtype=bool)
    if not mask.any():
        raise ValueError("noisy_mask selects no blocks; loss undefined")
    y, (x, h, q, k, v, attn, scale, r) = _forward_cache(p, window_blocks, sigma, indices)
    dt = y.dtype
    tgt = np.asarray(eps, dt) - np.asarray(clean_targets, dt)
    n_noisy = int(mask.sum())

    resid = np.where(mask[:, None], y - tgt, dt.type(0.0))
    loss = float((resid * resid).sum()) / n_noisy

    d_y = (dt.type(2.0) / dt.type(n_noisy)) * resid
    g_out = r.T @ d_y
    d_r = d_y @ p.w_out.T
    d_h = d_r.copy()                      # residual branch
    d_attn = d_r @ v.T
    g_v_in = attn.T @ d_r                 # grad wrt v rows
    d_logits = attn * (d_attn - (d_attn * attn).sum(axis=1, keepdims=True))
    d_q = (d_logits @ k) * scale
    d_k = (d_logits.T @ q) * scale
    d_h += d_q @ p.w_q.T + d_k @ p.w_k.T + g_v_in @ p.w_v.T
    grads = {
        "w_out": g_out,
        "w_q": h.T @ d_q,
        "w_k": h.T @ d_k,
        "w_v": h.T @ g_v_in,
        "w_in": x.T @ d_h,
    }
    return loss, grads


def sgd_update(p: MixerParams, grads: dict, lr: float = 1e-2) -> None:
    """Plain gradient descent, in place."""
    for name in _MATS:
        m = getattr(p, name)
        m -= m.dtype.type(lr) * grads[name].astype(m.dtype)


@dataclass(frozen=True)
class SigmaSchedule:
    sigmas: tuple[float, ...]

    def __post_init__(self):
        s = self.sigmas
        if len(s) < 2 or s[0] != 1.0 or s[-1] != 0.0:
            raise ValueError(f"schedule must run 1.0 -> 0.0, got {s}")
        if any(b >= a for a, b in zip(s, s[1:])):
            raise ValueError(f"schedule must be strictly decreasing, got {s}")

    @property
    def K(self) -> int:
        return len(self.sigmas) - 1


def default_schedule(K: int = 4) -> SigmaSchedule:
    if K < 1:
        raise ValueError(f"need at least one step, got K={K}")
    return SigmaSchedule(tuple(1.0 - j / K for j in range(K)) + (0.0,))


def uniform_sigmas(start: float, steps: int) -> list[float]:
    """Truncated uniform ladder start -> 0 for partial denoising."""
    if not 0.0 < start <= 1.0:
        raise ValueError(f"start must lie in (0,1], got {start}")
    if steps < 1:
        raise ValueError(f"need steps >= 1, got {steps}")
    return [start * (1.0 - j / steps) for j in range(steps)] + [0.0]


def sampler_step(z: np.ndarray, v_hat: np.ndarray, sigma_from: float, sigma_to: float) -> np.ndarray:
    """One Euler step along the linear path: z + (sigma_to - sigma_from) * v_hat."""
    if sigma_to >= sigma_from:
        raise ValueError(f"need sigma_to < sigma_from, got {sigma_from} -> {sigma_to}")
    if z.shape != v_hat.shape:
        raise ValueError(f"shape mismatch {z.shape} vs {v_hat.shape}")
    return z + (sigma_to - sigma_from) * v_hat


def denoise_window(p: MixerParams, sigmas, z_window: np.ndarray, ref_window: np.ndarray,
                   n_noisy: int, indices, on_step=None) -> np.ndarray:
    """Run the sigma ladder on one window of blocks.

    z_window, ref_window: (n, h, w, c). A window is a read-only conditioning
    prefix followed by its noisy tail, the last n_noisy blocks. The
    [z | ref] input buffer is built once per window; each step refreshes its
    noisy channels, predicts velocities for every block, and applies the
    Euler update to the tail only (the prefix passes through untouched).
    Every denoising path in the package funnels through here, which is what
    makes the sequential / streaming / single-window variants bit-identical.

    on_step(k, z, idx), if given, observes the window after each step.
    """
    z = z_window.copy()
    n, h, w, c = z.shape
    if not 0 <= n_noisy <= n:
        raise ValueError(f"n_noisy must lie in [0, {n}], got {n_noisy}")
    prefix = n - n_noisy
    idx = tuple(indices)
    zr = np.concatenate([z, ref_window], axis=-1)  # [z | ref] per pixel; ref half is fixed
    x = zr.reshape(n, -1)
    for k, (sigma_from, sigma_to) in enumerate(zip(sigmas, sigmas[1:])):
        zr[..., :c] = z
        v_hat = forward(p, x, sigma_from, idx).reshape(n, h, w, c)
        stepped = sampler_step(z, v_hat, sigma_from, sigma_to)
        z[prefix:] = stepped[prefix:]
        if on_step is not None:
            on_step(k, z, idx)
    return z


def save_params(p: MixerParams, out_dir: str) -> None:
    """Matrices as 4D single-channel tensors plus a JSON sidecar."""
    p.check()
    os.makedirs(out_dir, exist_ok=True)
    for name in _MATS:
        m = getattr(p, name).astype(FLOAT)
        write_siv1(os.path.join(out_dir, f"{name}.siv1"), m[None, :, :, None])
    side = {"d": p.d, "mask_mode": p.mask_mode, "matrices": list(_MATS)}
    with open(os.path.join(out_dir, "mixer.json"), "w") as f:
        json.dump(side, f, indent=2)


def load_params(in_dir: str) -> MixerParams:
    with open(os.path.join(in_dir, "mixer.json")) as f:
        side = json.load(f)
    mats = {}
    for name in _MATS:
        arr = read_siv1(os.path.join(in_dir, f"{name}.siv1"))
        mats[name] = arr[0, :, :, 0].copy()
    p = MixerParams(d=int(side["d"]), mask_mode=str(side["mask_mode"]), **mats)
    p.check()
    return p


@dataclass
class StageModel:
    """One pipeline stage: mixer parameters, the codec its latents come from,
    and its sampling schedule."""
    params: MixerParams
    codec_cfg: CodecConfig
    schedule: SigmaSchedule


def new_model(seed: int, height: int, width: int, codec_cfg: CodecConfig, d: int = 32,
              K: int = 4, mask_mode: str = "bidirectional",
              inert_ref: bool = False) -> StageModel:
    """Fresh model for height x width frames; `inert_ref` starts the
    reference rows of w_in at zero (see ref_rows)."""
    h, w, c = height // codec_cfg.f_s, width // codec_cfg.f_s, codec_cfg.c
    params = init_mixer(Rng(seed), d_in=h * w * 2 * c, d_out=h * w * c, d=d,
                        mask_mode=mask_mode,
                        zero_rows=ref_rows(h, w, c) if inert_ref else None)
    return StageModel(params=params, codec_cfg=codec_cfg, schedule=default_schedule(K))


def init_latents(z_x: np.ndarray, t: int, seed: int, key: int) -> np.ndarray:
    """Anchor z_x installed at block 1, blocks 2..t at their seeded initial
    noise. Each stage draws under its own `key`, so the streams never collide."""
    z = init_noise_blocks(Rng(seed).split(key), t, *z_x.shape)
    z[0] = z_x
    return z


def denoise_full(p: MixerParams, sigmas, z: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """All t blocks in one window, block 1 (the anchor) held fixed."""
    t = z.shape[0]
    return denoise_window(p, sigmas, z, ref, t - 1, range(1, t + 1))


def window_loss(p: MixerParams, z_ref: np.ndarray, z0: np.ndarray, indices, n_noisy: int,
                rng: Rng):
    """Teacher-forced loss and gradients on one window: the training twin of
    denoise_window.

    z_ref, z0: (t, h, w, c) reference and clean latents. The window's noisy
    tail, its last n_noisy blocks, moves to a drawn sigma on the path to a
    drawn eps; the conditioning prefix keeps its clean latents. Returns
    (loss, grads).
    """
    n = len(indices)
    mask = np.arange(n) >= n - n_noisy
    sigma = 1.0 - rng.split(1).uniform01()   # U(0, 1]
    eps = rng.split(2).normal((n,) + z0.shape[1:])
    rows = np.asarray(indices) - 1
    clean = z0[rows]
    z_win = np.where(mask[:, None, None, None], (1.0 - sigma) * clean + sigma * eps, clean)
    x = np.concatenate([z_win, z_ref[rows]], axis=-1).reshape(n, -1)
    return loss_and_grad(p, x, clean.reshape(n, -1), mask, sigma, eps.reshape(n, -1),
                         indices=indices)


def train_windows(p: MixerParams, windows, steps: int, seed: int, lr: float, stage: int):
    """SGD, one window per step. windows(step, rng) gives the step's
    (z_ref, z0, indices, n_noisy, extra); the log row is (step, loss, *extra).
    Raises FloatingPointError, naming the stage and step, if training
    diverges."""
    g = Rng(seed).split(SUB_TRAIN)
    log = []
    for step in range(steps):
        rng = g.split(step)
        *window, extra = windows(step, rng)
        loss, grads = window_loss(p, *window, rng)
        sgd_update(p, grads, lr)
        if not math.isfinite(loss):
            raise FloatingPointError(f"stage {stage} training diverged: loss {loss} at step {step}")
        log.append((step, loss, *extra))
    if not p.finite():
        raise FloatingPointError(
            f"stage {stage} training diverged: parameters non-finite after step {steps - 1}")
    return log


def eval_windows(p: MixerParams, windows, seed: int, draws: int) -> float:
    """Mean window loss over seeded draws of windows(draw, rng); no update."""
    g = Rng(seed).split(SUB_TRAIN)
    tot = 0.0
    for j in range(draws):
        rng = g.split(j)
        *window, _ = windows(j, rng)
        tot += window_loss(p, *window, rng)[0]
    return tot / draws


def save_model(model: StageModel, out_dir: str, name: str) -> None:
    """Checkpoint: the mixer files plus <name>.json (codec config, sigmas)."""
    save_params(model.params, out_dir)
    cfg = model.codec_cfg
    doc = {"f_s": cfg.f_s, "f_t": cfg.f_t, "c": cfg.c, "lift_seed": cfg.lift_seed,
           "sigmas": list(model.schedule.sigmas)}
    with open(os.path.join(out_dir, f"{name}.json"), "w") as f:
        json.dump(doc, f, indent=2)


def load_model(in_dir: str, name: str) -> StageModel:
    with open(os.path.join(in_dir, f"{name}.json")) as f:
        doc = json.load(f)
    cfg = CodecConfig(f_s=doc["f_s"], f_t=doc["f_t"], c=doc["c"], lift_seed=doc["lift_seed"])
    return StageModel(params=load_params(in_dir), codec_cfg=cfg,
                      schedule=SigmaSchedule(tuple(doc["sigmas"])))
