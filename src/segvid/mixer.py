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
`sin_code`'s. The attention scale is cached per (d, dtype) and the causal
mask per window length.

The five matrices are views of one contiguous buffer (MixerParams.flat, in
_MATS order), and w_qkv views w_q|w_k|w_v as one (3, d, d) stack. So the
forward pass projects once, h @ w_qkv; the backward pass writes d_q|d_k|d_v
into one (3, n, d) buffer, takes the three d_h terms in one stacked product
and writes all five gradients into one buffer laid out like the parameters;
and an SGD step writes lr * g into a buffer like it and subtracts that.

Every pass runs in a Workspace, the buffers of one window length: the
embedding, the q|k|v stack, the logits and their row-reduction column, the
residual stream and the readout, and for loss_and_grad the backward buffers
and the gradient buffer. Every product writes into them with out= and every
reduction into its buffer, and the embedding and softmax work in place. A
forward or loss_and_grad call without one gets a fresh one, so its result
is its own; the loops own theirs: stage2.infer_csg one per window length
per request, denoise_full one per call, train_windows and eval_windows one
per window length per run, all of a run's sharing one gradient buffer. The
stacked and out= products give the bits of separate, fresh per-matrix
products, which a test checks for the BLAS in use. No workspace or buffer
is kept at module level: the streamer's producer thread runs windows too,
and so may concurrent requests.

denoise_window runs a window in place in a caller's [z | ref] input buffer,
checked once per window: each step writes the window's tail back into the
buffer's z channels as whole pixels (grid.pixel_views), and the
conditioning prefix and the reference half stay as the caller built them.
A stage-2 request's latents live in the z half of one packed (t, h, w, 2c)
buffer of this layout, from which each segment gathers its window's rows
(see stage2.infer_csg); denoise_full builds its one window by
concatenation. Training assembles each window into a Window of input rows;
stage 1's, the whole clip, is assembled once per clip per run, and a step
rewrites only its noisy tail.

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
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .codec import CodecConfig, latent_shape
from .grid import (FLOAT, SUB_TRAIN, Rng, init_noise_blocks, pixel_views, read_siv1,
                   require_finite, write_siv1)

MASK_MODES = ("bidirectional", "causal")


_MATS = ("w_in", "w_q", "w_k", "w_v", "w_out")


def _views(flat: np.ndarray, d_in: int, d: int):
    """The five matrices, in _MATS order, and the (3, d, d) w_q|w_k|w_v
    block, as views of a buffer packed in that order."""
    a, b = d_in * d, (d_in + 3 * d) * d
    qkv = flat[a:b].reshape(3, d, d)
    return (flat[:a].reshape(d_in, d), *qkv, flat[b:].reshape(d, -1)), qkv


@dataclass(frozen=True)
class MixerParams:
    """The mixer's matrices, packed: construction copies them, in _MATS
    order, into one contiguous buffer `flat`, and each matrix attribute is a
    view of it; `w_qkv` views w_q|w_k|w_v as one (3, d, d) stack. Frozen, so
    no matrix can be rebound away from the buffer. Every copy (astype,
    dataclasses.replace, copy.deepcopy, load_params) is a new construction,
    so it owns its own buffer with the views linked."""
    w_in: np.ndarray    # (d_in, d)
    w_q: np.ndarray     # (d, d)
    w_k: np.ndarray     # (d, d)
    w_v: np.ndarray     # (d, d)
    w_out: np.ndarray   # (d, d_out)
    d: int
    mask_mode: str
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    w_qkv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mask_mode not in MASK_MODES:
            raise ValueError(f"mask_mode must be one of {MASK_MODES}, got {self.mask_mode!r}")
        d = self.d
        mats = [np.asarray(getattr(self, name)) for name in _MATS]
        if mats[0].shape[1] != d or mats[4].shape[0] != d:
            raise ValueError(f"embedding/readout width {mats[0].shape[1]}/"
                             f"{mats[4].shape[0]} disagrees with d={d}")
        for name, m in zip(_MATS[1:4], mats[1:4]):
            if m.shape != (d, d):
                raise ValueError(f"{name} must be ({d},{d})")
        flat = np.empty(sum(m.size for m in mats), np.result_type(*mats))
        views, qkv = _views(flat, mats[0].shape[0], d)
        for name, view, m in zip(_MATS, views, mats):
            view[...] = m
            object.__setattr__(self, name, view)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "w_qkv", qkv)

    def __reduce__(self):
        # copy.deepcopy and pickle rebuild through the constructor; copying
        # the attributes one by one would unlink the views from the buffer.
        return type(self), (*(getattr(self, name) for name in _MATS), self.d, self.mask_mode)

    @property
    def d_in(self) -> int:
        return self.w_in.shape[0]

    @property
    def d_out(self) -> int:
        return self.w_out.shape[1]

    def check(self):
        """Construction checks the shapes; this checks the values."""
        for name in _MATS:
            require_finite(getattr(self, name), name)

    def finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())

    def astype(self, dtype) -> "MixerParams":
        return replace(self, **{name: getattr(self, name).astype(dtype) for name in _MATS})


class Grads(dict):
    """Name-keyed gradients whose values are views of one buffer `flat`,
    laid out like MixerParams.flat."""
    __slots__ = ("flat",)


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


@lru_cache(maxsize=None)
def _freqs(half: int) -> np.ndarray:
    freqs = 10000.0 ** (-np.arange(half, dtype=np.float64) / half)
    freqs.flags.writeable = False
    return freqs


def sin_code(x: float, d: int, dtype=FLOAT) -> np.ndarray:
    """Fixed sinusoidal code of a scalar, standard geometric frequency ladder."""
    ang = float(x) * _freqs(d // 2)
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


def _embed(p: MixerParams, x: np.ndarray, sigma: float, indices, out=None) -> np.ndarray:
    n = x.shape[0]
    if indices is None:
        indices = range(1, n + 1)
    dt = p.w_in.dtype
    h = np.matmul(x, p.w_in, out=out)
    h += _level_code(float(1000.0 * sigma), p.d, dt)
    h += _pos_codes(indices, p.d, dt)
    return h


@lru_cache(maxsize=None)
def _attn_scale(d: int, dtype):
    return dtype.type(1.0) / np.sqrt(dtype.type(d))


@lru_cache(maxsize=64)
def _future_mask(n: int) -> np.ndarray:
    # The entries a causal row may not attend to: the complement of
    # np.tril(np.ones((n, n), bool)). Bounded: training windows reach t rows.
    mask = ~np.tril(np.ones((n, n), dtype=bool))
    mask.flags.writeable = False
    return mask


class Workspace:
    """The buffers of one window length n under parameters shaped like p.

    forward and loss_and_grad write every intermediate of a pass into a
    workspace, products with out= and reductions into their buffers, so a
    caller that owns one runs pass after pass without allocating; what a
    pass returns (the readout y, the gradients) lives here until the next
    pass. `backward` adds loss_and_grad's buffers and a gradient buffer laid
    out like p.flat: `g_flat` when given (a run's workspaces share one, as
    only one pass is live at a time), else a new one. A workspace holds no
    reference to p, so it also serves p's copies of the same shapes and
    dtype.
    """

    def __init__(self, p: MixerParams, n: int, backward: bool = False,
                 g_flat: np.ndarray | None = None):
        if n < 1:
            raise ValueError("window must contain at least one block")
        dt, d = p.flat.dtype, p.d
        self.n, self.backward = n, backward
        self.h, self.r, self.col = np.empty((n, d), dt), np.empty((n, d), dt), np.empty((n, 1), dt)
        self.qkv = np.empty((3, n, d), dt)
        self.q, self.k_t = self.qkv[0], self.qkv[1].T
        self.logits = np.empty((n, n), dt)
        self.y = np.empty((n, p.d_out), dt)
        if backward:
            self.d_r, self.d_h = np.empty((n, d), dt), np.empty((n, d), dt)
            self.d_logits, self.prod = np.empty((n, n), dt), np.empty((n, n), dt)
            self.d_qkv, self.d_h3 = np.empty((3, n, d), dt), np.empty((3, n, d), dt)
            self.target = np.empty((n, p.d_out), dt)   # eps - x0, then resid**2
            self.cond = np.empty(n, bool)              # the conditioning rows
            if g_flat is None:
                g_flat = np.empty_like(p.flat)
            self.g_mats, self.g_qkv = _views(g_flat, p.d_in, d)
            self.grads = Grads(zip(_MATS, self.g_mats))
            self.grads.flat = g_flat


def _check_window(p: MixerParams, window_blocks, sigmas) -> np.ndarray:
    """The window's rows in p's dtype, once its shape and noise levels pass."""
    x = np.asarray(window_blocks, dtype=p.w_in.dtype)
    if x.ndim != 2 or x.shape[1] != p.d_in:
        raise ValueError(f"window blocks must be (n, {p.d_in}), got {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("window must contain at least one block")
    for sigma in sigmas:
        if not 0.0 <= sigma <= 1.0:
            raise ValueError(f"sigma must lie in [0,1], got {sigma}")
    return x


def _attend(p: MixerParams, h: np.ndarray, ws: Workspace):
    """Attention weights and the stacked (3, n, d) projections q|k|v."""
    dt = h.dtype
    qkv = np.matmul(h, p.w_qkv, out=ws.qkv)
    scale = _attn_scale(p.d, dt)
    logits = np.matmul(ws.q, ws.k_t, out=ws.logits)
    logits *= scale
    if p.mask_mode == "causal":
        np.copyto(logits, dt.type(-np.inf), where=_future_mask(h.shape[0]))
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True, out=ws.col)
    attn = np.exp(logits, out=logits)
    attn /= np.add.reduce(attn, axis=1, keepdims=True, out=ws.col)
    return qkv, attn, scale


def _forward_cache(p: MixerParams, x: np.ndarray, sigma: float, indices, ws: Workspace):
    h = _embed(p, x, sigma, indices, ws.h)
    qkv, attn, scale = _attend(p, h, ws)
    r = np.matmul(attn, qkv[2], out=ws.r)
    r += h
    y = np.matmul(r, p.w_out, out=ws.y)
    return y, (x, h, qkv, attn, scale, r)


def forward(p: MixerParams, window_blocks: np.ndarray, sigma: float,
            indices=None, ws: Workspace | None = None) -> np.ndarray:
    """Velocity predictions, one (d_out,) row per window block.

    `indices` are the blocks' absolute 1-based temporal positions; defaults
    to 1..n for tests that do not care. Without a workspace the window is
    checked and the result is a new array. With one (of the window's
    length), the caller has checked the window (rows of p's dtype and
    width, sigma in [0, 1]) and the result is the workspace's readout,
    which the next pass overwrites.
    """
    if ws is None:
        window_blocks = _check_window(p, window_blocks, (sigma,))
        ws = Workspace(p, window_blocks.shape[0])
    y, _ = _forward_cache(p, window_blocks, sigma, indices, ws)
    return y


def loss_and_grad(p: MixerParams, window_blocks: np.ndarray, clean_targets: np.ndarray,
                  noisy_mask: np.ndarray, sigma: float, eps: np.ndarray,
                  indices=None, ws: Workspace | None = None):
    """Masked flow-matching loss and analytic parameter gradients.

    loss = mean over noisy blocks of ||v_hat - (eps - x0)||^2. Blocks with
    noisy_mask False are teacher-forced conditioning; their loss rows are
    zeroed, so their terms contribute exactly zero gradient. The gradients
    come back as Grads: views of one buffer laid out like p.flat, a new one
    without a workspace, else the workspace's (a backward one of the
    window's length), which the next pass overwrites.
    """
    mask = np.asarray(noisy_mask, dtype=bool)
    n_noisy = np.count_nonzero(mask)
    if not n_noisy:
        raise ValueError("noisy_mask selects no blocks; loss undefined")
    x = _check_window(p, window_blocks, (sigma,))
    if ws is None:
        ws = Workspace(p, x.shape[0], backward=True)
    elif not ws.backward or ws.n != x.shape[0]:
        raise ValueError(f"loss_and_grad needs a backward workspace of {x.shape[0]} rows")
    y, (x, h, qkv, attn, scale, r) = _forward_cache(p, x, sigma, indices, ws)
    dt = y.dtype

    resid = y   # the forward output is this pass's own: reuse it in place
    resid -= np.subtract(np.asarray(eps, dt), np.asarray(clean_targets, dt), out=ws.target)
    resid[np.logical_not(mask, out=ws.cond)] = 0.0
    loss = float(np.add.reduce(np.multiply(resid, resid, out=ws.target), axis=None)) / n_noisy

    g_mats = ws.g_mats
    d_y = resid
    d_y *= dt.type(2.0) / dt.type(n_noisy)
    np.matmul(r.T, d_y, out=g_mats[4])
    d_r = np.matmul(d_y, p.w_out.T, out=ws.d_r)
    q, k, v = qkv
    # d_attn, then in place the softmax gradient
    d_logits = np.matmul(d_r, v.T, out=ws.d_logits)
    d_logits -= np.add.reduce(np.multiply(d_logits, attn, out=ws.prod), axis=1, keepdims=True,
                              out=ws.col)
    d_logits *= attn
    d_qkv = ws.d_qkv
    d_q, d_k, d_v = d_qkv                 # d_v: the gradient wrt v rows
    np.matmul(d_logits, k, out=d_q)
    np.matmul(d_logits.T, q, out=d_k)
    d_qkv[:2] *= scale
    np.matmul(attn.T, d_r, out=d_v)
    np.matmul(h.T, d_qkv, out=ws.g_qkv)
    # sum over q|k|v runs in order along the outer axis: (d_hq + d_hk) + d_hv
    d_h = np.add.reduce(np.matmul(d_qkv, p.w_qkv.transpose(0, 2, 1), out=ws.d_h3), axis=0,
                        out=ws.d_h)
    d_h += d_r                            # residual branch
    np.matmul(x.T, d_h, out=g_mats[0])
    return loss, ws.grads


def sgd_update(p: MixerParams, grads: Grads, lr: float = 1e-2, buf=None) -> None:
    """Plain gradient descent, in place on the packed buffer; grads as
    loss_and_grad returns them. lr * g goes into buf, an array like p.flat,
    when given (a new array otherwise), and p.flat -= that."""
    flat = p.flat
    flat -= np.multiply(flat.dtype.type(lr), grads.flat, out=buf)


@dataclass(frozen=True)
class SigmaSchedule:
    sigmas: tuple[float, ...]

    def __post_init__(self):
        s = self.sigmas
        if not all(type(x) in (int, float) and math.isfinite(x) for x in s):
            raise ValueError(f"sigmas must be finite numbers, got {s}")
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


def denoise_window(p: MixerParams, sigmas, zr: np.ndarray, tail: np.ndarray, indices,
                   ws: Workspace, on_step=None) -> None:
    """Run the sigma ladder on one window, in place.

    zr: the (n, h, w, 2c) window, [z | ref] per pixel, C-contiguous in p's
    dtype: a read-only conditioning prefix followed by its noisy tail, the
    last m blocks. tail: (m, h, w, c), the tail's latents, which the ladder
    starts from and steps in place. ws: a Workspace of n rows. The window is
    checked once (its shape, every sigma in [0, 1], a strictly decreasing
    ladder). The tail is written into zr's z channels, then each step makes
    one forward pass over zr, applies the Euler update to the tail only and
    writes it back, whole pixels at a time (grid.pixel_views); the prefix and
    the reference half are never written. Every denoising path in the
    package funnels through here, which is what makes the sequential /
    streaming / single-window variants bit-identical.

    on_step(k, z, idx), if given, observes zr's z channels (a view) after
    each step.
    """
    n, m, c = zr.shape[0], tail.shape[0], tail.shape[-1]
    if zr.shape[1:] != tail.shape[1:-1] + (2 * c,) or m > n:
        raise ValueError(f"need an (n, h, w, 2c) window and an (m <= n, h, w, c) tail, "
                         f"got {zr.shape} and {tail.shape}")
    if zr.dtype != p.flat.dtype or not zr.flags.c_contiguous:
        raise ValueError(f"the window must be C-contiguous {p.flat.dtype}, got {zr.dtype}")
    if ws.n != n:
        raise ValueError(f"denoise_window needs a workspace of {n} rows, got {ws.n}")
    if any(b >= a for a, b in zip(sigmas, sigmas[1:])):
        raise ValueError(f"sigma ladder must be strictly decreasing, got {tuple(sigmas)}")
    x = _check_window(p, zr.reshape(n, -1), sigmas)
    prefix = n - m
    idx = tuple(indices)
    v = ws.y[prefix:].reshape(tail.shape)   # the tail's rows of every pass's readout
    put, got = pixel_views(zr[prefix:, ..., :c], tail)
    put[...] = got
    for k, (sigma_from, sigma_to) in enumerate(zip(sigmas, sigmas[1:])):
        forward(p, x, sigma_from, idx, ws=ws)
        # the readout is this pass's own, so the step scales it in place
        tail += np.multiply(v, sigma_to - sigma_from, out=v)
        put[...] = got
        if on_step is not None:
            on_step(k, zr[..., :c], idx)


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


def _read_doc(path: str, types: dict) -> dict:
    """The JSON object at path, whose keys hold values of the given types (a
    bool is no int); an error names the file and the key."""
    with open(path) as f:
        doc = json.load(f)
    for key, want in types.items():
        v = doc.get(key) if isinstance(doc, dict) else None
        if type(v) is not want:
            raise ValueError(f"{path}: key {key!r} expects {want.__name__}, got {json.dumps(v)}")
    return doc


def load_params(in_dir: str) -> MixerParams:
    doc = os.path.join(in_dir, "mixer.json")
    side = _read_doc(doc, {"d": int, "mask_mode": str})
    mats = {}
    for name in _MATS:
        path = os.path.join(in_dir, f"{name}.siv1")
        arr = read_siv1(path)
        if arr.shape[0] != 1 or arr.shape[3] != 1:
            raise ValueError(f"{path}: a matrix is stored as (1, rows, cols, 1), got {arr.shape}")
        mats[name] = arr[0, :, :, 0]
    try:
        p = MixerParams(d=side["d"], mask_mode=side["mask_mode"], **mats)
        p.check()
    except ValueError as e:
        raise ValueError(f"{doc}: {e}") from None
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
    _, h, w, c = latent_shape(1, height, width, codec_cfg)
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
    """All t blocks in one window, block 1 (the anchor) held fixed. The
    window, its tail and its Workspace are this call's own; the inputs are
    only read, and the result is a new contiguous array."""
    t = z.shape[0]
    zr = np.concatenate([z, ref], axis=-1, dtype=p.flat.dtype)
    tail = np.array(z[1:])
    denoise_window(p, sigmas, zr, tail, range(1, t + 1), Workspace(p, t))
    return np.concatenate([z[:1], tail])


class Window:
    """One training window's input rows, assembled: zr holds [clean | ref]
    per pixel and `clean` the clean latents of the window's blocks, in the
    latents' dtype; x and targets are their (n, -1) rows. A step of
    train_windows rewrites only the noisy tail's z channels of zr, so a
    window that recurs (stage 1's, the whole clip) is assembled once per
    run, and one that does not is gathered into the run's Window of its
    length."""

    def __init__(self, n: int, block_shape: tuple, dtype):
        h, w, c = block_shape
        dtype = np.dtype(dtype)
        self.zr = np.empty((n, h, w, 2 * c), dtype)
        self.clean = np.empty((n, h, w, c), dtype)
        self.noisy = np.empty((n, h, w, c), dtype)   # the tail's noised latents
        self.eps = np.empty((n, h, w, c), FLOAT)
        self.scaled = np.empty((n, h, w, c), FLOAT)  # sigma * eps
        self.x, self.targets = self.zr.reshape(n, -1), self.clean.reshape(n, -1)
        self.eps_rows = self.eps.reshape(n, -1)
        # Each pixel's c channels move as one record.
        pixel = f"V{c * dtype.itemsize}"
        self._z, self._ref = np.split(self.zr.view(pixel), 2, axis=-1)
        self._clean, self._noisy = self.clean.view(pixel), self.noisy.view(pixel)
        self._pixel = pixel
        self.n, self.indices, self.mask, self.prefix = n, None, None, 0

    @classmethod
    def of(cls, z_ref: np.ndarray, z0: np.ndarray, indices, n_noisy: int) -> "Window":
        """A new window of the given rows."""
        return cls(len(indices), z0.shape[1:], z0.dtype).gather(z_ref, z0, indices, n_noisy)

    def gather(self, z_ref: np.ndarray, z0: np.ndarray, indices, n_noisy: int) -> "Window":
        """Fill the window from (t, h, w, c) reference and clean latents: its
        blocks are the 1-based indices, its noisy tail the last n_noisy."""
        idx = indices if type(indices) is tuple else tuple(indices)
        rows, self.mask = _window_rows(idx, n_noisy)
        self.indices, self.prefix = idx, len(idx) - n_noisy
        z0.take(rows, axis=0, out=self.clean)
        self._z[...] = self._clean
        self._ref[...] = z_ref[rows].view(self._pixel)
        return self


def _window_step(p: MixerParams, win: Window, rng: Rng, ws: Workspace):
    # Draws sigma, then eps; noises the tail into the window, then one pass.
    m = win.prefix
    sigma = 1.0 - rng.uniform01()   # U(0, 1]
    rng.normal(win.eps.shape, out=win.eps)
    noisy = np.multiply(win.clean[m:], 1.0 - sigma, out=win.noisy[m:])
    noisy += np.multiply(win.eps[m:], sigma, out=win.scaled[m:])
    win._z[m:] = win._noisy[m:]
    return loss_and_grad(p, win.x, win.targets, win.mask, sigma, win.eps_rows, win.indices, ws)


def window_loss(p: MixerParams, z_ref: np.ndarray, z0: np.ndarray, indices, n_noisy: int,
                rng: Rng):
    """Teacher-forced loss and gradients on one window: the training twin of
    denoise_window, in buffers of its own (train_windows runs the same step
    in the run's).

    z_ref, z0: (t, h, w, c) reference and clean latents. The window's noisy
    tail, its last n_noisy blocks, moves to a drawn sigma on the path to a
    drawn eps; the conditioning prefix keeps its clean latents. Draws sigma,
    then eps, from rng. Returns (loss, grads).
    """
    win = Window.of(z_ref, z0, indices, n_noisy)
    return _window_step(p, win, rng, Workspace(p, win.n, backward=True))


@lru_cache(maxsize=256)
def _window_rows(indices: tuple, n_noisy: int):
    # A window's 0-based rows and its noisy-tail mask, read-only. Bounded:
    # training visits one window per step, from a few plans.
    n = len(indices)
    if not 0 <= n_noisy <= n:
        raise ValueError(f"n_noisy must lie in [0, {n}], got {n_noisy}")
    rows = np.asarray(indices) - 1
    mask = np.arange(n) >= n - n_noisy
    rows.flags.writeable = mask.flags.writeable = False
    return rows, mask


class _Spaces(dict):
    """A run's backward workspaces, one per window length, which share one
    gradient buffer g_flat, and the Windows that gather refills, one per
    length; each made on first use."""

    def __init__(self, p: MixerParams):
        super().__init__()
        self.p, self.windows, self.g_flat = p, {}, np.empty_like(p.flat)

    def __missing__(self, n: int) -> Workspace:
        ws = self[n] = Workspace(self.p, n, backward=True, g_flat=self.g_flat)
        return ws

    def gather(self, z_ref, z0, indices, n_noisy: int) -> Window:
        """The rows gathered into the run's Window of their length."""
        n = len(indices)
        win = self.windows.get(n)
        if win is None:
            win = self.windows[n] = Window(n, z0.shape[1:], z0.dtype)
        return win.gather(z_ref, z0, indices, n_noisy)


def train_windows(p: MixerParams, windows, steps: int, seed: int, lr: float, stage: int):
    """SGD, one window per step. windows(step, rng, gather) gives the step's
    Window and the extra values of its log row (step, loss, *extra): a
    window it keeps for the run, or gather(z_ref, z0, indices, n_noisy), the
    rows gathered into the run's Window of that length. The run owns one
    Workspace and one such Window per window length, one gradient buffer
    that the workspaces share and one buffer for lr * g, and draws from one
    stream, Rng(seed).split(SUB_TRAIN): per step, the stage's window choices
    (in windows), then sigma, then eps. Raises FloatingPointError, naming
    the stage and step, if training diverges."""
    rng = Rng(seed).split(SUB_TRAIN)
    spaces = _Spaces(p)
    buf = np.empty_like(p.flat)
    log = []
    for step in range(steps):
        win, extra = windows(step, rng, spaces.gather)
        loss, grads = _window_step(p, win, rng, spaces[win.n])
        sgd_update(p, grads, lr, buf)
        if not math.isfinite(loss):
            raise FloatingPointError(f"stage {stage} training diverged: loss {loss} at step {step}")
        log.append((step, loss, *extra))
    if not p.finite():
        raise FloatingPointError(
            f"stage {stage} training diverged: parameters non-finite after step {steps - 1}")
    return log


def eval_windows(p: MixerParams, windows, seed: int, draws: int) -> float:
    """Mean window loss over seeded draws of windows(draw, rng, gather), as
    train_windows draws them, from one stream in its order; no update."""
    rng = Rng(seed).split(SUB_TRAIN)
    spaces = _Spaces(p)
    tot = 0.0
    for j in range(draws):
        win, _ = windows(j, rng, spaces.gather)
        tot += _window_step(p, win, rng, spaces[win.n])[0]
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
    path = os.path.join(in_dir, f"{name}.json")
    doc = _read_doc(path, {"f_s": int, "f_t": int, "c": int, "lift_seed": int, "sigmas": list})
    try:
        cfg = CodecConfig(f_s=doc["f_s"], f_t=doc["f_t"], c=doc["c"], lift_seed=doc["lift_seed"])
        schedule = SigmaSchedule(tuple(doc["sigmas"]))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return StageModel(params=load_params(in_dir), codec_cfg=cfg, schedule=schedule)
