"""The whole pipeline written plainly: the reference that the package must
equal byte for byte (`tests/test_reference.py`).

`run(cfg)` returns the files that `synth`, `train-stage1`, `train-stage2`
(with its transition pairs) and `generate` write for one config. Every step
takes fresh arrays and one product per matrix, and draws from the seeded
streams in the order of the package's train loops and requests. There is no
cache, workspace, packing, `out=` or stride-0 stack. From segvid it imports
only `grid.Rng`, which defines the seeded streams, and `synth`, which makes
the inputs. The stream keys are part of the format of every seeded
artifact, so they are restated here, not imported.

Where the package documents that the shape of a product sets its bits,
this code takes the same shape and says so. The channel lift is one 2-D
product per encode of the anchor and one for the other blocks (`codec.lift`).
Decoding un-lifts each row of a block as its own (w, c) @ (c, 3) product
(`codec.decode_block`). Everything else reads as the math does.

The mixer functions take any object with the five matrices and `mask_mode`
as attributes, `mixer.MixerParams` included, in float32 or float64.
"""

import json
import struct
from types import SimpleNamespace

import numpy as np

from segvid import synth
from segvid.grid import Rng

F32 = np.float32
SUB_INIT_NOISE, SUB_TRAIN, SUB_TRANSITION, SUB_PARAMS = 0xA1, 0xB2, 0xC3, 0xD4
LIFT_SEED = 0x11F7
MATS = ("w_in", "w_q", "w_k", "w_v", "w_out")
MN_CHOICES = ((2, 1), (2, 2), (3, 1), (3, 2))


# ---- codec ----------------------------------------------------------------

def lift_matrix(c, seed=LIFT_SEED):
    """The (c, 3) channel lift: seeded normals, orthonormalized, signs fixed."""
    q, r = np.linalg.qr(Rng(seed).split(SUB_PARAMS).normal((c, 3)).astype(np.float64))
    return (q * np.sign(np.diag(r))).astype(F32)


def pool(frames, f):
    """Each f x f cell of (n, H, W, C) frames replaced by numpy's mean of it."""
    n, H, W, C = frames.shape
    return frames.reshape(n, H // f, f, W // f, f, C).mean(axis=(2, 4), dtype=F32)


def lift(pixels, L):
    """(n, h, w, 3) pixels to (n, h, w, c) latents as one 2-D product."""
    return (pixels.reshape(-1, 3) @ L.T).reshape(*pixels.shape[:-1], len(L))


def encode(video, f_s, f_t, L):
    """Frame 1 alone, then each group of f_t frames averaged, pooled, lifted."""
    groups = [video[i:i + f_t].mean(axis=0, dtype=F32) for i in range(1, len(video), f_t)]
    anchor = lift(pool(video[:1], f_s), L)
    return np.concatenate([anchor, lift(pool(np.stack(groups), f_s), L)]) if groups else anchor


def decode_block(block, f_s, f_t, L, first):
    """One (h, w, c) block's frames: un-lifted per row, repeated over its
    f_s x f_s cells and its frames, clamped to [0, 1]."""
    frame = (block @ L).repeat(f_s, axis=0).repeat(f_s, axis=1)
    return np.clip(np.stack([frame] * (1 if first else f_t)), 0.0, 1.0)


def decode(z, f_s, f_t, L):
    return np.concatenate([decode_block(b, f_s, f_t, L, i == 0) for i, b in enumerate(z)])


def hybrid_reference(v_lr, x, f_s):
    """The LR video upsampled by f_s, its frame 1 swapped for the image x."""
    up = v_lr.repeat(f_s, axis=1).repeat(f_s, axis=2)
    up[0] = x
    return up


# ---- mixer ----------------------------------------------------------------

def sin_code(x, d):
    half = d // 2
    ang = float(x) * 10000.0 ** (-np.arange(half, dtype=np.float64) / half)
    return np.concatenate([np.sin(ang), np.cos(ang)])


def init_params(seed, d_in, d_out, d, mask_mode="bidirectional"):
    shapes = {"w_in": (d_in, d), "w_q": (d, d), "w_k": (d, d), "w_v": (d, d), "w_out": (d, d_out)}
    return SimpleNamespace(mask_mode=mask_mode, **{
        name: Rng(seed).split(ord(name[2]), *shape).normal(shape) / np.sqrt(F32(shape[0]))
        for name, shape in shapes.items()})


def _forward(p, x, sigma, idx):
    dt = p.w_in.dtype
    d = p.w_q.shape[0]
    x = np.asarray(x, dt)
    pos = np.stack([sin_code(i, d) for i in idx]).astype(dt)
    h = x @ p.w_in + sin_code(1000.0 * sigma, d).astype(dt) + pos
    q, k, v = h @ p.w_q, h @ p.w_k, h @ p.w_v
    scale = dt.type(1.0) / np.sqrt(dt.type(d))
    logits = (q @ k.T) * scale
    if p.mask_mode == "causal":
        logits = np.where(np.tril(np.ones(logits.shape, bool)), logits, dt.type(-np.inf))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    r = attn @ v + h
    return x, h, q, k, v, scale, attn, r, r @ p.w_out


def forward(p, x, sigma, idx):
    """Velocity rows of the (n, d_in) window x at noise level sigma, whose
    rows are the 1-based blocks idx."""
    return _forward(p, x, sigma, idx)[-1]


def loss_and_grad(p, x, clean, mask, sigma, eps, idx):
    """Mean over the masked rows of ||v_hat - (eps - clean)||², and its
    gradient per matrix."""
    x, h, q, k, v, scale, attn, r, y = _forward(p, x, sigma, idx)
    dt = y.dtype
    n_noisy = int(mask.sum())
    resid = np.where(mask[:, None], y - (np.asarray(eps, dt) - np.asarray(clean, dt)), dt.type(0))
    loss = float((resid * resid).sum()) / n_noisy
    d_y = (dt.type(2.0) / dt.type(n_noisy)) * resid
    d_r = d_y @ p.w_out.T
    d_attn = d_r @ v.T
    d_logits = attn * (d_attn - (d_attn * attn).sum(axis=1, keepdims=True))
    d_q = (d_logits @ k) * scale
    d_k = (d_logits.T @ q) * scale
    d_v = attn.T @ d_r
    d_h = d_r + (d_q @ p.w_q.T + d_k @ p.w_k.T + d_v @ p.w_v.T)
    return loss, {"w_in": x.T @ d_h, "w_q": h.T @ d_q, "w_k": h.T @ d_k, "w_v": h.T @ d_v,
                  "w_out": r.T @ d_y}


def sgd(p, grads, lr):
    return SimpleNamespace(mask_mode=p.mask_mode, **{
        name: getattr(p, name) - getattr(p, name).dtype.type(lr) * grads[name] for name in MATS})


# ---- windows, training and sampling ---------------------------------------

def segments(t, M, N):
    """(W_s, |I_s|) per segment: blocks 2..t cut into runs of M, each seen
    with the anchor and up to N blocks before it."""
    return [([1, *range(max(2, a - N), a), *range(a, min(a + M, t + 1))], min(M, t + 1 - a))
            for a in range(2, t + 1, M)]


def window_step(p, z0, ref, W, m, rng):
    """Loss and gradients on window W of clean latents z0 beside ref: draws
    sigma, then eps for every block, and noises the last m blocks."""
    rows = np.asarray(W) - 1
    n = len(W)
    clean = z0[rows]
    sigma = 1.0 - rng.uniform01()
    eps = rng.normal(clean.shape)
    z = clean.copy()
    z[n - m:] = (1.0 - sigma) * clean[n - m:] + sigma * eps[n - m:]
    x = np.concatenate([z, ref[rows]], axis=-1).reshape(n, -1)
    return loss_and_grad(p, x, clean.reshape(n, -1), np.arange(n) >= n - m, sigma,
                         eps.reshape(n, -1), W)


def train(p, windows, steps, seed, lr):
    """SGD, one window per step; windows(step, rng) returns (z0, ref, W, m,
    extra log values). Returns the parameters and the (step, loss, *extra) log."""
    rng = Rng(seed).split(SUB_TRAIN)
    log = []
    for step in range(steps):
        z0, ref, W, m, extra = windows(step, rng)
        loss, grads = window_step(p, z0, ref, W, m, rng)
        p = sgd(p, grads, lr)
        log.append((step, loss, *extra))
    return p, log


def evaluate(p, windows, seed, draws=8):
    rng = Rng(seed).split(SUB_TRAIN)
    return sum(window_step(p, *windows(j, rng)[:4], rng)[0] for j in range(draws)) / draws


def stage1_windows(zs):
    """Stage 1's draws: clip j of the latents whole, beside its anchor."""
    def windows(j, rng):
        z0 = zs[j % len(zs)]
        return z0, np.stack([z0[0]] * len(z0)), list(range(1, len(z0) + 1)), len(z0) - 1, ()
    return windows


def stage2_windows(trans, down):
    """Stage 2's training draws over (z0, z_ref) pairs: the source (when
    there are transition pairs), (M, N), then the segment."""
    def windows(step, rng):
        use = bool(trans) and rng.uniform01() < 0.7
        pairs = trans if use else down
        M, N = MN_CHOICES[rng.integers(0, len(MN_CHOICES))]
        z0, ref = pairs[step % len(pairs)]
        segs = segments(len(z0), M, N)
        return (z0, ref, *segs[rng.integers(0, len(segs))],
                (M, N, "transition" if use else "downsampled"))
    return windows


def stage2_eval_windows(pairs, M=3, N=1):
    def windows(j, rng):
        z0, ref = pairs[j % len(pairs)]
        segs = segments(len(z0), M, N)
        return (z0, ref, *segs[rng.integers(0, len(segs))], ())
    return windows


def ladder(p, sigmas, win, ref, W, m):
    """The sigma ladder on one window: win and ref hold the rows of blocks
    W, and the last m of them step. Returns the stepped window."""
    win = win.copy()
    n = len(W)
    for a, b in zip(sigmas, sigmas[1:]):
        x = np.concatenate([win, ref], axis=-1).reshape(n, -1)
        v = forward(p, x, a, W).reshape(win.shape)
        win[n - m:] = win[n - m:] + (b - a) * v[n - m:]
    return win


def denoise(p, sigmas, z, ref, segs):
    """Each segment's ladder in turn. z holds the anchor and every block's
    initial latents; the stepped latents come back in a new array."""
    z = z.copy()
    for W, m in segs:
        rows = np.asarray(W) - 1
        z[rows[len(W) - m:]] = ladder(p, sigmas, z[rows], ref[rows], W, m)[len(W) - m:]
    return z


def initial_latents(z_x, t, seed, stage):
    """The anchor, then blocks 2..t from the stage's initial-noise stream."""
    noise = Rng(seed).split(stage).split(SUB_INIT_NOISE).normal((t - 1, *z_x.shape))
    return np.concatenate([z_x[None], noise])


def rollout(p, sigmas, z, z_x):
    """Stage 1: every block in one window, the anchor latent as every
    block's reference, block 1 held."""
    t = len(z)
    return denoise(p, sigmas, z, np.stack([z_x] * t), [(list(range(1, t + 1)), t - 1)])


def pair(v_lr, v, codec):
    """(z0, z_ref) of an HR clip and the hybrid reference of an LR clip."""
    return encode(v, *codec), encode(hybrid_reference(v_lr, v[0], codec[0]), *codec)


def stage2_inputs(p1, sigmas, image, T, seed, codec):
    """The hybrid reference latents of a request: stage 1's rollout from the
    image pooled by f_s, decoded, upsampled, its frame 1 the image."""
    x_lr = pool(image[None], codec[0])
    z_x = encode(x_lr, *codec)[0]
    z_lr = rollout(p1, sigmas, initial_latents(z_x, 1 + (T - 1) // codec[1], seed, 1), z_x)
    return encode(hybrid_reference(decode(z_lr, *codec), image, codec[0]), *codec)


# ---- the pipeline ---------------------------------------------------------

def siv1(arr):
    a = np.asarray(arr, "<f4")
    return struct.pack("<4sIIIII", b"SIV1", *a.shape, 0) + a.tobytes()


def _train(p, windows, eval_windows, cfg, lr, codec, sigmas, name, header):
    """A train command: evaluate, train, evaluate; the trained parameters
    and the files of the checkpoint."""
    init = evaluate(p, eval_windows, cfg["seed"] + 1)
    p, log = train(p, windows, cfg["steps"], cfg["seed"], lr)
    losses = {"init_loss": init, "final_loss": evaluate(p, eval_windows, cfg["seed"] + 1)}
    rows = [header] + [[str(s), f"{loss:.6f}", *map(str, rest)] for s, loss, *rest in log]
    files = {f"{m}.siv1": siv1(getattr(p, m)[None, :, :, None]) for m in MATS} | {
        "mixer.json": json.dumps({"d": p.w_q.shape[0], "mask_mode": p.mask_mode,
                                  "matrices": list(MATS)}, indent=2).encode(),
        f"{name}.json": json.dumps({"f_s": codec[0], "f_t": codec[1], "c": len(codec[2]),
                                    "lift_seed": LIFT_SEED, "sigmas": sigmas}, indent=2).encode(),
        "train_log.csv": "".join(",".join(row) + "\r\n" for row in rows).encode(),
        "summary.json": json.dumps(losses, indent=2).encode()}
    return p, {f"{name}/{k}": v for k, v in files.items()}


def run(cfg, image):
    """{path: bytes} of the files the CLI writes at cfg, its checkpoints
    under "stage1/" and "stage2/" and the video of the (H, W, 3) image as
    "generate/video.siv1"."""
    f_s, f_t, c, d, K = cfg["f_s"], cfg["f_t"], cfg["c"], cfg["d"], cfg["K"]
    seed, H, W = cfg["seed"], cfg["height"], cfg["width"]
    codec = (f_s, f_t, lift_matrix(c))
    sigmas = [1.0 - j / K for j in range(K)] + [0.0]
    specs = synth.default_specs(cfg["count"], seed, T=cfg["frames"], H=H, W=W)
    clips = [synth.render_scene(s, SimpleNamespace(f_s=f_s, f_t=f_t, c=c)) for s in specs]
    lr_clips = [pool(v, f_s) for v in clips]

    # train-stage1 on the LR clips
    hw = (H // f_s ** 2) * (W // f_s ** 2)
    windows = stage1_windows([encode(v, *codec) for v in lr_clips])
    p1, files = _train(init_params(seed, hw * 2 * c, hw * c, d), windows, windows, cfg,
                       cfg.get("lr", 1e-2), codec, sigmas, "stage1", ["step", "loss"])

    # train-stage2 on a transition pair and a plain pair per HR clip
    trans = []
    for i, (v_lr, v) in enumerate(zip(lr_clips, clips)):
        z0 = encode(v_lr, *codec)
        if cfg["sigma"] > 0.0:
            sigma, n = cfg["sigma"], cfg["tsteps"]
            eps = Rng(seed).split(SUB_TRANSITION, i).normal(z0.shape)
            z0 = rollout(p1, [sigma * (1.0 - j / n) for j in range(n)] + [0.0],
                         (1.0 - sigma) * z0 + sigma * eps, encode(v_lr[:1], *codec)[0])
        trans.append(pair(decode(z0, *codec), v, codec))
    down = [pair(v_lr, v, codec) for v_lr, v in zip(lr_clips, clips)]
    hw = (H // f_s) * (W // f_s)
    p2 = init_params(seed, hw * 2 * c, hw * c, d,
                     "bidirectional" if cfg["mask"] == "bi" else "causal")
    p2.w_in.reshape(hw, 2, c, d)[:, 1] = 0.0  # the reference rows start inert
    p2, more = _train(p2, stage2_windows(trans, down), stage2_eval_windows(down), cfg,
                      cfg.get("lr", 3e-4), codec, sigmas, "stage2",
                      ["step", "loss", "M", "N", "source"])
    files |= more

    # generate: the hybrid reference, CSG over the plan, decode
    z_ref = stage2_inputs(p1, sigmas, image, cfg["frames"], seed, codec)
    z = denoise(p2, sigmas, initial_latents(z_ref[0], len(z_ref), seed, 2), z_ref,
                segments(len(z_ref), cfg["M"], cfg["N"]))
    files["generate/video.siv1"] = siv1(decode(z, *codec))
    return files
