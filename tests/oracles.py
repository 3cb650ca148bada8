"""Independent re-derivations used as test oracles, and test-only helpers.

The re-derivations are written the slow, obvious way on purpose (python
loops, brute force, closed forms) and use nothing from the package, so a bug
in the implementation cannot hide in its own oracle.

The section at the end keeps code the package has retired and helpers that
only tests use; it imports the package. It holds the stage-1 loss and LR
rollout as they were before stage 1 became the one-window case of the shared
denoiser (the bit-for-bit references for that fold), the per-step
`train_step`s of both stages, the zero-parameter null models, the stage-2
input layout as one tensor, and the transition-pair reader. It also keeps
the stage-2 conditioning built the obvious way, by encoding the HR hybrid
video, and the initial block noise drawn from one `Rng.split` stream per
block: the references for `conditioning.encode_reference` and
`grid.init_noise_blocks`.
"""

import json
import os

import numpy as np

from segvid import mixer, stage2
from segvid.codec import CodecConfig, encode
from segvid.conditioning import StageTwoInput
from segvid.grid import FLOAT, SUB_INIT_NOISE, as_f32, read_siv1, resize_spatial


def plan_bruteforce(t, M, N):
    """Walk indices 2..t, cut greedy segments of M, attach neighbors/windows."""
    segs = []
    i = 2
    while i <= t:
        I = list(range(i, min(i + M - 1, t) + 1))
        segs.append(I)
        i = I[-1] + 1
    out = []
    for k, I in enumerate(segs):
        a = I[0]
        nbr = [] if k == 0 else list(range(max(2, a - N), a))
        win = sorted({1, *nbr, *I})
        out.append({"start": a, "I": I, "Nbr": nbr, "W": win})
    return out


def block_frames(i, f_t):
    """1-based inclusive frame range of block i (block 1 is the lone anchor)."""
    if i == 1:
        return (1, 1)
    return ((i - 2) * f_t + 2, (i - 1) * f_t + 1)


def boundary_pairs_ref(t, M, N, f_t):
    """Frame pairs straddling segment seams, from the brute-force plan."""
    segs = plan_bruteforce(t, M, N)
    pairs = []
    for a, b in zip(segs, segs[1:]):
        pairs.append((block_frames(a["I"][-1], f_t)[1], block_frames(b["I"][0], f_t)[0]))
    return pairs


def pool_broadcast(video, f_s, f_t):
    """What decode(encode(v)) must produce: every f_s x f_s x frame-group cell
    replaced by its mean (frame 1 is its own group)."""
    v = np.asarray(video, dtype=np.float64)
    T, H, W, C = v.shape
    groups = [[0]]
    f = 1
    while f < T:
        groups.append(list(range(f, f + f_t)))
        f += f_t
    out = np.empty_like(v)
    for fr in groups:
        for y in range(0, H, f_s):
            for x in range(0, W, f_s):
                for ch in range(C):
                    vals = [v[i, yy, xx, ch] for i in fr
                            for yy in range(y, y + f_s) for xx in range(x, x + f_s)]
                    m = sum(vals) / len(vals)
                    for i in fr:
                        out[i, y:y + f_s, x:x + f_s, ch] = m
    return out


def fd_grad(loss_fn, mats, step=1e-3):
    """Central finite differences over a dict of float64 matrices, mutated in
    place entry by entry; loss_fn() re-evaluates the loss at the current
    parameters."""
    out = {}
    for name, m in mats.items():
        g = np.zeros_like(m)
        it = np.nditer(m, flags=["multi_index"])
        for _ in it:
            ij = it.multi_index
            keep = m[ij]
            m[ij] = keep + step
            lp = loss_fn()
            m[ij] = keep - step
            lm = loss_fn()
            m[ij] = keep
            g[ij] = (lp - lm) / (2.0 * step)
        out[name] = g
    return out


def ssim_ref(a, b, win=8, c1=1e-4, c2=9e-4):
    """Direct windowed SSIM on one plane, biased moments, loop per position."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    h, w = a.shape
    vals = []
    for y in range(h - win + 1):
        for x in range(w - win + 1):
            pa = a[y:y + win, x:x + win].ravel()
            pb = b[y:y + win, x:x + win].ravel()
            ma, mb = pa.mean(), pb.mean()
            va = (pa * pa).mean() - ma * ma
            vb = (pb * pb).mean() - mb * mb
            cov = (pa * pb).mean() - ma * mb
            vals.append(((2 * ma * mb + c1) * (2 * cov + c2))
                        / ((ma * ma + mb * mb + c1) * (va + vb + c2)))
    return float(np.mean(vals))


def ols_ref(points):
    """Least squares through lstsq; returns (slope, intercept, r2)."""
    x = np.array([p[0] for p in points], dtype=np.float64)
    y = np.array([p[1] for p in points], dtype=np.float64)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid * resid).sum()) / ss_tot
    return float(coef[0]), float(coef[1]), r2


def canon(d, n):
    """Displacement on a ring of size n mapped into (-n/2, n/2]."""
    d = int(d) % n
    return d if d <= n // 2 else d - n


def best_shift(a, b):
    """Circular shift (dy, dx) that best aligns frame a onto frame b, by
    exhaustive zero-mean correlation over the channel-averaged planes."""
    fa = np.asarray(a, dtype=np.float64).mean(axis=2)
    fb = np.asarray(b, dtype=np.float64).mean(axis=2)
    fa -= fa.mean()
    fb -= fb.mean()
    h, w = fa.shape
    best, arg = -np.inf, (0, 0)
    for dy in range(h):
        for dx in range(w):
            c = float((np.roll(fa, (dy, dx), axis=(0, 1)) * fb).sum())
            if c > best:
                best, arg = c, (dy, dx)
    return canon(arg[0], h), canon(arg[1], w)


def timing_ref(denoise, decode):
    """Hand simulation of the two-worker pipeline with an unbounded queue.

    Returns (first_output, full_output, sequential_total, completion order);
    ties resolve denoise-first, matching the package convention.
    """
    events = []
    tp = 0.0
    ready = []
    for s, d in enumerate(denoise, 1):
        tp += d
        events.append((tp, 0, "segment_denoised", s))
        ready.append(tp)
    tc = 0.0
    first = None
    for s, d in enumerate(decode, 1):
        tc = max(tc, ready[s - 1]) + d
        events.append((tc, 1, "segment_decoded", s))
        if first is None:
            first = tc
    events.sort(key=lambda e: (e[0], e[1]))
    order = [(k, s) for _, _, k, s in events]
    return first, tc, float(sum(denoise) + sum(decode)), order


def stacked_codes(code, indices, d, dtype):
    """One code row per index, each computed on its own as code(float(i), d,
    dtype); the code function is passed in so this module stays package-free."""
    return np.stack([code(float(i), d, dtype) for i in indices], axis=0)


def encode_loop(video, f_s, f_t, lift):
    """Encode block by block: average the block's frames in time, pool
    f_s x f_s cells, lift RGB through the (c, 3) matrix; float32 throughout."""
    v = np.asarray(video, dtype=np.float32)
    T, H, W, C = v.shape
    t = 1 + (T - 1) // f_t
    out = np.empty((t, H // f_s, W // f_s, lift.shape[0]), dtype=np.float32)
    for i in range(1, t + 1):
        lo, hi = block_frames(i, f_t)
        group = v[lo - 1:hi].mean(axis=0, dtype=np.float32)
        cells = group.reshape(H // f_s, f_s, W // f_s, f_s, C)
        out[i - 1] = cells.mean(axis=(1, 3), dtype=np.float32) @ lift.T
    return out


def decode_block_repeat_then_clip(block, lift, f_s, f_t, first):
    """Decode one latent block at pixel resolution: un-lift, repeat each cell
    f_s x f_s, repeat over the block's frames, and only then clamp to [0, 1]."""
    rgb = block @ lift
    up = np.repeat(np.repeat(rgb, f_s, axis=0), f_s, axis=1)
    frames = up[None] if first else np.broadcast_to(up, (f_t,) + up.shape)
    return np.clip(frames, 0.0, 1.0).astype(np.float32)


def denoise_window_concat(forward, sigmas, z_window, ref_window, update_mask):
    """Euler ladder on one window that builds the [z | ref] input afresh by
    concatenation at every step; forward(x, sigma) returns (n, h*w*c)."""
    z = np.array(z_window, copy=True)
    n, h, w, c = z.shape
    upd = np.asarray(update_mask, dtype=bool)
    for a, b in zip(sigmas, sigmas[1:]):
        x = np.concatenate([z, ref_window], axis=-1).reshape(n, -1)
        stepped = z + (b - a) * forward(x, a).reshape(n, h, w, c)
        z[upd] = stepped[upd]
    return z


# ---- retired package code and test-only helpers ---------------------------


def build_hybrid_reference(v_lr, x, factor):
    """Nearest-upsample the LR video and replace frame 1 with the input image."""
    v = as_f32(v_lr, "v_lr")
    xf = as_f32(x, "x")
    if v.ndim != 4 or xf.ndim != 3:
        raise ValueError("v_lr must be (T,H,W,C), x a single (H,W,C) frame")
    up = resize_spatial(v, "up_nearest", factor)
    if up.shape[1:] != xf.shape:
        raise ValueError(f"upsampled frames {up.shape[1:]} do not match input frame {xf.shape}")
    out = up.copy()
    out[0] = xf
    return out


def build_stage2_input(v_ref, x, cfg):
    """Encode the HR hybrid reference and the input image into conditioning."""
    z_ref = encode(v_ref, cfg)
    z_x = encode(as_f32(x, "x")[None], cfg)[0]
    return StageTwoInput(z_ref=z_ref, z_x=z_x)


def init_noise_blocks_loop(rng, t, h, w, c):
    """Initial latents with one `Rng.split` stream per block, block 1 zero."""
    z = np.zeros((t, h, w, c), FLOAT)
    for i in range(2, t + 1):
        z[i - 1] = rng.split(SUB_INIT_NOISE, i).normal((h, w, c))
    return z


def assemble_input(z_noisy, z_ref, z_x):
    """Anchor the noisy stream and concatenate the reference along channels.

    Returns a fresh (t, h, w, 2c) tensor; z_noisy is not mutated. The first
    c channels of block 1 are z_x; blocks 2..t pass through unchanged.
    """
    if z_noisy.shape != z_ref.shape:
        raise ValueError(f"noisy/reference shape mismatch {z_noisy.shape} vs {z_ref.shape}")
    if z_x.shape != z_noisy.shape[1:]:
        raise ValueError(f"anchor shape {z_x.shape} does not match blocks {z_noisy.shape[1:]}")
    anchored = z_noisy.copy()
    anchored[0] = z_x
    return np.concatenate([anchored, z_ref], axis=-1)


def stage1_loss_terms(params, z0, rng):
    """The stage-1 loss before the window loss: noise every block of the clip,
    re-install the clean anchor, broadcast it as the reference, one pass."""
    t = z0.shape[0]
    if t < 2:
        raise ValueError("clip too short: need at least one block beyond the anchor")
    sigma = 1.0 - rng.split(1).uniform01()
    eps = rng.split(2).normal(z0.shape)
    z = (1.0 - sigma) * z0 + sigma * eps
    x = assemble_input(z, np.broadcast_to(z0[0], z0.shape), z0[0]).reshape(t, -1)
    mask = np.ones(t, bool)
    mask[0] = False
    return mixer.loss_and_grad(params, x, z0.reshape(t, -1), mask, sigma,
                               eps.reshape(t, -1), indices=range(1, t + 1))


def anchored_denoise(params, sigmas, z, z_x):
    """The stage-1 rollout before the shared full-window denoise: every block
    in one window, block 1 held, the broadcast anchor as the reference."""
    t = z.shape[0]
    return mixer.denoise_window(params, sigmas, z, np.broadcast_to(z_x, z.shape), t - 1,
                                range(1, t + 1))


def stage1_train_step(model, v_lr, rng, lr=1e-2):
    """One stage-1 step on a video: encode, the retired loss, SGD update."""
    loss, grads = stage1_loss_terms(model.params, encode(v_lr, model.codec_cfg), rng)
    mixer.sgd_update(model.params, grads, lr)
    return loss


def stage2_loss_terms(params, z_ref, z0, rng, M, N):
    """The stage-2 loss before the window loss: a seeded segment of the
    (M, N) plan, built here from the brute-force enumerator."""
    segs = plan_bruteforce(z0.shape[0], M, N)
    seg = segs[rng.split(4).integers(0, len(segs))]
    idx = seg["W"]
    mask = np.array([i in seg["I"] for i in idx], bool)
    sigma = 1.0 - rng.split(1).uniform01()
    n = len(idx)
    eps = rng.split(2).normal((n,) + z0.shape[1:])
    rows = np.asarray(idx) - 1
    z_win = z0[rows]
    z_win[mask] = (1.0 - sigma) * z_win[mask] + sigma * eps[mask]
    x = np.concatenate([z_win, z_ref[rows]], axis=-1).reshape(n, -1)
    return mixer.loss_and_grad(params, x, z0[rows].reshape(n, -1), mask, sigma,
                               eps.reshape(n, -1), indices=idx)


def stage2_train_step(model, v_ref_lr, v_hr, rng, M=None, N=None, lr=1e-2):
    """One stage-2 step on a (reference LR, HR) video pair; (M, N) default to
    a seeded draw from MN_CHOICES. Returns (loss, M, N)."""
    if M is None or N is None:
        M, N = stage2.MN_CHOICES[rng.split(3).integers(0, len(stage2.MN_CHOICES))]
    z_ref, z0 = stage2.encode_pair(model.codec_cfg, v_ref_lr, v_hr)
    loss, grads = stage2_loss_terms(model.params, z_ref, z0, rng, M, N)
    mixer.sgd_update(model.params, grads, lr)
    return loss, M, N


def zero_mixer(d_in, d_out, d=32, mask_mode="bidirectional"):
    """All-zero parameters: predicts v_hat = 0, a null model for plumbing tests."""
    return mixer.MixerParams(
        w_in=np.zeros((d_in, d), FLOAT), w_q=np.zeros((d, d), FLOAT),
        w_k=np.zeros((d, d), FLOAT), w_v=np.zeros((d, d), FLOAT),
        w_out=np.zeros((d, d_out), FLOAT), d=d, mask_mode=mask_mode)


def null_stage1(lr_h=8, lr_w=8, codec_cfg=CodecConfig(), d=32, K=4):
    """Zero-parameter stage-1 model: predicts zero velocity everywhere."""
    h, w, c = lr_h // codec_cfg.f_s, lr_w // codec_cfg.f_s, codec_cfg.c
    return mixer.StageModel(params=zero_mixer(h * w * 2 * c, h * w * c, d=d),
                            codec_cfg=codec_cfg, schedule=mixer.default_schedule(K))


def load_pairs(in_dir):
    """Read back the (v_tilde, v_hr) pairs that transition.save_pairs wrote."""
    pairs = []
    with open(os.path.join(in_dir, "pairs.jsonl")) as f:
        for line in f:
            row = json.loads(line)
            pairs.append((read_siv1(os.path.join(in_dir, row["lr_tilde"])),
                          read_siv1(os.path.join(in_dir, row["hr"]))))
    return pairs
