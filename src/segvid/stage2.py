"""Segment-wise denoising for the high-resolution stage.

Inference walks the segment plan in order. A request's latents live in the
z half of one packed (t, h, w, 2c) [z | ref] buffer, the denoiser's input
layout, whose blocks stay zero until their segment. Each segment packs the
reference of its own blocks, draws their initial noise into a contiguous
tail buffer, gathers its window, a conditioning prefix (anchor, up to N
finalized neighbors) followed by a noisy tail (the segment's own blocks),
into the request's window buffer of that length, runs the full sigma ladder
there, and stores the tail in the z half as one contiguous run of global
blocks. Conditioning content is never written, so the anchor and all
finalized history are bit-stable for the rest of the run, and a finished
segment can be decoded immediately.

Stage 1 is the one-window case of the same denoiser; the stages share the
model type, the window loss and the training loop (see mixer). What is this
stage's own is its policy: (M, N) drawn from MN_CHOICES, a seeded segment of
that plan as the training window, the hybrid reference, reference input rows
that start zero-initialized (a fresh model ignores reference content until
training moves those weights), and a 7:3 mix of transition and plain
downsampled pairs (`stage1.low_res(v, cfg)`, v). Training and evaluation take
encoded pairs (`pair_latents`), so a caller encodes each HR clip once and
shares its latents between the clip's transition and plain pairs.
"""

from __future__ import annotations

import numpy as np

from . import mixer, scheduler, stage1 as stage1_mod
from .codec import CodecConfig, decode_group_means, group_means, lift
from .conditioning import StageTwoInput, encode_reference
from .grid import FLOAT, Rng, as_f32, noise_filler, pixel_views

MN_CHOICES = ((2, 1), (2, 2), (3, 1), (3, 2))
TRANSITION_SHARE = 0.7  # transition pairs vs plain downsampled pairs
NOISE_KEY = 2  # initial-noise key of this stage; stage 1 uses 1


def new_stage2(seed: int, hr_h: int = 32, hr_w: int = 32,
               codec_cfg: CodecConfig = CodecConfig(), d: int = 32, K: int = 4,
               mask_mode: str = "bidirectional") -> mixer.StageModel:
    """Fresh model whose reference rows start inert."""
    return mixer.new_model(seed, hr_h, hr_w, codec_cfg, d=d, K=K, mask_mode=mask_mode,
                           inert_ref=True)


def load_stage2(in_dir: str) -> mixer.StageModel:
    return mixer.load_model(in_dir, "stage2")


def infer_csg(model: mixer.StageModel, inp: StageTwoInput, p: scheduler.SegmentPlan,
              seed: int, on_step=None, on_segment=None) -> np.ndarray:
    """Sequential segment-wise inference. Deterministic per seed.

    The packed [z | ref] buffer (see the module docstring) is in the
    parameters' dtype. A segment packs the reference of its own blocks and
    draws their initial noise from the request's one noise stream when the
    loop reaches it, with the same bits as mixer.init_latents (see
    grid.noise_filler), so no per-block work precedes segment 1. It gathers
    its window's rows once (scheduler.window_gather with out=) and runs the
    ladder with the request's Workspace of that length. A plan has at most
    three window lengths, so a request builds at most three window buffers
    and Workspaces; every buffer is the request's own.

    on_step(s, k, window, idx) observes each denoise step, the window's z
    channels (a view valid until the next step); on_segment(s, z) observes
    the z half after each segment. Returns the latents as a new (t, h, w, c)
    float32 array.
    """
    if inp.z_ref.shape[0] != p.t:
        raise ValueError(f"reference has {inp.z_ref.shape[0]} blocks, plan expects {p.t}")
    params, sigmas = model.params, model.schedule.sigmas
    h, w, c = inp.z_x.shape
    packed = np.zeros((p.t, h, w, 2 * c), params.flat.dtype)
    packed[0, ..., :c], packed[0, ..., c:] = inp.z_x, inp.z_ref[0]
    z = packed[..., :c]
    tails = np.empty((min(p.M, p.t - 1), h, w, c), FLOAT)
    put_ref, got_ref = pixel_views(packed[..., c:], inp.z_ref)
    put_z, got_z = pixel_views(z, tails)
    windows = {}
    fill = noise_filler(Rng(seed).split(NOISE_KEY), p.t)
    for s in range(1, p.S + 1):
        a, m = p.a[s - 1], len(p.I[s - 1])
        rows = slice(a - 1, a - 1 + m)
        put_ref[rows] = got_ref[rows]
        tail = tails[:m]
        fill(tail, a)
        n = len(p.W[s - 1])
        if n not in windows:
            windows[n] = (np.empty((n, h, w, 2 * c), packed.dtype), mixer.Workspace(params, n))
        buf, ws = windows[n]
        win, idx = scheduler.window_gather(packed, p, s, out=buf)
        hook = None if on_step is None else (lambda k, zw, idx, _s=s: on_step(_s, k, zw, idx))
        mixer.denoise_window(params, sigmas, win, tail, idx, ws, on_step=hook)
        put_z[rows] = got_z[:m]
        if on_segment is not None:
            on_segment(s, z)
    out = np.empty((p.t, h, w, c), FLOAT)
    put, got = pixel_views(out, z)
    put[...] = got
    return out


def infer_full(model: mixer.StageModel, inp: StageTwoInput, seed: int) -> np.ndarray:
    """Whole-sequence denoising in one window (no segmentation), anchor fixed."""
    z = mixer.init_latents(inp.z_x, inp.z_ref.shape[0], seed, NOISE_KEY)
    return mixer.denoise_full(model.params, model.schedule.sigmas, z, inp.z_ref)


def pair_latents(cfg: CodecConfig, v_ref_lr: np.ndarray, z0: np.ndarray):
    """(z_ref, z0) of a (reference LR video, HR clip) training pair: the
    latents of the hybrid reference, whose anchor is block 1 of the HR
    clip's latents z0, and z0 itself. The caller encodes the HR clip, once
    for all the pairs it is in."""
    means = group_means(as_f32(v_ref_lr, "v_ref_lr"), cfg.f_t)
    return encode_reference(means, z0[0], cfg).z_ref, z0


def _segment_window(z_ref: np.ndarray, z0: np.ndarray, rng, M: int, N: int):
    """A seeded segment of the (M, N) plan over the pair's latents."""
    p = scheduler.plan(z0.shape[0], M, N)
    s = rng.integers(0, p.S)
    return z_ref, z0, p.W[s], len(p.I[s])


def eval_loss(model: mixer.StageModel, latents, seed: int, draws: int = 8,
              M: int = 3, N: int = 1) -> float:
    """Mean masked loss over seeded draws on encoded pairs; no update."""
    return mixer.eval_windows(
        model.params,
        lambda j, rng, gather: (gather(*_segment_window(*latents[j % len(latents)], rng, M, N)),
                                ()),
        seed, draws)


def train(model: mixer.StageModel, transition_latents, down_latents, steps: int, seed: int,
          lr: float = 1e-2):
    """SGD over a 7:3 seeded mix of encoded transition and plain downsampled
    pairs, with (M, N) drawn per step from MN_CHOICES. Each step draws, from
    the run's one stream: the source (only when there are transition pairs),
    (M, N), the segment, then sigma and eps.

    Returns log rows (step, loss, M, N, source). Raises FloatingPointError,
    naming the step, if training diverges.
    """
    def window(step, rng, gather):
        use_trans = bool(transition_latents) and rng.uniform01() < TRANSITION_SHARE
        pool = transition_latents if use_trans else down_latents
        M, N = MN_CHOICES[rng.integers(0, len(MN_CHOICES))]
        return (gather(*_segment_window(*pool[step % len(pool)], rng, M, N)),
                (M, N, "transition" if use_trans else "downsampled"))

    return mixer.train_windows(model.params, window, steps, seed, lr, stage=2)


def pipeline_inputs(s1, model: mixer.StageModel, x_hr: np.ndarray, T: int, seed: int):
    """Stage I rollout plus conditioning assembly for one input image.

    The image is pooled once: its LR frame conditions stage 1, and lifted it
    is the stage-2 anchor latent. The stage-1 latents give the LR block means
    directly; the LR video is never decoded."""
    cfg = model.codec_cfg
    if s1.codec_cfg.f_t != cfg.f_t:
        raise ValueError(f"stage-1 f_t={s1.codec_cfg.f_t} differs from stage-2 f_t={cfg.f_t}")
    x_lr = stage1_mod.low_res(as_f32(x_hr, "x_hr")[None], cfg)
    z_lr = stage1_mod.generate_lr(s1, x_lr[0], T, seed)
    return encode_reference(decode_group_means(z_lr, s1.codec_cfg), lift(x_lr, cfg)[0], cfg)
