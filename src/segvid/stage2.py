"""Segment-wise denoising for the high-resolution stage.

Inference walks the segment plan in order. Each segment draws the initial
noise of its own blocks, gathers its window, a conditioning prefix (anchor,
up to N finalized neighbors) followed by a noisy tail (the segment's own
blocks), runs the full sigma ladder on that window, and writes the tail back
as one contiguous run of global blocks.
Conditioning content is never written, so the anchor and all finalized
history are bit-stable for the rest of the run, and a finished segment can
be decoded immediately.

Stage 1 is the one-window case of the same denoiser; the stages share the
model type, the window loss and the training loop (see mixer). What is this
stage's own is its policy: (M, N) drawn from MN_CHOICES, a seeded segment of
that plan as the training window, the hybrid reference, reference input rows
that start zero-initialized (a fresh model ignores reference content until
training moves those weights), and a 7:3 mix of transition and plain
downsampled pairs. Training and evaluation take encoded pairs
(`encode_pair`), so a caller encodes each pair once.
"""

from __future__ import annotations

import numpy as np

from . import mixer, scheduler, stage1 as stage1_mod
from .codec import CodecConfig, encode
from .conditioning import StageTwoInput, encode_reference
from .grid import FLOAT, Rng, as_f32, noise_filler, resize_spatial

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


def init_latents(inp: StageTwoInput, t: int, seed: int) -> np.ndarray:
    """Anchor installed, blocks 2..t at their seeded initial noise."""
    return mixer.init_latents(inp.z_x, t, seed, NOISE_KEY)


def denoise_segment(model: mixer.StageModel, z: np.ndarray, inp: StageTwoInput,
                    p: scheduler.SegmentPlan, s: int, on_step=None) -> None:
    """Denoise segment s in place on the global latents z: its noisy tail,
    global blocks a_s .. a_s + m - 1, is written back as one slice."""
    z_win, idx = scheduler.window_gather(z, p, s)
    ref_win, _ = scheduler.window_gather(inp.z_ref, p, s)
    a, m = p.a[s - 1], len(p.I[s - 1])
    out = mixer.denoise_window(model.params, model.schedule.sigmas, z_win, ref_win,
                               m, idx, on_step=on_step)
    z[a - 1:a - 1 + m] = out[-m:]


def infer_csg(model: mixer.StageModel, inp: StageTwoInput, p: scheduler.SegmentPlan,
              seed: int, on_step=None, on_segment=None) -> np.ndarray:
    """Sequential segment-wise inference. Deterministic per seed.

    Each segment's noisy tail is drawn when the loop reaches it, with the
    same bits as init_latents, so the work before segment 1 does not grow
    with t. Blocks no segment has reached yet hold zeros.

    on_step(s, k, window, idx) observes each denoise step; on_segment(s, z)
    observes the global latents after each segment.
    """
    if inp.z_ref.shape[0] != p.t:
        raise ValueError(f"reference has {inp.z_ref.shape[0]} blocks, plan expects {p.t}")
    z = np.zeros((p.t,) + inp.z_x.shape, FLOAT)
    z[0] = inp.z_x
    fill = noise_filler(Rng(seed).split(NOISE_KEY))
    for s in range(1, p.S + 1):
        a = p.a[s - 1]
        fill(z[a - 1:a - 1 + len(p.I[s - 1])], a)
        hook = None if on_step is None else (lambda k, zw, idx, _s=s: on_step(_s, k, zw, idx))
        denoise_segment(model, z, inp, p, s, on_step=hook)
        if on_segment is not None:
            on_segment(s, z)
    return z


def infer_full(model: mixer.StageModel, inp: StageTwoInput, seed: int) -> np.ndarray:
    """Whole-sequence denoising in one window (no segmentation), anchor fixed."""
    z = init_latents(inp, inp.z_ref.shape[0], seed)
    return mixer.denoise_full(model.params, model.schedule.sigmas, z, inp.z_ref)


def encode_pair(cfg: CodecConfig, v_ref_lr: np.ndarray, v_hr: np.ndarray):
    """(z_ref, z0): latents of the hybrid reference built from a (reference
    LR video, ground-truth HR video) pair, and of the HR clip."""
    v_hr = as_f32(v_hr, "v_hr")
    return encode_reference(v_ref_lr, v_hr[0], cfg).z_ref, encode(v_hr, cfg)


def _segment_window(z_ref: np.ndarray, z0: np.ndarray, rng, M: int, N: int):
    """A seeded segment of the (M, N) plan over the pair's latents."""
    p = scheduler.plan(z0.shape[0], M, N)
    s = rng.split(4).integers(0, p.S)
    return z_ref, z0, p.W[s], len(p.I[s])


def eval_loss(model: mixer.StageModel, latents, seed: int, draws: int = 8,
              M: int = 3, N: int = 1) -> float:
    """Mean masked loss over seeded draws on encoded pairs; no update."""
    return mixer.eval_windows(
        model.params, lambda j, rng: (*_segment_window(*latents[j % len(latents)], rng, M, N), ()),
        seed, draws)


def train(model: mixer.StageModel, transition_latents, down_latents, steps: int, seed: int,
          lr: float = 1e-2):
    """SGD over a 7:3 seeded mix of encoded transition and plain downsampled
    pairs, with (M, N) drawn per step from MN_CHOICES.

    Returns log rows (step, loss, M, N, source). Raises FloatingPointError,
    naming the step, if training diverges.
    """
    def window(step, rng):
        use_trans = bool(transition_latents) and rng.split(5).uniform01() < TRANSITION_SHARE
        pool = transition_latents if use_trans else down_latents
        M, N = MN_CHOICES[rng.split(3).integers(0, len(MN_CHOICES))]
        return (*_segment_window(*pool[step % len(pool)], rng, M, N),
                (M, N, "transition" if use_trans else "downsampled"))

    return mixer.train_windows(model.params, window, steps, seed, lr, stage=2)


def downsampled_pair(v_hr: np.ndarray, factor: int):
    """Plain training pair: (Down(v_hr), v_hr)."""
    return resize_spatial(as_f32(v_hr, "v_hr"), "down_avg", factor), v_hr


def pipeline_inputs(s1, model: mixer.StageModel, x_hr: np.ndarray, T: int, seed: int):
    """Stage I rollout plus conditioning assembly for one input image."""
    x = as_f32(x_hr, "x_hr")
    factor = model.codec_cfg.f_s  # LR is one spatial pooling factor below HR
    x_lr = resize_spatial(x[None], "down_avg", factor)[0]
    v_lr = stage1_mod.generate_lr(s1, x_lr, T, seed)
    return encode_reference(v_lr, x, model.codec_cfg)
