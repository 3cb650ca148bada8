"""Low-resolution motion generator: the one-window case of the windowed
denoiser.

Its LR video is the HR video pooled once by the codec's f_s (``low_res``),
which it encodes, pooling by f_s again; ``lr_size`` checks that both divide.
Stage 1 is the segment loop (``mixer.denoise_segments``) over the plan with
M = t-1 and N = 0: one window, run in place, that holds every block,
conditioned by the broadcast anchor latent (the encoded first frame) as
every block's reference. Block 1 holds the anchor content and is never
updated by the sampler. Partial denoising from an intermediate noise level,
which the stage-transition synthesizer drives, is the same loop from the
caller's latents, with a sigma ladder of its own.

Stage 1 hands its rollout to stage 2 as latents (``generate_lr``), not as a
decoded LR video: stage 2 only needs each block's mean frame, which
``codec.decode_group_means`` reads off the latents.

Training and evaluation take latents, so a caller encodes each clip once and
every step works on those latents. A run packs each clip once as [clean |
ref], stage 2's training layout, and each step gathers its window as stage 2
gathers a segment (scheduler.window_gather): segment 1 of plan(t, t-1, 0).
"""

from __future__ import annotations

import numpy as np

from . import mixer, scheduler
from .codec import CodecConfig, encode, latent_shape, pool
from .grid import Rng, as_f32, noise_filler, pixel_copy, repeat_view

NOISE_KEY = 1  # initial-noise key of this stage; stage 2 uses 2


def lr_size(H: int, W: int, cfg: CodecConfig) -> tuple[int, int]:
    """(h, w) of the LR frames of H x W HR frames, pooled by f_s; a one-line
    ValueError unless the LR frames pool by f_s again, as encoding does."""
    try:
        _, h, w, _ = latent_shape(1, H, W, cfg)
        latent_shape(1, h, w, cfg)
    except ValueError:
        raise ValueError(f"frames {H}x{W} not divisible by f_s*f_s={cfg.f_s ** 2}: stage 1 "
                         f"pools them by f_s={cfg.f_s} to LR, then again to latents") from None
    return h, w


def low_res(video: np.ndarray, cfg: CodecConfig) -> np.ndarray:
    """The LR video of a (T, H, W, 3) HR video: every frame pooled by f_s,
    to a size that ``lr_size`` has checked stage 1 can encode."""
    v = as_f32(video, "video")
    lr = pool(v, cfg)
    lr_size(v.shape[1], v.shape[2], cfg)
    return lr


def new_stage1(seed: int, lr_h: int = 8, lr_w: int = 8,
               codec_cfg: CodecConfig = CodecConfig(), d: int = 32,
               K: int = 4) -> mixer.StageModel:
    return mixer.new_model(seed, lr_h, lr_w, codec_cfg, d=d, K=K)


def load_stage1(in_dir: str) -> mixer.StageModel:
    return mixer.load_model(in_dir, "stage1")


def _rollout(model: mixer.StageModel, sigmas, anchor: np.ndarray, z_x: np.ndarray, t: int,
             fill) -> np.ndarray:
    """The t latents of plan(t, t - 1, 0) from anchor and fill, with the
    broadcast anchor latent z_x as the reference, as a new array; for t = 1,
    a copy of the anchor (there is nothing to denoise)."""
    if t == 1:
        return anchor[None].copy()
    z = mixer.denoise_segments(model.params, sigmas, scheduler.plan(t, t - 1, 0), anchor,
                               repeat_view(z_x, t), fill)
    return pixel_copy(z)


def generate_lr(model: mixer.StageModel, x_lr: np.ndarray, T: int, seed: int) -> np.ndarray:
    """Latents (t, h, w, c) of a T-frame LR video whose first frame
    reconstructs x_lr; ``codec.decode`` turns them into the video."""
    x = as_f32(x_lr, "x_lr")
    if x.ndim != 3 or x.shape[2] != 3:
        raise ValueError(f"x_lr must be (H,W,3), got {x.shape}")
    cfg = model.codec_cfg
    t = latent_shape(T, x.shape[0], x.shape[1], cfg)[0]
    z_x = encode(x[None], cfg)[0]
    return _rollout(model, model.schedule.sigmas, z_x, z_x, t,
                    noise_filler(Rng(seed).split(NOISE_KEY), t))


def denoise_from(model: mixer.StageModel, z_noisy: np.ndarray, x_lr: np.ndarray,
                 sigma_start: float, steps: int) -> np.ndarray:
    """Partially denoise given latents: `steps` Euler steps from sigma_start
    down to 0, conditioned on x_lr. Block 1 is held fixed (read-only anchor
    position) but keeps the caller's content."""
    sigmas = mixer.uniform_sigmas(sigma_start, steps)
    z_x = encode(as_f32(x_lr, "x_lr")[None], model.codec_cfg)[0]
    if z_noisy.shape[1:] != z_x.shape:
        raise ValueError(f"latent blocks {z_noisy.shape[1:]} do not match anchor {z_x.shape}")
    z = as_f32(z_noisy, "z_noisy")
    return _rollout(model, sigmas, z[0], z_x, len(z),
                    lambda out, a: np.copyto(out, z[a - 1:a - 1 + len(out)]))


def _draws(latents):
    """The windows callback of a run over the clips' latents: each clip
    packed once as [clean | ref] with the broadcast anchor as reference, and
    drawn round-robin as segment 1 of plan(t, t - 1, 0), the whole clip."""
    clips = []
    for z0 in latents:
        t = z0.shape[0]
        if t < 2:
            raise ValueError("clip too short: need at least one block beyond the anchor")
        packed = np.concatenate([z0, repeat_view(z0[0], t)], axis=-1)
        clips.append((packed, scheduler.plan(t, t - 1, 0)))
    return lambda j, rng: (*clips[j % len(clips)], 1, ())


def eval_loss(model: mixer.StageModel, latents, seed: int, draws: int = 8) -> float:
    """Mean loss over seeded (sigma, eps) draws on the clips' latents; no update."""
    return mixer.eval_windows(model.params, _draws(latents), seed, draws)


def train(model: mixer.StageModel, latents, steps: int, seed: int, lr: float = 1e-2):
    """SGD over the clips' latents, round-robin with seeded draws. Returns the
    (step, loss) log. Raises FloatingPointError, naming the step, if training
    diverges."""
    return mixer.train_windows(model.params, _draws(latents), steps, seed, lr, stage=1)
