"""Low-resolution motion generator: the one-window case of the windowed
denoiser.

Stage 1 is the segment plan with M = t-1 and N = 0: a single window that
holds every block, conditioned by channel-concatenating the broadcast anchor
latent (the encoded first frame) to every block. Block 1 holds the anchor
content and is never updated by the sampler. Also exposes partial denoising
from an intermediate noise level, which the stage-transition synthesizer
drives.

Training and evaluation take latents, so a caller encodes each clip once and
every step works on those latents.
"""

from __future__ import annotations

import numpy as np

from . import mixer, scheduler
from .codec import CodecConfig, decode, encode, latent_shape
from .grid import as_f32

NOISE_KEY = 1  # initial-noise key of this stage; stage 2 uses 2


def new_stage1(seed: int, lr_h: int = 8, lr_w: int = 8,
               codec_cfg: CodecConfig = CodecConfig(), d: int = 32,
               K: int = 4) -> mixer.StageModel:
    return mixer.new_model(seed, lr_h, lr_w, codec_cfg, d=d, K=K)


def load_stage1(in_dir: str) -> mixer.StageModel:
    return mixer.load_model(in_dir, "stage1")


def generate_lr(model: mixer.StageModel, x_lr: np.ndarray, T: int, seed: int) -> np.ndarray:
    """Generate a T-frame LR video whose first frame reconstructs x_lr."""
    x = as_f32(x_lr, "x_lr")
    if x.ndim != 3 or x.shape[2] != 3:
        raise ValueError(f"x_lr must be (H,W,3), got {x.shape}")
    cfg = model.codec_cfg
    t = latent_shape(T, x.shape[0], x.shape[1], cfg)[0]
    z_x = encode(x[None], cfg)[0]
    z = mixer.init_latents(z_x, t, seed, NOISE_KEY)
    ref = np.broadcast_to(z_x, z.shape)
    return decode(mixer.denoise_full(model.params, model.schedule.sigmas, z, ref), cfg)


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
    return mixer.denoise_full(model.params, sigmas, z, np.broadcast_to(z_x, z.shape))


def _window(z0: np.ndarray):
    """The clip's one window, with the broadcast anchor as its reference."""
    t = z0.shape[0]
    if t < 2:
        raise ValueError("clip too short: need at least one block beyond the anchor")
    p = scheduler.plan(t, t - 1, 0)
    return np.broadcast_to(z0[0], z0.shape), z0, p.W[0], len(p.I[0]), ()


def eval_loss(model: mixer.StageModel, latents, seed: int, draws: int = 8) -> float:
    """Mean loss over seeded (sigma, eps) draws on the clips' latents; no update."""
    windows = [_window(z0) for z0 in latents]
    return mixer.eval_windows(model.params, lambda j, rng: windows[j % len(windows)],
                              seed, draws)


def train(model: mixer.StageModel, latents, steps: int, seed: int, lr: float = 1e-2):
    """SGD over the clips' latents, round-robin with seeded draws. Returns the
    (step, loss) log. Raises FloatingPointError, naming the step, if training
    diverges."""
    windows = [_window(z0) for z0 in latents]
    return mixer.train_windows(model.params, lambda step, rng: windows[step % len(windows)],
                               steps, seed, lr, stage=1)
