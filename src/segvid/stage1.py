"""Low-resolution motion generator.

A mixer over the full latent block sequence, conditioned by channel-
concatenating the broadcast anchor latent (the encoded first frame) to every
block. Block 1 holds the anchor content and is never updated by the sampler.
Also exposes partial denoising from an intermediate noise level, which the
stage-transition synthesizer drives.

Training encodes each clip once per `train` or `eval_loss` call; every step
then works on those latents.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import mixer
from .codec import CodecConfig, decode, encode, latent_shape
from .grid import Rng, SUB_TRAIN, as_f32, init_noise_blocks


@dataclass
class Stage1Model:
    params: mixer.MixerParams
    codec_cfg: CodecConfig
    schedule: mixer.SigmaSchedule


def new_stage1(seed: int, lr_h: int = 8, lr_w: int = 8,
               codec_cfg: CodecConfig = CodecConfig(), d: int = 32,
               K: int = 4) -> Stage1Model:
    h, w, c = lr_h // codec_cfg.f_s, lr_w // codec_cfg.f_s, codec_cfg.c
    params = mixer.init_mixer(Rng(seed), d_in=h * w * 2 * c, d_out=h * w * c, d=d)
    return Stage1Model(params=params, codec_cfg=codec_cfg, schedule=mixer.default_schedule(K))


def null_stage1(lr_h: int = 8, lr_w: int = 8, codec_cfg: CodecConfig = CodecConfig(),
                d: int = 32, K: int = 4) -> Stage1Model:
    """Zero-parameter model: predicts zero velocity everywhere."""
    h, w, c = lr_h // codec_cfg.f_s, lr_w // codec_cfg.f_s, codec_cfg.c
    params = mixer.zero_mixer(d_in=h * w * 2 * c, d_out=h * w * c, d=d)
    return Stage1Model(params=params, codec_cfg=codec_cfg, schedule=mixer.default_schedule(K))


def _noise_rng(seed: int) -> Rng:
    # key layer 1 = this stage, so LR and HR noise streams never collide
    return Rng(seed).split(1)


def _anchored_denoise(model: Stage1Model, z: np.ndarray, z_x: np.ndarray, sigmas) -> np.ndarray:
    t = z.shape[0]
    ref = np.broadcast_to(z_x, z.shape)
    upd = np.ones(t, bool)
    upd[0] = False
    return mixer.denoise_window(model.params, sigmas, z, ref, upd, range(1, t + 1))


def generate_lr(model: Stage1Model, x_lr: np.ndarray, T: int, seed: int) -> np.ndarray:
    """Generate a T-frame LR video whose first frame reconstructs x_lr."""
    x = as_f32(x_lr, "x_lr")
    if x.ndim != 3 or x.shape[2] != 3:
        raise ValueError(f"x_lr must be (H,W,3), got {x.shape}")
    cfg = model.codec_cfg
    t, h, w, c = latent_shape(T, x.shape[0], x.shape[1], cfg)
    z_x = encode(x[None], cfg)[0]
    z = init_noise_blocks(_noise_rng(seed), t, h, w, c)
    z[0] = z_x
    z0 = _anchored_denoise(model, z, z_x, model.schedule.sigmas)
    return decode(z0, cfg)


def denoise_from(model: Stage1Model, z_noisy: np.ndarray, x_lr: np.ndarray,
                 sigma_start: float, steps: int) -> np.ndarray:
    """Partially denoise given latents: `steps` Euler steps from sigma_start
    down to 0, conditioned on x_lr. Block 1 is held fixed (read-only anchor
    position) but keeps the caller's content."""
    sigmas = mixer.uniform_sigmas(sigma_start, steps)
    z_x = encode(as_f32(x_lr, "x_lr")[None], model.codec_cfg)[0]
    if z_noisy.shape[1:] != z_x.shape:
        raise ValueError(f"latent blocks {z_noisy.shape[1:]} do not match anchor {z_x.shape}")
    return _anchored_denoise(model, as_f32(z_noisy, "z_noisy"), z_x, sigmas)


def train_step(model: Stage1Model, v_lr: np.ndarray, rng: Rng, lr: float = 1e-2) -> float:
    """One teacher-forced flow-matching step on a clean LR clip."""
    return _latent_step(model, encode(v_lr, model.codec_cfg), rng, lr)


def _latent_step(model: Stage1Model, z0: np.ndarray, rng: Rng, lr: float) -> float:
    loss, grads = _loss_terms(model, z0, rng)
    mixer.sgd_update(model.params, grads, lr)
    return loss


def eval_loss(model: Stage1Model, clips, seed: int, draws: int = 8) -> float:
    """Mean masked loss over seeded (sigma, eps) draws; no update."""
    zs = [encode(v, model.codec_cfg) for v in clips]
    tot = 0.0
    g = Rng(seed).split(SUB_TRAIN)
    for j in range(draws):
        loss, _ = _loss_terms(model, zs[j % len(zs)], g.split(j))
        tot += loss
    return tot / draws


def _loss_terms(model: Stage1Model, z0: np.ndarray, rng: Rng):
    t, h, w, c = z0.shape
    if t < 2:
        raise ValueError("clip too short: need at least one block beyond the anchor")
    sigma = 1.0 - rng.split(1).uniform01()   # U(0, 1]
    eps = rng.split(2).normal(z0.shape)
    z = (1.0 - sigma) * z0 + sigma * eps
    z[0] = z0[0]                             # clean anchor, teacher forcing
    ref = np.broadcast_to(z0[0], z0.shape)
    x = np.concatenate([z, ref], axis=-1).reshape(t, -1)
    mask = np.ones(t, bool)
    mask[0] = False
    loss, grads = mixer.loss_and_grad(
        model.params, x, z0.reshape(t, -1), mask, sigma, eps.reshape(t, -1),
        indices=range(1, t + 1))
    return loss, grads


def train(model: Stage1Model, clips, steps: int, seed: int, lr: float = 1e-2):
    """SGD over the clip list, round-robin with seeded draws. Returns the
    (step, loss) log. Raises FloatingPointError, naming the step, if training
    diverges."""
    zs = [encode(v, model.codec_cfg) for v in clips]
    g = Rng(seed).split(SUB_TRAIN)
    log = []
    for step in range(steps):
        loss = _latent_step(model, zs[step % len(zs)], g.split(step), lr)
        if not math.isfinite(loss):
            raise FloatingPointError(f"stage 1 training diverged: loss {loss} at step {step}")
        log.append((step, loss))
    if not model.params.finite():
        raise FloatingPointError(
            f"stage 1 training diverged: parameters non-finite after step {steps - 1}")
    return log


def save_stage1(model: Stage1Model, out_dir: str) -> None:
    mixer.save_params(model.params, out_dir)
    cfg = model.codec_cfg
    doc = {"f_s": cfg.f_s, "f_t": cfg.f_t, "c": cfg.c, "lift_seed": cfg.lift_seed,
           "sigmas": list(model.schedule.sigmas)}
    with open(os.path.join(out_dir, "stage1.json"), "w") as f:
        json.dump(doc, f, indent=2)


def load_stage1(in_dir: str) -> Stage1Model:
    with open(os.path.join(in_dir, "stage1.json")) as f:
        doc = json.load(f)
    cfg = CodecConfig(f_s=doc["f_s"], f_t=doc["f_t"], c=doc["c"], lift_seed=doc["lift_seed"])
    return Stage1Model(params=mixer.load_params(in_dir), codec_cfg=cfg,
                       schedule=mixer.SigmaSchedule(tuple(doc["sigmas"])))
