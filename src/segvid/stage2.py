"""Segment-wise denoising for the high-resolution stage.

Inference walks the segment plan in order. Each segment gathers its window
(anchor, up to N finalized neighbors, the M current noisy blocks), runs the
full sigma ladder on that window, and writes back only the current segment's
blocks. Conditioning content is never written, so the anchor and all
finalized history are bit-stable for the rest of the run, and a finished
segment can be decoded immediately.

Training is teacher-forced: draw one segment of a fresh plan, feed clean
ground-truth latents for the conditioning blocks, noise the segment blocks
at a sampled sigma, and take one gradient step on the masked loss. The
reference half of the input rows starts zero-initialized, so a fresh model
ignores reference content until training moves those weights. Training
encodes each (reference, HR) pair once per `train` or `eval_loss` call;
every step then works on those latents.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import mixer, scheduler, stage1 as stage1_mod
from .codec import CodecConfig, encode
from .conditioning import StageTwoInput, build_hybrid_reference, build_stage2_input
from .grid import Rng, SUB_TRAIN, as_f32, init_noise_blocks, resize_spatial

MN_CHOICES = ((2, 1), (2, 2), (3, 1), (3, 2))
TRANSITION_SHARE = 0.7  # transition pairs vs plain downsampled pairs


@dataclass
class Stage2Model:
    params: mixer.MixerParams
    codec_cfg: CodecConfig
    schedule: mixer.SigmaSchedule

    @property
    def mask_mode(self) -> str:
        return self.params.mask_mode


def new_stage2(seed: int, hr_h: int = 32, hr_w: int = 32,
               codec_cfg: CodecConfig = CodecConfig(), d: int = 32, K: int = 4,
               mask_mode: str = "bidirectional") -> Stage2Model:
    h, w, c = hr_h // codec_cfg.f_s, hr_w // codec_cfg.f_s, codec_cfg.c
    params = mixer.init_mixer(Rng(seed), d_in=h * w * 2 * c, d_out=h * w * c, d=d,
                              mask_mode=mask_mode, zero_rows=mixer.ref_rows(h, w, c))
    return Stage2Model(params=params, codec_cfg=codec_cfg, schedule=mixer.default_schedule(K))


def _noise_rng(seed: int) -> Rng:
    # key layer 2 = this stage (stage1 uses 1)
    return Rng(seed).split(2)


def init_latents(inp: StageTwoInput, t: int, seed: int) -> np.ndarray:
    """Anchor installed, blocks 2..t at their seeded initial noise."""
    h, w, c = inp.z_x.shape
    z = init_noise_blocks(_noise_rng(seed), t, h, w, c)
    z[0] = inp.z_x
    return z


def denoise_segment(model: Stage2Model, z: np.ndarray, inp: StageTwoInput,
                    p: scheduler.SegmentPlan, s: int, on_step=None) -> None:
    """Denoise segment s in place on the global latents z."""
    z_win, idx = scheduler.window_gather(z, p, s)
    ref_win, _ = scheduler.window_gather(inp.z_ref, p, s)
    noisy = set(p.I[s - 1])
    upd = np.array([i in noisy for i in idx], bool)
    out = mixer.denoise_window(model.params, model.schedule.sigmas, z_win, ref_win,
                               upd, idx, on_step=on_step)
    scheduler.scatter_back(z, idx, out, only=noisy)


def infer_csg(model: Stage2Model, inp: StageTwoInput, p: scheduler.SegmentPlan,
              seed: int, on_step=None, on_segment=None) -> np.ndarray:
    """Sequential segment-wise inference. Deterministic per seed.

    on_step(s, k, window, idx) observes each denoise step; on_segment(s, z)
    observes the global latents after each segment.
    """
    if inp.z_ref.shape[0] != p.t:
        raise ValueError(f"reference has {inp.z_ref.shape[0]} blocks, plan expects {p.t}")
    z = init_latents(inp, p.t, seed)
    for s in range(1, p.S + 1):
        hook = None if on_step is None else (lambda k, zw, idx, _s=s: on_step(_s, k, zw, idx))
        denoise_segment(model, z, inp, p, s, on_step=hook)
        if on_segment is not None:
            on_segment(s, z)
    return z


def infer_full(model: Stage2Model, inp: StageTwoInput, seed: int) -> np.ndarray:
    """Whole-sequence denoising in one window (no segmentation), anchor fixed."""
    t = inp.z_ref.shape[0]
    z = init_latents(inp, t, seed)
    upd = np.ones(t, bool)
    upd[0] = False
    return mixer.denoise_window(model.params, model.schedule.sigmas, z, inp.z_ref,
                                upd, range(1, t + 1))


def train_step(model: Stage2Model, v_ref_lr: np.ndarray, v_hr: np.ndarray, rng: Rng,
               M: int | None = None, N: int | None = None, lr: float = 1e-2):
    """One teacher-forced step on a (reference LR video, ground-truth HR) pair.

    (M, N) default to a seeded draw from {2,3} x {1,2}. Returns (loss, M, N).
    """
    z_ref, z0 = _encode_pair(model.codec_cfg, v_ref_lr, v_hr)
    return _latent_step(model, z_ref, z0, rng, M, N, lr)


def _latent_step(model: Stage2Model, z_ref: np.ndarray, z0: np.ndarray, rng: Rng,
                 M: int | None, N: int | None, lr: float):
    if M is None or N is None:
        M, N = MN_CHOICES[rng.split(3).integers(0, len(MN_CHOICES))]
    loss, grads = _loss_terms(model, z_ref, z0, rng, M, N)
    mixer.sgd_update(model.params, grads, lr)
    return loss, M, N


def _encode_pair(cfg: CodecConfig, v_ref_lr: np.ndarray, v_hr: np.ndarray):
    """(z_ref, z0): latents of the hybrid reference built from the pair, and
    of the HR clip."""
    v_hr = as_f32(v_hr, "v_hr")
    factor = v_hr.shape[1] // v_ref_lr.shape[1]
    v_ref = build_hybrid_reference(v_ref_lr, v_hr[0], factor)
    return encode(v_ref, cfg), encode(v_hr, cfg)


def _loss_terms(model: Stage2Model, z_ref: np.ndarray, z0: np.ndarray,
                rng: Rng, M: int, N: int):
    t = z0.shape[0]
    if t < 2:
        raise ValueError("clip too short: need at least one block beyond the anchor")

    p = scheduler.plan(t, M, N)
    s = 1 + rng.split(4).integers(0, p.S)
    idx = p.W[s - 1]
    noisy = set(p.I[s - 1])
    mask = np.array([i in noisy for i in idx], bool)

    sigma = 1.0 - rng.split(1).uniform01()   # U(0, 1]
    n = len(idx)
    hw_c = z0.shape[1:]
    eps = rng.split(2).normal((n,) + hw_c)
    rows = np.asarray(idx) - 1
    z_win = z0[rows]                                    # clean, teacher forcing
    z_win[mask] = (1.0 - sigma) * z_win[mask] + sigma * eps[mask]
    ref_win = z_ref[rows]

    x = np.concatenate([z_win, ref_win], axis=-1).reshape(n, -1)
    clean = z0[rows].reshape(n, -1)
    loss, grads = mixer.loss_and_grad(model.params, x, clean, mask, sigma,
                                      eps.reshape(n, -1), indices=idx)
    return loss, grads


def eval_loss(model: Stage2Model, pairs, seed: int, draws: int = 8,
              M: int = 3, N: int = 1) -> float:
    """Mean masked loss over seeded draws; no update."""
    zs = [_encode_pair(model.codec_cfg, *pair) for pair in pairs]
    g = Rng(seed).split(SUB_TRAIN)
    tot = 0.0
    for j in range(draws):
        loss, _ = _loss_terms(model, *zs[j % len(zs)], g.split(j), M, N)
        tot += loss
    return tot / draws


def train(model: Stage2Model, transition_pairs, down_pairs, steps: int, seed: int,
          lr: float = 1e-2):
    """SGD over a 7:3 seeded mix of transition and plain downsampled pairs.

    Returns log rows (step, loss, M, N, source). Raises FloatingPointError,
    naming the step, if training diverges.
    """
    trans = [_encode_pair(model.codec_cfg, *pair) for pair in transition_pairs]
    down = [_encode_pair(model.codec_cfg, *pair) for pair in down_pairs]
    g = Rng(seed).split(SUB_TRAIN)
    log = []
    for step in range(steps):
        rs = g.split(step)
        use_trans = trans and rs.split(5).uniform01() < TRANSITION_SHARE
        pool = trans if use_trans else down
        z_ref, z0 = pool[step % len(pool)]
        loss, M, N = _latent_step(model, z_ref, z0, rs, None, None, lr)
        if not math.isfinite(loss):
            raise FloatingPointError(f"stage 2 training diverged: loss {loss} at step {step}")
        log.append((step, loss, M, N, "transition" if use_trans else "downsampled"))
    if not model.params.finite():
        raise FloatingPointError(
            f"stage 2 training diverged: parameters non-finite after step {steps - 1}")
    return log


def downsampled_pair(v_hr: np.ndarray, factor: int):
    """Plain training pair: (Down(v_hr), v_hr)."""
    return resize_spatial(as_f32(v_hr, "v_hr"), "down_avg", factor), v_hr


def pipeline_inputs(s1, model: Stage2Model, x_hr: np.ndarray, T: int, seed: int):
    """Stage I rollout plus conditioning assembly for one input image."""
    x = as_f32(x_hr, "x_hr")
    factor = model.codec_cfg.f_s  # LR is one spatial pooling factor below HR
    x_lr = resize_spatial(x[None], "down_avg", factor)[0]
    v_lr = stage1_mod.generate_lr(s1, x_lr, T, seed)
    v_ref = build_hybrid_reference(v_lr, x, factor)
    return build_stage2_input(v_ref, x, model.codec_cfg)


def save_stage2(model: Stage2Model, out_dir: str) -> None:
    mixer.save_params(model.params, out_dir)
    cfg = model.codec_cfg
    doc = {"f_s": cfg.f_s, "f_t": cfg.f_t, "c": cfg.c, "lift_seed": cfg.lift_seed,
           "sigmas": list(model.schedule.sigmas)}
    with open(os.path.join(out_dir, "stage2.json"), "w") as f:
        json.dump(doc, f, indent=2)


def load_stage2(in_dir: str) -> Stage2Model:
    with open(os.path.join(in_dir, "stage2.json")) as f:
        doc = json.load(f)
    cfg = CodecConfig(f_s=doc["f_s"], f_t=doc["f_t"], c=doc["c"], lift_seed=doc["lift_seed"])
    return Stage2Model(params=mixer.load_params(in_dir), codec_cfg=cfg,
                       schedule=mixer.SigmaSchedule(tuple(doc["sigmas"])))
