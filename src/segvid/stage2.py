"""Segment-wise denoising for the high-resolution stage.

Inference is the package's one denoising loop, mixer.denoise_segments, over
a segment plan: a conditioning prefix (anchor, up to N finalized neighbors)
followed by a noisy tail (the segment's own blocks) per window, with the
hybrid reference and this stage's initial-noise stream. Conditioning
content is never written, so the anchor and all finalized history are
bit-stable for the rest of the run, and a finished segment can be decoded
immediately.

Stage 1 is the one-window case of the same loop; the stages share the
model type, that loop, the window loss and the training loop (see mixer).
What is this stage's own is its policy: (M, N) drawn from MN_CHOICES, a
seeded segment of that plan as the training window, the hybrid reference, reference input rows
that start zero-initialized (a fresh model ignores reference content until
training moves those weights), and a 7:3 mix of transition and plain
downsampled pairs (`stage1.low_res(v, cfg)`, v). Training and evaluation take
pairs packed once in the request layout, [clean | ref] (`pair_latents`), so
a caller encodes each HR clip once and shares its latents between the
clip's transition and plain pairs; a training draw is then named as a
segment is, (packed, plan, s), and gathered by the same window_gather.
"""

from __future__ import annotations

import numpy as np

from . import mixer, scheduler, stage1 as stage1_mod
from .codec import CodecConfig, decode_group_means, group_means, lift
from .conditioning import StageTwoInput, encode_reference
from .grid import Rng, as_f32, noise_filler, pixel_copy

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
    """mixer.denoise_segments over the plan from the anchor latent, with the
    hybrid reference and this stage's initial-noise stream, drawn as the
    loop reaches each segment; on_step and on_segment are the loop's.
    Returns the latents as a new (t, h, w, c) float32 array."""
    fill = noise_filler(Rng(seed).split(NOISE_KEY), p.t)
    return pixel_copy(mixer.denoise_segments(model.params, model.schedule.sigmas, p, inp.z_x,
                                             inp.z_ref, fill, on_step, on_segment))


def pair_latents(cfg: CodecConfig, v_ref_lr: np.ndarray, z0: np.ndarray) -> np.ndarray:
    """A (reference LR video, HR clip) training pair, packed as inference
    packs a request: the (t, h, w, 2c) [z0 | z_ref] latents of the HR clip,
    z0, and of the hybrid reference, whose anchor is block 1 of z0. The
    caller encodes the HR clip, once for all the pairs it is in."""
    means = group_means(as_f32(v_ref_lr, "v_ref_lr"), cfg.f_t)
    return np.concatenate([z0, encode_reference(means, z0[0], cfg).z_ref], axis=-1)


def _segment(packed: np.ndarray, rng, M: int, N: int):
    """(packed, plan, s): a seeded segment s of the (M, N) plan over a pair."""
    p = scheduler.plan(packed.shape[0], M, N)
    return packed, p, rng.integers(0, p.S) + 1


def eval_loss(model: mixer.StageModel, latents, seed: int, draws: int = 8,
              M: int = 3, N: int = 1) -> float:
    """Mean masked loss over seeded draws on packed pairs; no update."""
    return mixer.eval_windows(
        model.params, lambda j, rng: (*_segment(latents[j % len(latents)], rng, M, N), ()),
        seed, draws)


def train(model: mixer.StageModel, transition_latents, down_latents, steps: int, seed: int,
          lr: float = 1e-2):
    """SGD over a 7:3 seeded mix of packed transition and plain downsampled
    pairs, with (M, N) drawn per step from MN_CHOICES. Each step draws, from
    the run's one stream: the source (only when there are transition pairs),
    (M, N), the segment, then sigma and eps.

    Returns log rows (step, loss, M, N, source). Raises FloatingPointError,
    naming the step, if training diverges.
    """
    def window(step, rng):
        use_trans = bool(transition_latents) and rng.uniform01() < TRANSITION_SHARE
        pool = transition_latents if use_trans else down_latents
        M, N = MN_CHOICES[rng.integers(0, len(MN_CHOICES))]
        return (*_segment(pool[step % len(pool)], rng, M, N),
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
