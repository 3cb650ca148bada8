"""Command-line entry point.

Subcommands cover the full artifact surface: corpus synthesis, both training
stages, two-stage generation (sequential or streaming), the benchmark suite
(scaling, boundary, accumulation, streaming), the (M, N) ablation, and
stage-transition pair synthesis with its sigma-sweep diagnostics.

Config resolution: values come from the command line when given, else from
the --config JSON file, else from DEFAULTS. The effective config is echoed
to <out>/config.resolved.json. Exit codes: 0 ok, 1 usage, 2 validation,
3 runtime failure; failures print a one-line diagnostic to stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import metrics, mixer, scheduler, stage1, stage2, streamer, synth, transition
from .codec import CodecConfig, decode, encode, group_means, latent_shape, lift, num_blocks
from .conditioning import encode_reference
from .grid import read_json, read_siv1, write_siv1

DEFAULTS = {
    "count": 6, "frames": 81, "height": 32, "width": 32,
    "motif": "translating_checker",
    **{k: getattr(CodecConfig(), k) for k in ("f_s", "f_t", "c")}, "d": 32, "K": 4, "M": 3, "N": 1,
    "steps": 600, "seed": 0,
    "sigma": 0.1, "tsteps": 1,
    "capacity": 2, "repeats": 10, "seeds": 5, "clips": 3,
    "mask": "bi",
}

MASKS = {"bi": "bidirectional", "causal": "causal"}
# Keys that count things (clips, timed runs, seeds, queue slots); a run over
# zero of them has nothing to report.
COUNTS = ("count", "repeats", "seeds", "clips", "capacity")
SCALING_FRAMES = (17, 33, 49, 65, 81)
# The scaling bench wants its max-token column constant across the sweep, so
# its (M, N) default sits in the saturated regime: every plan in the sweep,
# including T=17 (t=5), contains a full M-block segment with N neighbors.
# (3, 1) saturates only from t=7 and would dip at the first sweep point.
SCALING_MN = (2, 1)
# The accumulation bench fits a trend over per-segment scores, so it rolls
# out longer clips than the other benches: 14 segments at (M=3) give the
# regression enough points to resolve the bi-vs-causal gap above the
# init-noise jitter of a single run.
ACCUM_FRAMES = 161
SWEEP_SIGMAS = (0.01, 0.1, 0.3, 0.5, 0.7)
# Each timed scaling batch repeats one request until this much wall time has
# passed: a single request takes about a millisecond, too short to time alone
# on a shared host.
SCALING_BATCH_S = 0.025
# Training and evaluation report divergence themselves (stage and step), so
# numpy's floating-point warnings on the way there would only add lines.
_QUIET_FP = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused: a build
    costs about 2 ms, and parsing, even a failed parse, leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="segvid", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, *, model_args=False):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int)
        if model_args:
            p.add_argument("--M", type=int)
            p.add_argument("--N", type=int)
            p.add_argument("--frames", type=int)

    p = sub.add_parser("synth", help="render the synthetic corpus")
    common(p)
    p.add_argument("--count", type=int)
    p.add_argument("--frames", type=int)
    p.add_argument("--motif", choices=synth.MOTIFS)

    p = sub.add_parser("train-stage1", help="train the LR motion generator")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)

    p = sub.add_parser("train-stage2", help="train the HR segment denoiser")
    common(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--stage1", required=True, help="stage1 checkpoint dir")
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--mask", choices=sorted(MASKS))
    p.add_argument("--sigma", type=float, help="transition corruption strength")
    p.add_argument("--tsteps", type=int, help="transition denoise steps")

    p = sub.add_parser("generate", help="two-stage image-to-video")
    common(p, model_args=True)
    p.add_argument("--stage1", required=True)
    p.add_argument("--stage2", required=True)
    p.add_argument("--image", required=True, help="input image, SIV1 with T=1")
    p.add_argument("--stream", action="store_true", help="use the streaming runtime")
    p.add_argument("--capacity", type=int, help="streaming queue capacity")

    p = sub.add_parser("bench", help="benchmark harness")
    bs = p.add_subparsers(dest="bench_cmd", required=True)

    b = bs.add_parser("scaling", help="sweep frame counts, fit linearity")
    common(b, model_args=True)
    b.add_argument("--repeats", type=int)

    b = bs.add_parser("boundary", help="seam dissimilarity gap on a generated video")
    common(b, model_args=True)
    b.add_argument("--stage1", required=True)
    b.add_argument("--stage2", required=True)

    b = bs.add_parser("accumulation", help="bidirectional vs causal degradation slopes")
    common(b, model_args=True)
    b.add_argument("--stage2", required=True)
    b.add_argument("--seeds", type=int, help="number of paired seeded runs")
    b.add_argument("--clips", type=int, help="validation clips per seed")

    b = bs.add_parser("streaming", help="measured and predicted pipeline timing")
    common(b, model_args=True)
    b.add_argument("--stage2", required=True)
    b.add_argument("--capacity", type=int)

    p = sub.add_parser("ablate-mn", help="sweep (M, N) over {2,3}x{1,2}")
    common(p)
    p.add_argument("--stage2", required=True)
    p.add_argument("--frames", type=int)

    p = sub.add_parser("transition", help="pair synthesis + sigma sweep diagnostics")
    common(p)
    p.add_argument("--stage1", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--sigma", type=float)
    p.add_argument("--tsteps", type=int)
    return ap


class _Cfg:
    """Layered config: CLI flag > JSON file > DEFAULTS."""

    def __init__(self, args):
        self.args = args
        self.file = {}
        self.made = []
        if getattr(args, "config", None):
            if not os.path.exists(args.config):
                raise ValueError(f"--config expects the path of a JSON file; "
                                 f"no file at {args.config!r}")
            self.file = read_json(args.config)
            if not isinstance(self.file, dict):
                raise ValueError(f"{args.config}: config must be a JSON object")
        self.resolved = {}
        for name in COUNTS:  # before any command writes output
            self._value(name, DEFAULTS[name])

    def get(self, name):
        return self.get_or(name, DEFAULTS.get(name))

    def get_or(self, name, default):
        v = self.resolved[name] = self._value(name, default)
        return v

    def _value(self, name, default):
        v = getattr(self.args, name, None)
        if v is None:
            v = self.file.get(name, default)
            if default is not None:
                v = _typed(name, v, type(default))
        if name in COUNTS and v < 1:
            raise ValueError(f"{name} must be at least 1, got {v}")
        if name in ("steps", "lr") and not 0 <= v < math.inf:
            raise ValueError(f"{name} must be finite and at least 0, got {v}")
        return v

    def out_dir(self):
        """The output directory, created with any missing parents; `made`
        lists the directories this call created, deepest first."""
        out = getattr(self.args, "out", None) or self.file.get("out")
        if not out:
            raise ValueError("an output directory is required (--out)")
        d = os.path.abspath(out)
        while not os.path.exists(d):
            self.made.append(d)
            d = os.path.dirname(d)
        os.makedirs(out, exist_ok=True)
        self.resolved["out"] = out
        return out

    def remove_made(self):
        """Remove the directories out_dir created, deepest first, while empty."""
        for d in self.made:
            try:
                os.rmdir(d)
            except OSError:
                break

    def echo(self, out):
        _write_json(os.path.join(out, "config.resolved.json"), dict(sorted(self.resolved.items())))


def _typed(name: str, v, want: type):
    """A config-file value checked against the type of its default: an int
    passes as a float, a bool never passes as a number, null never passes."""
    if want is float and type(v) is int:
        return float(v)
    if type(v) is not want:
        raise ValueError(f"config key {name!r} expects {want.__name__}, got {json.dumps(v)}")
    return v


def _codec(cfg: _Cfg) -> CodecConfig:
    return CodecConfig(f_s=cfg.get("f_s"), f_t=cfg.get("f_t"), c=cfg.get("c"))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path, doc):
    """A JSON report; NaN and infinity, which strict parsers reject, are refused."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    with open(path, "w") as f:
        f.write(text)


def _scene_video(cfg: _Cfg, T: int, seed_offset: int = 0) -> np.ndarray:
    spec = synth.SceneSpec(seed=cfg.get("seed") + seed_offset, T=T,
                           H=cfg.get("height"), W=cfg.get("width"),
                           motif=cfg.get("motif"))
    return synth.render_scene(spec, _codec(cfg))


def _truth_input(truth: np.ndarray, ccfg: CodecConfig):
    """Conditioning built from the ground-truth downsampled reference: its
    block means, and its first frame lifted as the anchor latent."""
    v_lr = stage1.low_res(truth, ccfg)
    return encode_reference(group_means(v_lr, ccfg.f_t), lift(v_lr[:1], ccfg)[0], ccfg)


def _check_pipeline(s1, s2, image: np.ndarray, what: str = "image") -> None:
    """Reject a stage-1/stage-2 codec mismatch, or an (H, W, 3) image whose
    size disagrees with either model, before the image reaches a mixer."""
    a, b = asdict(s1.codec_cfg), asdict(s2.codec_cfg)
    diff = [f"{k}={a[k]} vs {k}={b[k]}" for k in a if a[k] != b[k]]
    if diff:
        raise ValueError(f"stage-1 and stage-2 codec configs differ: {', '.join(diff)}")
    _check_size(s1, 1, *image.shape[:2], what)
    _check_size(s2, 2, *image.shape[:2], what)


def _check_size(model, stage: int, H: int, W: int, what: str) -> None:
    """Reject H x W frames whose latents do not fit the stage's checkpoint,
    before they reach its mixer. Stage 2 encodes the frames; stage 1 encodes
    their LR version (``stage1.lr_size``)."""
    cfg = model.codec_cfg
    _, h, w, c = latent_shape(1, *((H, W) if stage == 2 else stage1.lr_size(H, W, cfg)), cfg)
    d_in = 2 * c * h * w  # w_in rows: [noisy c | reference c] per latent pixel
    if d_in != model.params.d_in:
        raise ValueError(f"{what} is {H}x{W} (d_in {d_in}), but the stage-{stage} checkpoint "
                         f"has d_in {model.params.d_in} "
                         f"({model.params.d_in * H * W // d_in} pixels per frame)")


def _load_stage2_for(cfg: _Cfg, args) -> mixer.StageModel:
    """The --stage2 checkpoint, checked against the configured frame size."""
    s2 = stage2.load_stage2(args.stage2)
    _check_size(s2, 2, cfg.get("height"), cfg.get("width"), "height x width")
    return s2


def _cmd_synth(cfg: _Cfg, args, out: str) -> None:
    specs = synth.default_specs(cfg.get("count"), cfg.get("seed"), T=cfg.get("frames"),
                                H=cfg.get("height"), W=cfg.get("width"),
                                motif=cfg.get("motif"))
    synth.write_corpus(out, specs, _codec(cfg))
    print(f"wrote {len(specs)} clips to {out}")


def _train(out: str, stage: int, model, train, evaluate, header) -> None:
    """Shared tail of both train commands: evaluate, train, evaluate, then
    refuse a diverged model, or save it with its log and summary. The step
    losses can stay finite while the last updates blow up, so the final
    evaluation loss must be finite too."""
    with np.errstate(**_QUIET_FP):
        init_loss = evaluate()
        log = train()
        final_loss = evaluate()
    if not math.isfinite(final_loss):
        raise FloatingPointError(f"stage {stage} training diverged: evaluation loss "
                                 f"{final_loss} after step {len(log) - 1}")
    mixer.save_model(model, out, f"stage{stage}")
    _write_csv(os.path.join(out, "train_log.csv"), header,
               [(s, f"{l:.6f}", *rest) for s, l, *rest in log])
    _write_json(os.path.join(out, "summary.json"),
                {"init_loss": init_loss, "final_loss": final_loss})
    print(f"stage{stage}: loss {init_loss:.4f} -> {final_loss:.4f} over {len(log)} steps")


def _cmd_train_stage1(cfg: _Cfg, args, out: str) -> None:
    seed, steps, lr = cfg.get("seed"), cfg.get("steps"), cfg.get_or("lr", 1e-2)
    ccfg = _codec(cfg)
    clips = [stage1.low_res(v, ccfg) for _, v in synth.load_corpus(args.corpus)]
    _, H, W, _ = clips[0].shape
    model = stage1.new_stage1(seed, lr_h=H, lr_w=W, codec_cfg=ccfg, d=cfg.get("d"),
                              K=cfg.get("K"))
    zs = [encode(v, model.codec_cfg) for v in clips]
    _train(out, 1, model, lambda: stage1.train(model, zs, steps, seed, lr),
           lambda: stage1.eval_loss(model, zs, seed + 1), ["step", "loss"])


def _cmd_train_stage2(cfg: _Cfg, args, out: str) -> None:
    seed, steps, lr = cfg.get("seed"), cfg.get("steps"), cfg.get_or("lr", 3e-4)
    s1 = stage1.load_stage1(args.stage1)
    clips_hr = [v for _, v in synth.load_corpus(args.corpus)]
    _, H, W, _ = clips_hr[0].shape
    model = stage2.new_stage2(seed, hr_h=H, hr_w=W, codec_cfg=_codec(cfg), d=cfg.get("d"),
                              K=cfg.get("K"), mask_mode=MASKS[cfg.get("mask")])
    _check_pipeline(s1, model, clips_hr[0][0], "corpus frame")
    tcfg = transition.TransitionConfig(sigma=cfg.get("sigma"), steps=cfg.get("tsteps"),
                                       seed=seed)
    ccfg = model.codec_cfg
    pairs = [(stage1.low_res(v, ccfg), v) for v in clips_hr]
    zs = [encode(v, ccfg) for v in clips_hr]  # each HR clip once, shared by its two pairs
    trans = [stage2.pair_latents(ccfg, v_tilde, z0)
             for (v_tilde, _), z0 in zip(transition.synthesize_corpus(pairs, s1, tcfg), zs)]
    down = [stage2.pair_latents(ccfg, v_lr, z0) for (v_lr, _), z0 in zip(pairs, zs)]
    _train(out, 2, model, lambda: stage2.train(model, trans, down, steps, seed, lr),
           lambda: stage2.eval_loss(model, down, seed + 1),
           ["step", "loss", "M", "N", "source"])


def _two_stage(cfg: _Cfg, args, image: np.ndarray, min_segments: int = 1):
    """Both checkpoints, checked against the image, and a segment plan of at
    least min_segments; then the image's stage-2 inputs (stage-1 rollout included)."""
    s1, s2 = stage1.load_stage1(args.stage1), stage2.load_stage2(args.stage2)
    _check_pipeline(s1, s2, image)
    T, M, N = cfg.get("frames"), cfg.get("M"), cfg.get("N")
    p = scheduler.plan(num_blocks(T, s2.codec_cfg.f_t), M, N)
    if p.S < min_segments:
        raise ValueError(f"frames={T} at M={M}, N={N} plans {p.S} segment(s), "
                         f"need at least {min_segments}")
    return s2, stage2.pipeline_inputs(s1, s2, image, T, cfg.get("seed")), p


def _cmd_generate(cfg: _Cfg, args, out: str) -> None:
    img = read_siv1(args.image)
    if img.shape[0] != 1:
        raise ValueError(f"--image must hold a single frame, got T={img.shape[0]}")
    s2, inp, p = _two_stage(cfg, args, img[0])
    seed = cfg.get("seed")
    if args.stream:
        video, events, tm = streamer.run_streaming(s2, inp, p, seed,
                                                   queue_capacity=cfg.get("capacity"))
        streamer.write_events_csv(os.path.join(out, "events.csv"), events)
        _write_json(os.path.join(out, "timing.json"), streamer.predict_timing(tm))
    else:
        video = decode(stage2.infer_csg(s2, inp, p, seed), s2.codec_cfg)
    write_siv1(os.path.join(out, "video.siv1"), video)
    with open(os.path.join(out, "plan.json"), "w") as fo:
        fo.write(scheduler.to_json(p))
    print(f"wrote {video.shape[0]} frames to {out}/video.siv1")


def _cmd_bench_scaling(cfg: _Cfg, args, out: str) -> None:
    ccfg = _codec(cfg)
    seed = cfg.get("seed")
    M = cfg.get_or("M", SCALING_MN[0])
    N = cfg.get_or("N", SCALING_MN[1])
    reps = cfg.get("repeats")
    model = stage2.new_stage2(seed, hr_h=cfg.get("height"), hr_w=cfg.get("width"),
                              codec_cfg=ccfg, d=cfg.get("d"), K=cfg.get("K"))
    rows, requests = [], []
    for T in SCALING_FRAMES:
        truth = _scene_video(cfg, T)
        inp = _truth_input(truth, ccfg)
        t, h, w, _ = latent_shape(T, truth.shape[1], truth.shape[2], ccfg)
        p = scheduler.plan(t, M, N)
        steps = []  # the warm-up run; one forward pass per denoise step
        stage2.infer_csg(model, inp, p, seed, on_step=lambda *_: steps.append(1))
        rows.append([T, t, p.S, max(scheduler.token_budget(p, h, w)), len(steps)])
        requests.append(functools.partial(stage2.infer_csg, model, inp, p, seed))
    # Batches run round-robin over the frame counts, and each point is its
    # fastest batch: a shared host only ever slows a batch down, and a slow
    # phase spanning several rounds can lift one point's median alone.
    per_call = [[] for _ in requests]
    for _ in range(reps):
        for times, request in zip(per_call, requests):
            calls = 0
            tic = time.perf_counter()
            while (elapsed := time.perf_counter() - tic) < SCALING_BATCH_S:
                request()
                calls += 1
            times.append(elapsed * 1000.0 / calls)
    for row, times in zip(rows, per_call):
        row.append(f"{min(times):.3f}")
    _write_csv(os.path.join(out, "scaling.csv"),
               ["T", "t", "S", "max_tokens", "forward_count", "wall_ms"], rows)
    counts = metrics.trend_fit([(r[2], r[4]) for r in rows])
    walls = metrics.trend_fit([(r[2], float(r[5])) for r in rows])
    _write_json(os.path.join(out, "scaling.json"),
                {"count_r2": counts.r2, "wall_r2": walls.r2,
                 "count_slope": counts.slope, "wall_slope": walls.slope})
    print(f"scaling: count r2={counts.r2:.6f} wall r2={walls.r2:.4f}")


def _cmd_bench_boundary(cfg: _Cfg, args, out: str) -> None:
    truth = _scene_video(cfg, cfg.get("frames"), seed_offset=101)  # held-out scene
    s2, inp, p = _two_stage(cfg, args, truth[0], min_segments=2)  # a seam needs two
    video = decode(stage2.infer_csg(s2, inp, p, cfg.get("seed")), s2.codec_cfg)
    report = {}
    for metric in ("pixel_diff", "one_minus_ssim"):
        r = metrics.boundary_gap(video, p, s2.codec_cfg, metric)
        report[metric] = {"boundary_mean": r.boundary_mean,
                          "nonboundary_mean": r.nonboundary_mean,
                          "gap_pct": r.gap_pct,
                          "pairs": [list(q) for q in r.pairs]}
    _write_json(os.path.join(out, "boundary.json"), report)
    print("boundary gap_pct: " +
          ", ".join(f"{m}={report[m]['gap_pct']:.2f}%" for m in report))


def accumulation_rows(model: mixer.StageModel, truths, seeds, M: int, N: int):
    """Per-seed degradation slopes for bidirectional vs causal inference on
    the same params. Per-segment PSNR is averaged over the clips before the
    fit to steady the series."""
    causal = replace(model, params=replace(model.params, mask_mode="causal"))
    ccfg = model.codec_cfg
    rows = []
    for seed in seeds:
        series = {}
        for name, m in (("bi", model), ("causal", causal)):
            per_clip = []
            for truth in truths:
                inp = _truth_input(truth, ccfg)
                p = scheduler.plan(inp.z_ref.shape[0], M, N)
                video = decode(stage2.infer_csg(m, inp, p, seed), ccfg)
                per_clip.append(metrics.segment_quality_series(video, truth, p, ccfg))
            series[name] = np.mean(np.array(per_clip), axis=0)
        xs = range(1, len(series["bi"]) + 1)
        slope_bi = metrics.trend_fit(list(zip(xs, series["bi"]))).slope
        slope_causal = metrics.trend_fit(list(zip(xs, series["causal"]))).slope
        rows.append((seed, slope_bi, slope_causal))
    return rows


def _cmd_bench_accumulation(cfg: _Cfg, args, out: str) -> None:
    s2 = _load_stage2_for(cfg, args)
    T, seed = cfg.get_or("frames", ACCUM_FRAMES), cfg.get("seed")
    truths = [_scene_video(cfg, T, seed_offset=201 + j) for j in range(cfg.get("clips"))]
    seeds = [seed + j for j in range(cfg.get("seeds"))]
    rows = accumulation_rows(s2, truths, seeds, cfg.get("M"), cfg.get("N"))
    _write_csv(os.path.join(out, "accumulation.csv"),
               ["seed", "slope_bi", "slope_causal"],
               [(s, f"{b:.6f}", f"{c:.6f}") for s, b, c in rows])
    wins = sum(1 for _, b, c in rows if b >= c)
    _write_json(os.path.join(out, "accumulation.json"), {"bi_ge_causal": wins, "runs": len(rows)})
    print(f"accumulation: bidirectional slope >= causal in {wins}/{len(rows)} seeds")


def _cmd_bench_streaming(cfg: _Cfg, args, out: str) -> None:
    s2 = _load_stage2_for(cfg, args)
    T, seed = cfg.get("frames"), cfg.get("seed")
    truth = _scene_video(cfg, T, seed_offset=303)
    inp = _truth_input(truth, s2.codec_cfg)
    p = scheduler.plan(inp.z_ref.shape[0], cfg.get("M"), cfg.get("N"))
    capacity, repeats = cfg.get("capacity"), cfg.get("repeats")
    sequential = decode(stage2.infer_csg(s2, inp, p, seed), s2.codec_cfg)
    # Measured end to end per mode: wall time of run_streaming and the time
    # of its first emitted frame. Modes alternate, so a slow phase of a
    # shared host lands on both. The events, timing and video reported are
    # the first threads run's.
    modes = ("serial", "threads")
    runs = {mode: {"wall_ms": [], "first_frame_ms": [], "matches_sequential": True}
            for mode in modes}
    first = None
    for _ in range(repeats):
        for mode in modes:
            tic = time.perf_counter()
            result = streamer.run_streaming(s2, inp, p, seed, queue_capacity=capacity,
                                            mode=mode)
            r = runs[mode]
            r["wall_ms"].append((time.perf_counter() - tic) * 1000.0)
            v, evs, _ = result
            r["first_frame_ms"].append(next(e.t_ms for e in evs if e.kind == "frames_emitted"))
            r["matches_sequential"] &= bool(np.array_equal(v, sequential))
            if first is None and mode == "threads":
                first = result
    video, events, tm = first
    for r in runs.values():
        r["wall_ms_p50"] = float(np.median(r["wall_ms"]))
        r["first_frame_ms_p50"] = float(np.median(r["first_frame_ms"]))
    identical = all(r["matches_sequential"] for r in runs.values())
    streamer.write_events_csv(os.path.join(out, "events.csv"), events)
    report = {"predicted": streamer.predict_timing(tm),
              "measured_denoise_ms": list(tm.denoise_s),
              "measured_decode_ms": list(tm.decode_s),
              "measured": runs,
              "matches_sequential": identical}
    _write_json(os.path.join(out, "streaming.json"), report)
    write_siv1(os.path.join(out, "video.siv1"), video)
    print(f"streaming: matches_sequential={identical} "
          f"first_output={report['predicted']['first_output']:.2f}ms (predicted) "
          + " ".join(f"{m}: wall {runs[m]['wall_ms_p50']:.2f}ms "
                     f"first {runs[m]['first_frame_ms_p50']:.2f}ms" for m in modes))


def _cmd_ablate_mn(cfg: _Cfg, args, out: str) -> None:
    s2 = _load_stage2_for(cfg, args)
    T, seed = cfg.get("frames"), cfg.get("seed")
    truth = _scene_video(cfg, T, seed_offset=404)
    inp = _truth_input(truth, s2.codec_cfg)
    t = inp.z_ref.shape[0]
    h, w = inp.z_x.shape[:2]
    rows = []
    for M, N in stage2.MN_CHOICES:
        p = scheduler.plan(t, M, N)
        tic = time.perf_counter()
        video = decode(stage2.infer_csg(s2, inp, p, seed), s2.codec_cfg)
        wall = (time.perf_counter() - tic) * 1000.0
        rows.append((M, N, f"{metrics.psnr(video, truth):.4f}",
                     max(scheduler.token_budget(p, h, w)), f"{wall:.3f}"))
    _write_csv(os.path.join(out, "ablate_mn.csv"),
               ["M", "N", "psnr", "max_tokens", "wall_ms"], rows)
    print(f"ablate-mn: {len(rows)} combinations")


def _cmd_transition(cfg: _Cfg, args, out: str) -> None:
    s1 = stage1.load_stage1(args.stage1)
    clips = [v for _, v in synth.load_corpus(args.corpus)]
    seed = cfg.get("seed")
    _check_size(s1, 1, *clips[0].shape[1:3], "corpus frame")
    down = [(stage1.low_res(v, s1.codec_cfg), v) for v in clips]
    # The sweep diagnostic denoises with the full schedule depth: a single
    # Euler jump from a large sigma lands near the model mean and scrambles
    # the psnr-vs-sigma ordering that the sweep exists to show. Synthesis
    # below still uses the cheap tsteps operating point.
    sweep_steps = cfg.get("K")
    per_clip = [transition.sigma_sweep(v_lr, s1, SWEEP_SIGMAS, steps=sweep_steps, seed=seed)
                for v_lr, _ in down]
    scores = np.mean([[row[2:] for row in rows] for rows in per_clip], axis=0)
    _write_csv(os.path.join(out, "sigma_sweep.csv"),
               ["sigma", "steps", "snr_db", "psnr_db", "ssim"],
               [(sig, sweep_steps, f"{a:.4f}", f"{b:.4f}", f"{c:.6f}")
                for sig, (a, b, c) in zip(SWEEP_SIGMAS, scores)])
    tcfg = transition.TransitionConfig(sigma=cfg.get("sigma"), steps=cfg.get("tsteps"),
                                       seed=seed)
    pairs = transition.synthesize_corpus(down, s1, tcfg)
    transition.save_pairs(os.path.join(out, "pairs"), pairs, tcfg)
    print(f"transition: {len(pairs)} pairs, sweep over {len(SWEEP_SIGMAS)} sigmas")


_COMMANDS = {
    "synth": _cmd_synth,
    "train-stage1": _cmd_train_stage1,
    "train-stage2": _cmd_train_stage2,
    "generate": _cmd_generate,
    "bench scaling": _cmd_bench_scaling,
    "bench boundary": _cmd_bench_boundary,
    "bench accumulation": _cmd_bench_accumulation,
    "bench streaming": _cmd_bench_streaming,
    "ablate-mn": _cmd_ablate_mn,
    "transition": _cmd_transition,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    name = f"bench {args.bench_cmd}" if args.cmd == "bench" else args.cmd
    cfg = None
    try:
        cfg = _Cfg(args)
        out = cfg.out_dir()
        _COMMANDS[name](cfg, args, out)
        cfg.echo(out)
        return 0
    except (ValueError, OSError, KeyError) as e:
        print(f"segvid: validation error: {e}", file=sys.stderr)
        code = 2
    except Exception as e:
        print(f"segvid: runtime failure: {type(e).__name__}: {e}", file=sys.stderr)
        code = 3
    if cfg is not None:  # a failed command leaves no empty output directory
        cfg.remove_made()
    return code


if __name__ == "__main__":
    sys.exit(main())
