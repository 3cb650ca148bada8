"""Acceptance gate: one test per shipped guarantee. Each records a pass/fail
line for the terminal summary via the criterion fixture, so a full run prints
the whole scorecard."""

import csv
import json
import time

import numpy as np

import oracles
import reference
from segvid import cli, mixer, scheduler, stage2, streamer, synth
from segvid.codec import CodecConfig, decode, encode, num_blocks
from segvid.conditioning import StageTwoInput
from segvid.grid import Rng, read_siv1, write_siv1
from segvid.streamer import TimingModel

MATS = ("w_in", "w_q", "w_k", "w_v", "w_out")


def scene_input(seed, T, H=32, mask_mode="bidirectional"):
    """Random-parameter model plus conditioning built from one synthetic clip."""
    v = synth.render_scene(synth.SceneSpec(seed=seed, T=T, H=H, W=H))
    model = stage2.new_stage2(seed, hr_h=H, hr_w=H, mask_mode=mask_mode)
    return model, cli._truth_input(v, model.codec_cfg)


def test_01_segment_plan_matches_enumeration(criterion):
    p = scheduler.plan(21, 3, 1)
    pins = (p.S == 7
            and [len(i) for i in p.I] == [3, 3, 3, 3, 3, 3, 2]
            and list(p.a) == [2, 5, 8, 11, 14, 17, 20])
    tic = time.perf_counter()
    mismatches = total = 0
    for t in range(2, 201):
        for M in range(1, 9):
            for N in range(0, 5):
                q = scheduler.plan(t, M, N)
                ref = oracles.plan_bruteforce(t, M, N)
                total += 1
                if not (q.S == len(ref)
                        and list(q.a) == [r["start"] for r in ref]
                        and [list(i) for i in q.I] == [r["I"] for r in ref]
                        and [list(i) for i in q.Nbr] == [r["Nbr"] for r in ref]
                        and [list(i) for i in q.W] == [r["W"] for r in ref]):
                    mismatches += 1
    wall = time.perf_counter() - tic
    criterion(1, pins and mismatches == 0 and wall < 5.0,
              f"{total} plans vs enumeration, {mismatches} mismatches, {wall:.2f}s")


def test_02_token_budget_bound(criterion):
    h = w = 8
    over = decrease = unsat = 0
    for M in range(1, 9):
        for N in range(0, 5):
            cap = (1 + N + M) * h * w
            t_sat = 1 + M + M * -(-N // M)  # first t whose plan holds a full window
            prev = 0
            for t in range(2, 201):
                mx = max(scheduler.token_budget(scheduler.plan(t, M, N), h, w))
                over += mx > cap
                decrease += mx < prev
                prev = mx
                if t >= t_sat:
                    unsat += mx != cap
    ok = over == 0 and decrease == 0 and unsat == 0
    criterion(2, ok, f"max window tokens <= (1+N+M)hw everywhere, "
                     f"constant at the cap for t >= 1+M+M*ceil(N/M) "
                     f"({over} over, {decrease} dips, {unsat} below cap)")


def test_03_anchor_and_history_immutable(criterion):
    model, inp = scene_input(30, T=81)
    p = scheduler.plan(inp.z_ref.shape[0], 3, 1)
    anchor_ok = []
    finalized = {}
    stale = []

    def on_step(s, k, zw, idx):
        anchor_ok.append(np.array_equal(zw[idx.index(1)], inp.z_x))

    def on_segment(s, z):
        for i, blob in finalized.items():
            if z[i - 1].tobytes() != blob:
                stale.append((s, i))
        for i in p.I[s - 1]:
            finalized[i] = z[i - 1].tobytes()

    z = stage2.infer_csg(model, inp, p, seed=3, on_step=on_step, on_segment=on_segment)
    end_ok = all(z[i - 1].tobytes() == blob for i, blob in finalized.items())
    ok = (len(anchor_ok) == p.S * 4 and all(anchor_ok)
          and not stale and end_ok and len(finalized) == p.t - 1)
    criterion(3, ok, f"anchor bit-exact at {len(anchor_ok)} steps, "
                     f"{len(stale)} finalized-block rewrites across {p.S} segments")


def test_04_single_segment_equals_full_window(criterion):
    model, inp = scene_input(40, T=33)
    t = inp.z_ref.shape[0]
    p = scheduler.plan(t, t - 1, 0)

    def full_window(seed):  # the whole sequence in one concatenating window
        return reference.ladder(model.params, model.schedule.sigmas,
                                reference.initial_latents(inp.z_x, t, seed, stage2.NOISE_KEY),
                                inp.z_ref, p.W[0], t - 1)

    bad = [seed for seed in (0, 1, 2)
           if not np.array_equal(stage2.infer_csg(model, inp, p, seed), full_window(seed))]
    criterion(4, p.S == 1 and not bad,
              f"M=t-1 plan vs full-window oracle bit-identical for seeds 0,1,2 (t={t})")


def test_05_streaming_equivalence_and_timing(criterion, consumer_delays):
    model, inp = scene_input(50, T=37, H=16)
    p = scheduler.plan(inp.z_ref.shape[0], 3, 1)
    baseline = decode(stage2.infer_csg(model, inp, p, seed=7), model.codec_cfg)
    rng = np.random.default_rng(5)
    schedules = [None] + [rng.uniform(0.0, 0.004, p.S).tolist() for _ in range(4)]
    matched = 0
    for cap in (1, 2, 8):
        for delays in schedules:
            consumer_delays(p, delays)
            video, events, _ = streamer.run_streaming(model, inp, p, seed=7, queue_capacity=cap)
            streamer.check_events(events, p)
            matched += np.array_equal(video, baseline)
    consumer_delays(p, None)

    # overlap: during a longer run the first frames land while later segments
    # are still denoising
    model2, inp2 = scene_input(51, T=81)
    p2 = scheduler.plan(inp2.z_ref.shape[0], 3, 1)
    _, events2, _ = streamer.run_streaming(model2, inp2, p2, seed=7, queue_capacity=2)
    first_emit = next(e.t_ms for e in events2 if e.kind == "frames_emitted")
    last_denoise = [e for e in events2 if e.kind == "segment_denoised"][-1].t_ms
    overlap = first_emit < last_denoise

    # replay: the idealized schedule on measured durations reproduces the
    # observed completion ordering (thread wakeup jitter can blur a single
    # run, so allow a few attempts)
    replay = attempts = 0
    while not replay and attempts < 5:
        attempts += 1
        _, ev, tm = streamer.run_streaming(model2, inp2, p2, seed=7, queue_capacity=8)
        replay = (oracles.timing_ref(tm.denoise_s, tm.decode_s)[3]
                  == [(e.kind, e.index) for e in ev if e.kind != "frames_emitted"])

    pt = streamer.predict_timing(TimingModel((2.0, 2.0, 2.0), (5.0, 5.0, 5.0)))
    exact = (pt["first_output"], pt["full_output"], pt["sequential_total"]) == (7.0, 17.0, 21.0)
    criterion(5, matched == 15 and overlap and replay and exact,
              f"{matched}/15 runs bit-identical, overlap={overlap}, "
              f"order replay attempt {attempts}, timing example (7,17,21)={exact}")


def test_06_mask_direction(criterion):
    rng = Rng(6)
    pc = mixer.init_mixer(rng.split(1), d_in=10, d_out=4, d=6, mask_mode="causal")
    pb = mixer.init_mixer(rng.split(2), d_in=10, d_out=4, d=6)
    x = rng.split(3).normal((6, 10)).astype(np.float64)
    idx = range(1, 7)
    yc = mixer.forward(pc, x, 0.5, idx)
    yb = mixer.forward(pb, x, 0.5, idx)
    causal_worst, bi_min = 0.0, float("inf")
    for j in range(1, 6):
        xp = x.copy()
        xp[j] += 1e-2
        dc = np.abs(mixer.forward(pc, xp, 0.5, idx)[:j] - yc[:j]).max()
        db = np.abs(mixer.forward(pb, xp, 0.5, idx)[:j] - yb[:j]).max()
        causal_worst = max(causal_worst, float(dc))
        bi_min = min(bi_min, float(db))
    criterion(6, causal_worst < 1e-8 and bi_min > 1e-8,
              f"causal back-response {causal_worst:.1e} < 1e-8, "
              f"bidirectional {bi_min:.1e} > 1e-8")


def test_07_gradients_match_finite_differences(criterion):
    worst = 0.0
    for trial in range(20):
        p = mixer.init_mixer(Rng(700 + trial), d_in=10, d_out=4, d=6,
                             mask_mode="causal" if trial % 2 else "bidirectional")
        p64 = p.astype(np.float64)
        g = np.random.default_rng(trial)
        n = 2 + trial % 5
        x = g.standard_normal((n, 10))
        clean = g.standard_normal((n, 4))
        eps = g.standard_normal((n, 4))
        mask = g.random(n) < 0.5
        mask[int(g.integers(n))] = True
        sigma = float(g.uniform(0.05, 1.0))
        _, grads = mixer.loss_and_grad(p64, x, clean, mask, sigma, eps)
        fd = oracles.fd_grad(
            lambda: mixer.loss_and_grad(p64, x, clean, mask, sigma, eps)[0],
            {name: getattr(p64, name) for name in MATS})
        for name in MATS:
            num = float(np.linalg.norm(fd[name] - grads[name]))
            den = max(float(np.linalg.norm(fd[name])), 1e-12)
            worst = max(worst, num / den)
        # conditioning rows contribute no loss terms: moving their targets
        # moves nothing
        clean2, eps2 = clean.copy(), eps.copy()
        clean2[~mask] += 5.0
        eps2[~mask] -= 2.0
        loss_a, grads_a = mixer.loss_and_grad(p64, x, clean, mask, sigma, eps)
        loss_b, grads_b = mixer.loss_and_grad(p64, x, clean2, mask, sigma, eps2)
        inert = loss_a == loss_b and all(
            np.array_equal(grads_a[m], grads_b[m]) for m in MATS)
        if not inert:
            worst = float("inf")
    criterion(7, worst < 1e-4,
              f"20 instances, worst finite-difference rel err {worst:.2e}")


def test_08_zero_init_reference_invariance(criterion):
    model, inp = scene_input(80, T=33)
    # fresh model: reference input rows are zero-initialized
    rows = mixer.ref_rows(*inp.z_x.shape)
    zeroed = not model.params.w_in[rows].any()
    other = StageTwoInput(z_ref=inp.z_ref + 1.5, z_x=inp.z_x.copy())
    p = scheduler.plan(inp.z_ref.shape[0], 3, 1)
    za = stage2.infer_csg(model, inp, p, seed=0)
    zb = stage2.infer_csg(model, other, p, seed=0)
    criterion(8, zeroed and np.array_equal(za, zb),
              "fresh reference rows zeroed; outputs bit-identical under a "
              "shifted reference")


def test_09_transition_corruption_direction(criterion, pipeline, tmp_path):
    out = tmp_path / "tr"
    rc = cli.main(["transition", "--stage1", pipeline["s1"],
                   "--corpus", pipeline["corpus"], "--out", str(out)])
    with (out / "sigma_sweep.csv").open() as f:
        rows = list(csv.DictReader(f))
    sigmas = [float(r["sigma"]) for r in rows]
    psnrs = [float(r["psnr_db"]) for r in rows]
    mono = all(a >= b for a, b in zip(psnrs, psnrs[1:]))
    ok = rc == 0 and sigmas == [0.01, 0.1, 0.3, 0.5, 0.7] and mono
    criterion(9, ok, "psnr " + " >= ".join(f"{v:.2f}" for v in psnrs))


def test_10_scaling_linearity(criterion, tmp_path):
    out = tmp_path / "sc"
    tic = time.perf_counter()
    rc = cli.main(["bench", "scaling", "--out", str(out)])
    wall = time.perf_counter() - tic
    with (out / "scaling.csv").open() as f:
        rows = list(csv.DictReader(f))
    frames = [int(r["T"]) for r in rows]
    blocks_ok = all(int(r["t"]) == 1 + (int(r["T"]) - 1) // 4 for r in rows)
    segs_ok = all(int(r["S"]) == -((int(r["t"]) - 1) // -2) for r in rows)
    tokens = {int(r["max_tokens"]) for r in rows}
    fit = json.loads((out / "scaling.json").read_text())
    ok = (rc == 0 and frames == [17, 33, 49, 65, 81] and blocks_ok and segs_ok
          and len(tokens) == 1 and fit["count_r2"] >= 0.999
          and fit["wall_r2"] >= 0.95 and wall < 120.0)
    criterion(10, ok, f"count r2={fit['count_r2']:.6f}, wall r2={fit['wall_r2']:.4f}, "
                      f"max_tokens constant at {tokens}, {wall:.1f}s")


def test_11_boundary_gap_report(criterion, pipeline, tmp_path):
    out = tmp_path / "bd"
    rc = cli.main(["bench", "boundary", "--stage1", pipeline["s1"],
                   "--stage2", pipeline["s2"], "--out", str(out)])
    rep = json.loads((out / "boundary.json").read_text())
    want_pairs = [list(q) for q in oracles.boundary_pairs_ref(21, 3, 1, 4)]
    ok = rc == 0
    gaps = {}
    for m in ("pixel_diff", "one_minus_ssim"):
        ok = (ok and rep[m]["pairs"] == want_pairs and len(rep[m]["pairs"]) == 6
              and np.isfinite(rep[m]["gap_pct"]))
        gaps[m] = rep[m]["gap_pct"]
    criterion(11, ok, "6 seam pairs match the coverage oracle; gap_pct "
              + ", ".join(f"{m}={v:.1f}%" for m, v in gaps.items()))


def test_12_error_accumulation_direction(criterion, pipeline, tmp_path):
    out = tmp_path / "ac"
    rc = cli.main(["bench", "accumulation", "--stage2", pipeline["s2"],
                   "--out", str(out)])
    rep = json.loads((out / "accumulation.json").read_text())
    ok = rc == 0 and rep["runs"] == 5 and rep["bi_ge_causal"] >= 4
    criterion(12, ok, f"bidirectional slope >= causal in "
                      f"{rep['bi_ge_causal']}/{rep['runs']} paired seeds")


def test_13_codec_and_format(criterion, tmp_path):
    cfg = CodecConfig()
    video = synth.render_scene(synth.SceneSpec(seed=13, T=17, H=16, W=16))
    rt = decode(encode(video, cfg), cfg)
    err = float(np.abs(rt - oracles.pool_broadcast(video, cfg.f_s, cfg.f_t)).max())
    blocks_ok = num_blocks(81, 4) == 21 and num_blocks(17, 4) == 5
    path = tmp_path / "clip.siv1"
    write_siv1(path, video)
    round_trip = np.array_equal(read_siv1(path), video)
    criterion(13, err <= 1e-5 and blocks_ok and round_trip,
              f"pooling oracle err {err:.1e} <= 1e-5, 81 frames -> 21 blocks, "
              f"container round-trip bit-exact")
