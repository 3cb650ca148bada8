"""The three benchmark workloads: gen_short, stream_long and train.

Each is a closed loop with one client. A workload object has four phases:

* ``fixture(work)``: prerequisites that are not part of the measured system
  start-up, such as the checkpoints the inference workloads load. Untimed.
* ``setup(seed)``: checkpoint load, input generation and one warm-up
  operation. Timed as ``setup_s``.
* ``prepare(i)`` then ``run(i)``: ``prepare`` makes operation i's input from
  the seed (untimed); ``run`` performs the operation and returns its sample,
  timed inside with ``perf_counter``.
* ``check(sample)`` and ``check_structure(sample, spans)``: output checks,
  run after the operation, outside its timed region. Each returns a list of
  failure reasons; an empty list means the operation succeeded.

The program under test receives only inputs generated from the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time

import numpy as np

from segvid import cli, codec, grid, scheduler, stage1, stage2, streamer, synth

import tracer as tr

_MS = 1000.0


def _quiet_cli(argv) -> int:
    """Run segvid's CLI in-process with its progress line swallowed (the last
    line of the benchmark's stdout is reserved for the result)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class _Generate:
    """Shared by the inference workloads: what `segvid generate` does after
    loading checkpoints, on one seeded synthetic input image per request."""

    # Untimed checkpoint training: the default corpus and config at a short
    # schedule. Fixed, so the canonical video digest is comparable across
    # commits; inference cost does not depend on how long the model trained.
    FIXTURE_STEPS = "60"
    # The request whose video digest is reported: the default generate config
    # on a fixed image.
    CANONICAL = {"scene": 0, "motif": "translating_checker", "T": 81, "M": 3, "N": 1,
                 "seed": 0}

    def fixture(self, work):
        corpus, self.s1_dir, self.s2_dir = (os.path.join(work, d) for d in ("corpus", "s1", "s2"))
        for argv in (["synth", "--out", corpus],
                     ["train-stage1", "--corpus", corpus, "--out", self.s1_dir,
                      "--steps", self.FIXTURE_STEPS],
                     ["train-stage2", "--corpus", corpus, "--stage1", self.s1_dir,
                      "--out", self.s2_dir, "--steps", self.FIXTURE_STEPS]):
            if _quiet_cli(argv) != 0:
                raise RuntimeError(f"fixture command failed: segvid {' '.join(argv)}")
        self.image = os.path.join(work, "image.siv1")
        self.video = os.path.join(work, "video.siv1")

    def setup(self, seed):
        self.seed = seed
        self.s1 = stage1.load_stage1(self.s1_dir)
        self.s2 = stage2.load_stage2(self.s2_dir)
        self._write_image(self.CANONICAL)
        self._run_request(self.CANONICAL)  # warm-up

    def spec(self, i):
        return self.draw(random.Random(f"{self.name}/{self.seed}/{i}"))

    def _write_image(self, spec):
        frame = synth.render_scene(synth.SceneSpec(seed=spec["scene"], T=1, motif=spec["motif"]))
        grid.write_siv1(self.image, frame)

    def prepare(self, i):
        self._write_image(self.spec(i))

    def run(self, i):
        return self._run_request(self.spec(i))

    def canonical_digest(self) -> str:
        self._write_image(self.CANONICAL)
        self._run_request(self.CANONICAL)
        return _sha256(self.video)

    def _begin(self, spec):
        """Read the image and build the stage-2 inputs; returns the pieces
        and the request's start and stage-1 end times."""
        t0 = time.perf_counter()
        img = grid.read_siv1(self.image)
        if img.shape[0] != 1:
            raise ValueError(f"image must hold a single frame, got T={img.shape[0]}")
        inp = stage2.pipeline_inputs(self.s1, self.s2, img[0], spec["T"], spec["seed"])
        p = scheduler.plan(inp.z_ref.shape[0], spec["M"], spec["N"])
        return t0, time.perf_counter(), inp, p

    def check_structure(self, sample, spans):
        """Counts that must hold on every traced request."""
        p, inp = sample["plan"], sample["inp"]
        h, w = inp.z_x.shape[:2]
        agg = tr.summarize(spans)
        bad = []
        forwards = agg.get("mixer.forward", {}).get("calls", 0)
        want = self.s1.schedule.K + self.s2.schedule.K * p.S
        if forwards != want:
            bad.append(f"mixer.forward calls {forwards} != K1 + K2*S = {want}")
        for parent in self.DECODERS:
            for n in tr.children(spans, parent, "codec.decode_block"):
                if n != p.t:
                    bad.append(f"{parent} made {n} decode_block calls, t = {p.t}")
        tokens = agg.get("scheduler.window_gather", {}).get("window_tokens", 0)
        if tokens > (1 + p.N + p.M) * h * w:
            bad.append(f"window tokens {tokens} > (1+N+M)*h*w = {(1 + p.N + p.M) * h * w}")
        return bad


class GenShort(_Generate):
    """Many short independent requests: per-request fixed cost dominates."""

    name = "gen_short"
    min_ops = 16
    DECODERS = ("codec.decode",)

    def draw(self, rng):
        M, N = rng.choice(stage2.MN_CHOICES)
        return {"scene": rng.randrange(1 << 32), "motif": rng.choice(synth.MOTIFS),
                "T": rng.choice((17, 33, 49)), "M": M, "N": N,
                "seed": rng.randrange(1 << 32)}

    def _run_request(self, spec):
        t0, t_inputs, inp, p = self._begin(spec)
        video = codec.decode(stage2.infer_csg(self.s2, inp, p, spec["seed"]),
                             self.s2.codec_cfg)
        t_decoded = time.perf_counter()
        grid.write_siv1(self.video, video)
        t_end = time.perf_counter()
        return {"op_ms": (t_end - t0) * _MS, "first_ms": (t_decoded - t0) * _MS,
                "stage2_ms": (t_end - t_inputs) * _MS, "frames": video.shape[0],
                "video": video, "spec": spec, "plan": p, "inp": inp}

    def check(self, sample):
        v, T = sample["video"], sample["spec"]["T"]
        bad = []
        if v.shape != (T, 32, 32, 3):
            bad.append(f"video shape {v.shape} != {(T, 32, 32, 3)}")
        if not np.all(np.isfinite(v)):
            bad.append("video has non-finite values")
        elif v.min() < 0.0 or v.max() > 1.0:
            bad.append(f"video outside [0, 1]: [{v.min()}, {v.max()}]")
        return bad


class StreamLong(_Generate):
    """Few long requests through the threaded streaming runtime."""

    name = "stream_long"
    min_ops = 2
    T, M, N, CAPACITY = 641, 3, 1, 2
    DECODERS = ("codec.decode", "streamer.run_streaming")

    def draw(self, rng):
        return {"scene": rng.randrange(1 << 32), "motif": rng.choice(synth.MOTIFS),
                "T": self.T, "M": self.M, "N": self.N, "seed": rng.randrange(1 << 32)}

    def _run_request(self, spec):
        t0, t_inputs, inp, p = self._begin(spec)
        video, events, tm = streamer.run_streaming(self.s2, inp, p, spec["seed"],
                                                   queue_capacity=self.CAPACITY)
        grid.write_siv1(self.video, video)
        t_end = time.perf_counter()
        offset = (t_inputs - t0) * _MS  # the stream's stamps start inside run_streaming
        emitted = [e.t_ms for e in events if e.kind == "frames_emitted"]
        denoised = {e.index: e.t_ms for e in events if e.kind == "segment_denoised"}
        decoded = {e.index: e.t_ms for e in events if e.kind == "segment_decoded"}
        # Consumer idle between segments: segment s ready after s-1 decoded.
        wait = sum(max(0.0, denoised[s] - decoded[s - 1]) for s in denoised if s > 1)
        return {"op_ms": (t_end - t0) * _MS, "first_ms": offset + emitted[0],
                "stage2_ms": (t_end - t_inputs) * _MS, "frames": video.shape[0],
                "gaps_ms": [b - a for a, b in zip(emitted, emitted[1:])],
                "decode_wait_ms": wait,
                "overrun_ms": max(decoded.values()) - streamer.predict_timing(tm)["full_output"],
                "video": video, "events": events, "spec": spec, "plan": p, "inp": inp}

    def check(self, sample):
        p, inp, seed = sample["plan"], sample["inp"], sample["spec"]["seed"]
        bad = []
        try:
            streamer.check_events(sample["events"], p)
        except ValueError as e:
            bad.append(f"event log: {e}")
        ref = codec.decode(stage2.infer_csg(self.s2, inp, p, seed), self.s2.codec_cfg)
        if not np.array_equal(sample["video"], ref):
            bad.append("streamed video differs from infer_csg + decode")
        return bad


class Train:
    """Both training commands in-process at the default config."""

    name = "train"
    min_ops = 2
    STEPS = 600  # the CLI default, so both commands run at their default config

    def fixture(self, work):
        self.work = work
        self.corpus, self.s1_dir, self.s2_dir = (
            os.path.join(work, d) for d in ("corpus", "s1", "s2"))
        self.logs = None
        self.encode_per_step = None

    def setup(self, seed):
        self.seed = seed
        corpus_seed = random.Random(f"{self.name}/{seed}").randrange(1 << 31)
        if _quiet_cli(["synth", "--seed", str(corpus_seed), "--out", self.corpus]) != 0:
            raise RuntimeError("synth failed")
        warm = os.path.join(self.work, "warm")
        for argv in (["train-stage1", "--corpus", self.corpus, "--out", warm + "1",
                      "--steps", "5"],
                     ["train-stage2", "--corpus", self.corpus, "--stage1", warm + "1",
                      "--out", warm + "2", "--steps", "5"]):
            if _quiet_cli(argv) != 0:
                raise RuntimeError(f"warm-up failed: segvid {' '.join(argv)}")

    def prepare(self, i):
        pass

    def run(self, i):
        t0 = time.perf_counter()
        rc1 = _quiet_cli(["train-stage1", "--corpus", self.corpus, "--out", self.s1_dir])
        t1 = time.perf_counter()
        rc2 = _quiet_cli(["train-stage2", "--corpus", self.corpus, "--stage1", self.s1_dir,
                          "--out", self.s2_dir])
        t2 = time.perf_counter()
        return {"op_ms": (t2 - t0) * _MS, "first_ms": (t1 - t0) * _MS,
                "stage2_ms": (t2 - t1) * _MS, "steps": 2 * self.STEPS, "rc": (rc1, rc2)}

    def _out(self, stage, name):
        return os.path.join(self.s1_dir if stage == 1 else self.s2_dir, name)

    def _log(self, stage):
        with open(self._out(stage, "train_log.csv"), "rb") as f:
            return f.read()

    def check(self, sample):
        if sample["rc"] != (0, 0):
            return [f"train commands exited {sample['rc']}"]
        bad = []
        logs = (self._log(1), self._log(2))
        for stage, raw in zip((1, 2), logs):
            rows = raw.decode().splitlines()[1:]
            losses = [float(r.split(",")[1]) for r in rows]
            if len(losses) != self.STEPS or not all(math.isfinite(x) for x in losses):
                bad.append(f"stage {stage}: {len(losses)} losses, not all finite")
            with open(self._out(stage, "summary.json")) as f:
                s = json.load(f)
            if not s["final_loss"] < s["init_loss"]:
                bad.append(f"stage {stage}: final loss {s['final_loss']} "
                           f">= initial {s['init_loss']}")
        if self.logs is None:
            self.logs = logs
        elif logs != self.logs:
            bad.append("train_log.csv differs from the first repetition")
        return bad

    def check_structure(self, sample, spans):
        per_step = (tr.count_under(spans, "codec.encode", "stage1.train") / self.STEPS,
                    tr.count_under(spans, "codec.encode", "stage2.train") / self.STEPS)
        if self.encode_per_step is None:
            self.encode_per_step = per_step
        elif per_step != self.encode_per_step:
            return [f"codec.encode calls per step {per_step} != first cycle's "
                    f"{self.encode_per_step}"]
        return []

    def digests(self) -> dict:
        return {"stage1_train_log_sha256": hashlib.sha256(self._log(1)).hexdigest(),
                "stage2_train_log_sha256": hashlib.sha256(self._log(2)).hexdigest()}


WORKLOADS = {w.name: w for w in (GenShort, StreamLong, Train)}
