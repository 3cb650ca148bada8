"""End-to-end CLI tests against the trained session pipeline: exit codes,
config layering, deterministic generation, streaming parity, ablation."""

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import segvid
from segvid import cli, stage2, synth
from segvid.grid import read_siv1, write_siv1


def test_usage_errors_exit_1(tmp_path):
    assert cli.main(["bogus"]) == 1
    assert cli.main([]) == 1
    assert cli.main(["generate", "--out", str(tmp_path)]) == 1  # missing required flags


def test_help_exits_0():
    assert cli.main(["--help"]) == 0
    assert cli.main(["synth", "--help"]) == 0


def test_main_parses_with_one_parser_per_process(monkeypatch, tmp_path, capsys):
    # the parser is built once and reused, also after a parse that failed;
    # a failed parse leaves nothing behind for the next one
    parsers = []
    real = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    out = tmp_path / "c"
    assert cli.main(["synth", "--out", str(out), "--count", "two"]) == 1
    assert cli.main(["bogus"]) == 1
    assert cli.main(["synth", "--out", str(out), "--frames", "5"]) == 0
    assert cli.main(["synth", "--help"]) == 0
    assert len(parsers) == 4 and all(ap is cli._build_parser() for ap in parsers)
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["count"] == cli.DEFAULTS["count"] and resolved["frames"] == 5


def test_missing_out_is_validation_error():
    assert cli.main(["synth"]) == 2


def test_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    cfg.write_text("{broken")
    assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert cli.main(["synth", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("key, value, want", [
    ("count", 2.5, "expects int, got 2.5"),
    ("count", "3", 'expects int, got "3"'),
    ("count", True, "expects int, got true"),
    ("count", None, "expects int, got null"),
    ("motif", 3, "expects str, got 3"),
], ids=["float-for-int", "str-for-int", "bool-for-int", "null", "int-for-str"])
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, key, value, want):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and f"config key '{key}' {want}" in err


def test_config_int_passes_as_float(tmp_path, capsys):
    corpus, cfg = tmp_path / "corpus", tmp_path / "cfg.json"
    assert cli.main(["synth", "--count", "1", "--frames", "17", "--out", str(corpus)]) == 0
    train = ["train-stage1", "--corpus", str(corpus), "--config", str(cfg), "--steps", "2"]
    cfg.write_text(json.dumps({"lr": 0}))
    assert cli.main(train + ["--out", str(tmp_path / "a")]) == 0
    resolved = json.loads((tmp_path / "a" / "config.resolved.json").read_text())
    assert resolved["lr"] == 0.0 and isinstance(resolved["lr"], float)
    capsys.readouterr()
    cfg.write_text(json.dumps({"lr": False}))
    assert cli.main(train + ["--out", str(tmp_path / "b")]) == 2
    assert "config key 'lr' expects float, got false" in capsys.readouterr().err


def test_empty_corpus_exits_2(tmp_path, capsys):
    for count in ("0", "-1"):
        assert cli.main(["synth", "--count", count, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and f"count must be at least 1, got {count}" in err
    assert not (tmp_path / "o" / "manifest.json").exists()
    corpus = tmp_path / "empty"
    corpus.mkdir()
    (corpus / "manifest.json").write_text("[]")
    assert cli.main(["train-stage1", "--corpus", str(corpus), "--out", str(tmp_path / "s1")]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "holds no clips" in err


@pytest.mark.parametrize("extents", [(36, 36), (32, 40)])
def test_synth_rejects_frames_stage1_cannot_encode(tmp_path, capsys, extents):
    # 36 and 40 divide by f_s=4 but not by 16: the LR frames (9 or 10 pixels)
    # would not pool by f_s again, and train-stage1 would fail on the corpus
    H, W = extents
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"height": H, "width": W}))
    out = tmp_path / "corpus"
    assert cli.main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err, err
    assert f"corpus frames {H}x{W} not divisible by f_s*f_s=16" in err, err
    assert "pools them by f_s=4 to LR" in err, err
    assert not out.exists()  # no clip, no manifest, no directory


@pytest.mark.parametrize("key", ["count", "repeats", "seeds", "clips", "capacity"])
def test_count_below_one_exits_2_before_any_output(pipeline, tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"repeats": 0}))
    accumulation = ["bench", "accumulation", "--stage2", pipeline["s2"]]
    argv = {"count": ["synth", "--count", "0"],
            "repeats": ["bench", "scaling", "--config", str(cfg)],
            "seeds": accumulation + ["--seeds", "0"],
            "clips": accumulation + ["--clips", "0"],
            "capacity": ["generate", "--stage1", pipeline["s1"], "--stage2", pipeline["s2"],
                         "--image", pipeline["image"], "--stream", "--capacity", "0"]}[key]
    out = tmp_path / "o"
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and f"{key} must be at least 1, got 0" in err
    assert not out.exists()


def test_config_layering(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": 2, "frames": 17}))
    out = tmp_path / "a"
    assert cli.main(["synth", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["count"] == 2          # from file
    assert resolved["frames"] == 17        # from file
    assert resolved["seed"] == 5           # flag
    assert resolved["height"] == 32        # default
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest) == 2 and all(r["T"] == 17 for r in manifest)
    assert [r["seed"] for r in manifest] == [5, 6]

    out2 = tmp_path / "b"
    assert cli.main(["synth", "--config", str(cfg), "--out", str(out2),
                     "--count", "3"]) == 0
    assert len(json.loads((out2 / "manifest.json").read_text())) == 3  # flag beats file


# Config keys of `train-stage2` under the layering property: how a flag is
# drawn (None: the command has no flag for the key), and JSON values of the
# wrong type for the key's default.
_INTS = st.integers(-10**6, 10**6)
_FLOATS = st.floats(-1e6, 1e6, allow_nan=False)
_LAYERED = {
    "seed": (_INTS, [2.5, "3", True, None]),
    "steps": (_INTS, [1.0, "600", False, None]),
    "tsteps": (_INTS, [[1], {"a": 1}, True]),
    "sigma": (_FLOATS, ["0.1", True, None]),
    "mask": (st.sampled_from(sorted(cli.MASKS)), [3, 1.5, False, None]),
    "height": (None, [32.0, "32", True]),
    "motif": (None, [0, None, ["x"]]),
    "count": (None, [6.0, "6", None]),
}
_MISSING = object()  # the key is absent from the file
_VALID = {int: st.integers(-10**6, 10**6), float: st.one_of(_FLOATS, _INTS),
          str: st.text(max_size=8)}


@st.composite
def _layers(draw):
    """{key: (flag or None, file value or a missing marker)}."""
    out = {}
    for key, (flag, wrong) in _LAYERED.items():
        default = cli.DEFAULTS[key]
        f = draw(st.one_of(st.none(), flag)) if flag is not None else None
        valid = _VALID[type(default)]
        if key == "count":
            valid = st.integers(-2, 50)  # a count below 1 is rejected too
        v = draw(st.one_of(st.just(_MISSING), valid, st.sampled_from(wrong)))
        out[key] = (f, v)
    return out


@settings(deadline=None, max_examples=150)
@given(layers=_layers())
def test_config_layering_property(tmp_path_factory, layers):
    # flag > file > default; a file value must have its default's JSON type
    # (an int passes as a float, bool and null never pass as a number); a
    # flag hides the file's value, wrong or not; a count below 1 is rejected
    cfg_path = tmp_path_factory.getbasetemp() / "layering.json"
    cfg_path.write_text(json.dumps({k: v for k, (_, v) in layers.items() if v is not _MISSING}))
    argv = ["train-stage2", "--corpus", "c", "--stage1", "s", "--config", str(cfg_path)]
    argv += [f"--{k}={f}" for k, (f, _) in layers.items() if f is not None]
    args = cli._build_parser().parse_args(argv)

    def expect(key):
        flag, v = layers[key]
        default = cli.DEFAULTS[key]
        if flag is not None:
            return flag
        if v is _MISSING:
            return default
        if type(default) is float and type(v) is int:
            v = float(v)
        if type(v) is not type(default):
            return ValueError(f"config key '{key}' expects {type(default).__name__}")
        if key in cli.COUNTS and v < 1:
            return ValueError(f"{key} must be at least 1, got {v}")
        return v

    if isinstance(expect("count"), ValueError):  # counts are checked up front
        with pytest.raises(ValueError, match=str(expect("count"))):
            cli._Cfg(args)
        return
    cfg = cli._Cfg(args)
    for key in _LAYERED:
        want = expect(key)
        if isinstance(want, ValueError):
            with pytest.raises(ValueError, match=str(want)):
                cfg.get(key)
        else:
            got = cfg.get(key)
            assert type(got) is type(want) and got == want, key
            assert cfg.resolved[key] == want


def _generate(pipeline, out, *extra):
    return cli.main(["generate", "--stage1", pipeline["s1"], "--stage2", pipeline["s2"],
                     "--image", pipeline["image"], "--out", str(out), "--frames", "17",
                     *extra])


def test_generate_deterministic(pipeline, tmp_path, capsys):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert _generate(pipeline, a) == 0
    assert "wrote 17 frames" in capsys.readouterr().out
    assert _generate(pipeline, b) == 0
    assert _generate(pipeline, c, "--seed", "1") == 0
    va = (a / "video.siv1").read_bytes()
    assert va == (b / "video.siv1").read_bytes()
    assert va != (c / "video.siv1").read_bytes()
    plan = json.loads((a / "plan.json").read_text())
    assert plan["t"] == 5 and plan["M"] == 3 and plan["N"] == 1
    assert (a / "config.resolved.json").exists()


def test_generate_stream_matches_plain(pipeline, tmp_path):
    plain, stream = tmp_path / "p", tmp_path / "s"
    assert _generate(pipeline, plain) == 0
    assert _generate(pipeline, stream, "--stream") == 0
    assert (plain / "video.siv1").read_bytes() == (stream / "video.siv1").read_bytes()
    with (stream / "events.csv").open() as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["kind", "index", "t_ms"]
    assert len(rows) > 1
    timing = json.loads((stream / "timing.json").read_text())
    assert set(timing) == {"first_output", "full_output", "sequential_total"}
    assert not (plain / "events.csv").exists()


def test_generate_rejects_multiframe_image(pipeline, tmp_path):
    img = tmp_path / "two.siv1"
    write_siv1(img, synth.render_scene(synth.SceneSpec(seed=1, T=17))[:2])
    rc = cli.main(["generate", "--stage1", pipeline["s1"], "--stage2", pipeline["s2"],
                   "--image", str(img), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_generate_missing_checkpoint_exits_2(pipeline, tmp_path):
    rc = cli.main(["generate", "--stage1", str(tmp_path / "nope"),
                   "--stage2", pipeline["s2"], "--image", pipeline["image"],
                   "--out", str(tmp_path / "o")])
    assert rc == 2


def test_ablate_mn(pipeline, tmp_path):
    out = tmp_path / "ab"
    rc = cli.main(["ablate-mn", "--stage2", pipeline["s2"], "--out", str(out),
                   "--frames", "33"])
    assert rc == 0
    with (out / "ablate_mn.csv").open() as f:
        rows = list(csv.DictReader(f))
    assert {(int(r["M"]), int(r["N"])) for r in rows} == {(2, 1), (2, 2), (3, 1), (3, 2)}
    for r in rows:
        assert float(r["psnr"]) > 0.0
        assert int(r["max_tokens"]) > 0
        assert float(r["wall_ms"]) > 0.0


def test_bench_streaming(pipeline, tmp_path):
    out = tmp_path / "bs"
    rc = cli.main(["bench", "streaming", "--stage2", pipeline["s2"],
                   "--out", str(out), "--frames", "17"])
    assert rc == 0
    rep = json.loads((out / "streaming.json").read_text())
    assert rep["matches_sequential"] is True
    assert set(rep["predicted"]) == {"first_output", "full_output", "sequential_total"}
    assert len(rep["measured_denoise_ms"]) == len(rep["measured_decode_ms"]) == 2
    assert (out / "events.csv").exists() and (out / "video.siv1").exists()
    assert set(rep["measured"]) == {"serial", "threads"}
    for mode in rep["measured"].values():
        assert mode["matches_sequential"] is True
        assert len(mode["wall_ms"]) == len(mode["first_frame_ms"]) == 10  # the default repeats
        assert all(0.0 < f <= w for f, w in zip(mode["first_frame_ms"], mode["wall_ms"]))
        assert mode["first_frame_ms_p50"] <= mode["wall_ms_p50"]


def test_trained_checkpoints_record_losses(pipeline):
    for d in (pipeline["s1"], pipeline["s2"]):
        summary = json.loads((Path(d) / "summary.json").read_text())
        assert summary["final_loss"] < summary["init_loss"]
        with (Path(d) / "train_log.csv").open() as f:
            log = list(csv.DictReader(f))
        assert len(log) == 600


def _seed_sequences_built(monkeypatch, argv) -> int:
    """How many np.random.SeedSequence objects one CLI command builds."""
    made = 0
    real = np.random.SeedSequence

    def counted(*args, **kwargs):
        nonlocal made
        made += 1
        return real(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(np.random, "SeedSequence", counted)
        assert cli.main(argv) == 0
    return made


def test_train_commands_seed_as_many_generators_at_any_step_count(pipeline, tmp_path,
                                                                  monkeypatch):
    # a training run draws every step from one stream, so the generators a
    # train command builds do not grow with --steps (the session pipeline
    # already built the codec's lift, which is cached per process)
    for cmd, extra in (("train-stage1", []), ("train-stage2", ["--stage1", pipeline["s1"]])):
        built = [_seed_sequences_built(monkeypatch, [
            cmd, "--corpus", pipeline["corpus"], "--out", str(tmp_path / f"{cmd}-{steps}"),
            "--steps", str(steps), *extra]) for steps in (5, 600)]
        assert built[0] == built[1], f"{cmd}: {built}"


@pytest.mark.parametrize("frames", [81, 641])
def test_stream_request_seeds_one_generator_per_stage(pipeline, tmp_path, monkeypatch, frames):
    # one noise stream per stage, whatever the video length (the codec's
    # lift is built once per process, by the first request)
    argv = ["generate", "--stage1", pipeline["s1"], "--stage2", pipeline["s2"],
            "--image", pipeline["image"], "--frames", str(frames), "--stream", "--out"]
    assert cli.main(argv + [str(tmp_path / "warm")]) == 0
    assert _seed_sequences_built(monkeypatch, argv + [str(tmp_path / "out")]) == 2


def test_diverging_training_exits_3_without_checkpoint(tmp_path, capsys):
    # 64x64 stage 1 at the default lr: the step losses stay finite, the last
    # updates blow the evaluation loss up to inf
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"height": 64, "width": 64}))
    corpus, s1 = tmp_path / "corpus", tmp_path / "s1"
    assert cli.main(["synth", "--config", str(cfg), "--out", str(corpus)]) == 0
    with np.errstate(over="ignore", invalid="ignore"):
        rc = cli.main(["train-stage1", "--config", str(cfg), "--corpus", str(corpus),
                       "--out", str(s1), "--steps", "5"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "FloatingPointError" in err and "stage 1" in err and "step 4" in err
    assert not (s1 / "stage1.json").exists()
    assert not list(s1.glob("w_*.siv1"))


def test_generate_rejects_codec_mismatch(pipeline, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c": 3}))
    s1 = tmp_path / "s1c3"
    assert cli.main(["train-stage1", "--config", str(cfg), "--corpus", pipeline["corpus"],
                     "--out", str(s1), "--steps", "5"]) == 0
    capsys.readouterr()
    rc = cli.main(["generate", "--stage1", str(s1), "--stage2", pipeline["s2"],
                   "--image", pipeline["image"], "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "codec configs differ: c=3 vs c=4" in err


def test_generate_rejects_image_size_mismatch(pipeline, tmp_path, capsys):
    img = tmp_path / "big.siv1"
    write_siv1(img, synth.render_scene(synth.SceneSpec(seed=1, T=17, H=64, W=64))[:1])
    rc = cli.main(["generate", "--stage1", pipeline["s1"], "--stage2", pipeline["s2"],
                   "--image", str(img), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "image is 64x64" in err and "d_in" in err


def test_diverging_training_stderr_is_one_line(tmp_path):
    # the same 64x64 divergence through a fresh interpreter, so numpy's
    # floating-point warnings would reach stderr if any were raised
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"height": 64, "width": 64}))
    corpus, s1 = tmp_path / "corpus", tmp_path / "s1"
    assert cli.main(["synth", "--config", str(cfg), "--out", str(corpus)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(segvid.__file__).parents[1]))
    r = subprocess.run([sys.executable, "-m", "segvid.cli", "train-stage1", "--config",
                        str(cfg), "--corpus", str(corpus), "--out", str(s1),
                        "--steps", "5"], env=env, capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 3
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("segvid: runtime failure"), r.stderr
    assert "stage 1" in lines[0] and "step 4" in lines[0]
    assert not (s1 / "stage1.json").exists() and not list(s1.glob("w_*.siv1"))


def test_config_must_name_a_file(tmp_path, capsys):
    rc = cli.main(["synth", "--config", '{"count":2}', "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "JSON file" in err and '{"count":2}' in err


def _corpus_64(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"height": 64, "width": 64, "count": 2, "frames": 17}))
    corpus = tmp_path / "corpus64"
    assert cli.main(["synth", "--config", str(cfg), "--out", str(corpus)]) == 0
    return str(corpus)


def test_train_takes_extents_from_corpus(tmp_path):
    # no config: the 64x64 corpus, not the 32x32 defaults, sizes both models
    corpus = _corpus_64(tmp_path)
    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["train-stage1", "--corpus", corpus, "--out", str(s1),
                     "--steps", "3", "--lr", "1e-4"]) == 0
    assert cli.main(["train-stage2", "--corpus", corpus, "--stage1", str(s1),
                     "--out", str(s2), "--steps", "3"]) == 0
    for d, d_in in ((s1, 2 * 4 * 4 * 4), (s2, 2 * 4 * 16 * 16)):
        w_in = read_siv1(d / "w_in.siv1")
        assert w_in.shape[1] == d_in
        resolved = json.loads((d / "config.resolved.json").read_text())
        assert "height" not in resolved and "width" not in resolved


def _corpus_with_odd_clip(tmp_path, case):
    """A 2-clip 32x32 corpus whose second clip file is 64x64 under a record
    that says so ("wide"), or 21 frames long under a record of 17 ("long")."""
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--count", "2", "--frames", "17", "--out", str(corpus)]) == 0
    records = json.loads((corpus / "manifest.json").read_text())
    odd = {"wide": dict(T=17, H=64, W=64), "long": dict(T=21)}[case]
    write_siv1(corpus / records[1]["file"], synth.render_scene(synth.SceneSpec(seed=1, **odd)))
    if case == "wide":
        records[1].update(H=64, W=64)
        (corpus / "manifest.json").write_text(json.dumps(records))
    return str(corpus), records[1]["file"]


@pytest.mark.parametrize("case, want", [
    ("wide", "frames (64, 64) differ from the first clip's (32, 32)"),
    ("long", "clip is (21, 32, 32, 3), its manifest record says (17, 32, 32, 3)"),
], ids=["wide", "long"])
@pytest.mark.parametrize("cmd", ["train-stage1", "train-stage2", "transition"])
def test_corpus_clip_of_other_extents_exits_2_naming_it(pipeline, tmp_path, capsys, cmd,
                                                        case, want):
    # rejected at load with the file's name, not as the mixer's shape error
    # (wide) or by training on frames the manifest does not describe (long)
    corpus, name = _corpus_with_odd_clip(tmp_path, case)
    capsys.readouterr()
    argv = [cmd, "--corpus", corpus, "--out", str(tmp_path / "o")]
    if cmd != "train-stage1":
        argv += ["--stage1", pipeline["s1"]]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and f"{name}: {want}" in err, err


def _drop(key):
    def mutate(records):
        del records[0][key]
        return records
    return mutate


def _set(key, value):
    def mutate(records):
        records[0][key] = value
        return records
    return mutate


@pytest.mark.parametrize("mutate, want", [
    (_drop("seed"), "record 0 lacks key 'seed'"),
    (lambda records: {"clips": records}, "expects a JSON list of clip records, got dict"),
    (_set("velocity", 5), "record 0 key 'velocity' expects list, got 5"),
    (_set("file", None), "record 0 key 'file' expects str, got null"),
    (lambda records: [1], "record 0 must be a JSON object, got 1"),
    (_set("motif", "nope"), "record 0 key 'motif' expects one of"),
], ids=["missing-key", "object", "velocity-number", "file-null", "record-number", "motif"])
@pytest.mark.parametrize("cmd", ["train-stage1", "train-stage2", "transition"])
def test_bad_manifest_exits_2_naming_record_and_key(pipeline, tmp_path, capsys, cmd, mutate,
                                                    want):
    # checked whole before any clip is read: one line naming the manifest,
    # never a bare KeyError, a TypeError (exit 3) or training on a bad motif
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--count", "2", "--frames", "17", "--out", str(corpus)]) == 0
    manifest = corpus / "manifest.json"
    manifest.write_text(json.dumps(mutate(json.loads(manifest.read_text()))))
    capsys.readouterr()
    argv = [cmd, "--corpus", str(corpus), "--out", str(tmp_path / "o" / "run")]
    if cmd != "train-stage1":
        argv += ["--stage1", pipeline["s1"]]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and f"{manifest}: {want}" in err, err
    # the refused command leaves neither --out nor the parent it created
    assert not (tmp_path / "o").exists() and tmp_path.exists()


def test_synth_refuses_clips_of_two_frame_sizes(monkeypatch, tmp_path, capsys):
    # the writer enforces the reader's rule, before it writes anything
    specs = [synth.SceneSpec(seed=0), synth.SceneSpec(seed=1, H=64, W=64)]
    monkeypatch.setattr(synth, "default_specs", lambda *args, **kwargs: specs)
    corpus = tmp_path / "corpus"
    capsys.readouterr()
    assert cli.main(["synth", "--out", str(corpus)]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "corpus clip 1 is 64x64, the first clip 32x32" in err, err
    assert not corpus.exists()


def test_pipeline_at_a_non_default_codec(tmp_path):
    # f_s=2, f_t=2 on 16x16 frames end to end; stage 1 needs a smaller step
    # size there (at the default it diverges and exits 3)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"f_s": 2, "f_t": 2, "height": 16, "width": 16, "frames": 17}))
    corpus, s1, s2 = (str(tmp_path / n) for n in ("corpus", "s1", "s2"))
    common = ["--config", str(cfg)]
    assert cli.main(["synth", *common, "--out", corpus]) == 0
    assert cli.main(["train-stage1", *common, "--corpus", corpus, "--lr", "1e-3",
                     "--out", s1]) == 0
    assert cli.main(["train-stage2", *common, "--corpus", corpus, "--stage1", s1,
                     "--out", s2]) == 0
    image = tmp_path / "image.siv1"
    write_siv1(image, synth.render_scene(synth.SceneSpec(seed=5, T=1, H=16, W=16)))
    videos = []
    for extra in ([], ["--stream"]):
        out = tmp_path / f"gen{len(extra)}"
        assert cli.main(["generate", *common, "--stage1", s1, "--stage2", s2,
                         "--image", str(image), "--out", str(out), *extra]) == 0
        videos.append((out / "video.siv1").read_bytes())
    assert read_siv1(out / "video.siv1").shape == (17, 16, 16, 3)
    assert videos[0] == videos[1]
    for d, name, d_in in ((s1, "stage1", 2 * 4 * 4 * 4), (s2, "stage2", 2 * 4 * 8 * 8)):
        assert json.loads((Path(d) / f"{name}.json").read_text())["f_s"] == 2
        assert read_siv1(Path(d) / "w_in.siv1").shape[1] == d_in


def test_train_stage2_rejects_stage1_of_other_size(pipeline, tmp_path, capsys):
    # a 32x32 stage-1 checkpoint on a 64x64 corpus
    corpus = _corpus_64(tmp_path)
    capsys.readouterr()
    rc = cli.main(["train-stage2", "--corpus", corpus, "--stage1", pipeline["s1"],
                   "--out", str(tmp_path / "s2"), "--steps", "3"])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "corpus frame is 64x64" in err and "stage-1" in err
    assert not (tmp_path / "s2" / "stage2.json").exists()


def test_transition_rejects_stage1_of_other_size(pipeline, tmp_path, capsys):
    # a 32x32 stage-1 checkpoint on a 64x64 corpus
    corpus = _corpus_64(tmp_path)
    capsys.readouterr()
    rc = cli.main(["transition", "--corpus", corpus, "--stage1", pipeline["s1"],
                   "--out", str(tmp_path / "tr")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "corpus frame is 64x64" in err and "stage-1" in err


@pytest.mark.parametrize("argv", [["bench", "streaming"], ["bench", "accumulation"],
                                  ["ablate-mn"]])
def test_stage2_commands_reject_frame_size_mismatch(pipeline, tmp_path, capsys, argv):
    # 64x64 frames against the 32x32 stage-2 checkpoint: a one-line reason,
    # not the mixer's shape error
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"height": 64, "width": 64}))
    rc = cli.main(argv + ["--config", str(cfg), "--stage2", pipeline["s2"],
                          "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "height x width is 64x64" in err
    assert "stage-2 checkpoint has d_in 512 (1024 pixels per frame)" in err
    assert "window blocks" not in err


def _set_key(name, key, value):
    def corrupt(ckpt):
        doc = json.loads((ckpt / name).read_text())
        doc[key] = value
        (ckpt / name).write_text(json.dumps(doc))
    return corrupt


def _two_w_q_slices(ckpt):
    w = read_siv1(ckpt / "w_q.siv1")
    write_siv1(ckpt / "w_q.siv1", np.concatenate([w, w]))


@pytest.mark.parametrize("corrupt, want", [
    (_set_key("stage1.json", "f_s", "4"), "stage1.json: key 'f_s' expects int, got \"4\""),
    (_set_key("mixer.json", "d", None), "mixer.json: key 'd' expects int, got null"),
    (_set_key("stage1.json", "sigmas", [1.0, "x", 0.0]),
     "stage1.json: sigmas must be finite numbers, got (1.0, 'x', 0.0)"),
    (_two_w_q_slices, "w_q.siv1: a matrix is stored as (1, rows, cols, 1), got (2, 32, 32, 1)"),
    (_set_key("mixer.json", "d", 16),
     "mixer.json: embedding/readout width 32/32 disagrees with d=16"),
], ids=["f_s-string", "d-null", "sigmas-string", "w_q-two-slices", "d-not-matrix-width"])
def test_corrupt_checkpoint_exits_2_naming_file(pipeline, tmp_path, capsys, corrupt, want):
    s1 = tmp_path / "s1"
    shutil.copytree(pipeline["s1"], s1)
    corrupt(s1)
    rc = cli.main(["generate", "--stage1", str(s1), "--stage2", pipeline["s2"],
                   "--image", pipeline["image"], "--out", str(tmp_path / "o"), "--frames", "17"])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and f"{s1}{os.sep}{want}" in err, err


def test_bench_boundary_rejects_plan_without_seams(pipeline, tmp_path, capsys, monkeypatch):
    # M=40 at T=81 (t=21) is one segment: no seam to score, so the command
    # stops before the stage-1 rollout, and writes no boundary.json
    def rollout(*args):
        raise AssertionError("the stage-1 rollout ran")

    monkeypatch.setattr(stage2, "pipeline_inputs", rollout)
    out = tmp_path / "b"
    rc = cli.main(["bench", "boundary", "--stage1", pipeline["s1"], "--stage2", pipeline["s2"],
                   "--M", "40", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "frames=81 at M=40, N=1 plans 1 segment(s)" in err, err
    assert not (out / "boundary.json").exists()


def test_write_json_refuses_nan_and_infinity(tmp_path):
    ok = tmp_path / "ok.json"
    cli._write_json(ok, {"a": [1.5, 2], "b": "x"})
    assert json.loads(ok.read_text(), parse_constant=pytest.fail) == {"a": [1.5, 2], "b": "x"}
    for bad in (float("nan"), float("inf"), -float("inf")):
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError, match="bad.json: Out of range float values"):
            cli._write_json(path, {"report": {"gap_pct": bad}})
        assert not path.exists()
