"""End-to-end CLI tests against the trained session pipeline: exit codes,
config layering, deterministic generation, streaming parity, ablation."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import segvid
from segvid import cli, synth
from segvid.grid import read_siv1, write_siv1


def test_usage_errors_exit_1(tmp_path):
    assert cli.main(["bogus"]) == 1
    assert cli.main([]) == 1
    assert cli.main(["generate", "--out", str(tmp_path)]) == 1  # missing required flags


def test_help_exits_0():
    assert cli.main(["--help"]) == 0
    assert cli.main(["synth", "--help"]) == 0


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


@pytest.mark.parametrize("key", ["count", "repeats", "seeds", "clips"])
def test_count_below_one_exits_2_before_any_output(pipeline, tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"repeats": 0}))
    accumulation = ["bench", "accumulation", "--stage2", pipeline["s2"]]
    argv = {"count": ["synth", "--count", "0"],
            "repeats": ["bench", "scaling", "--config", str(cfg)],
            "seeds": accumulation + ["--seeds", "0"],
            "clips": accumulation + ["--clips", "0"]}[key]
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
