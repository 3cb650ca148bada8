"""The package against the plain pipeline of tests/reference.py, byte for
byte, over configurations."""

import json

from hypothesis import given, settings, strategies as st

import reference
from segvid import cli, synth
from segvid.grid import write_siv1


@settings(deadline=None, max_examples=100)
@given(f_s=st.sampled_from((2, 4)), f_t=st.sampled_from((2, 4)), wide=st.booleans(),
       blocks=st.integers(1, 5), count=st.integers(1, 2), d=st.sampled_from((2, 4, 8)),
       K=st.integers(1, 4), mask=st.sampled_from(("bi", "causal")), steps=st.integers(1, 3),
       sigma=st.sampled_from((0.0, 0.1, 0.45, 1.0)), tsteps=st.integers(1, 3),
       seed=st.integers(0, 2**63), stream=st.booleans(), data=st.data())
def test_pipeline_equals_reference(tmp_path_factory, f_s, f_t, wide, blocks, count, d, K, mask,
                                   steps, sigma, tsteps, seed, stream, data):
    # every file the CLI writes from corpus to video, checkpoints included,
    # at f_s, f_t in {2, 4} on frames of f_s² or 2·f_s², with plans of one
    # segment (M >= t - 1) and of many, plain and streamed. The step size is
    # one at which no drawn config diverges: at the defaults a d = 2 stage 2
    # on 32x32 frames can overflow within three steps (exit 3).
    t = 1 + blocks
    H = f_s ** 2 * (1 + wide)
    cfg = {"f_s": f_s, "f_t": f_t, "c": 4, "height": H, "width": H, "frames": 1 + blocks * f_t,
           "count": count, "d": d, "K": K, "mask": mask, "steps": steps, "lr": 1e-5,
           "sigma": sigma, "tsteps": tsteps, "seed": seed, "M": data.draw(st.integers(1, t)),
           "N": data.draw(st.integers(0, 3))}
    root = tmp_path_factory.mktemp("pipeline")
    (root / "cfg.json").write_text(json.dumps(cfg))
    image = synth.render_scene(synth.SceneSpec(seed=seed % 1000, T=1, H=H, W=H))
    write_siv1(root / "image.siv1", image)
    flags = ["--config", str(root / "cfg.json")]
    corpus, s1, s2 = (str(root / name) for name in ("corpus", "stage1", "stage2"))
    assert cli.main(["synth", *flags, "--out", corpus]) == 0
    assert cli.main(["train-stage1", *flags, "--corpus", corpus, "--out", s1]) == 0
    assert cli.main(["train-stage2", *flags, "--corpus", corpus, "--stage1", s1,
                     "--out", s2]) == 0
    assert cli.main(["generate", *flags, "--stage1", s1, "--stage2", s2, "--image",
                     str(root / "image.siv1"), "--out", str(root / "generate"),
                     *(["--stream"] if stream else [])]) == 0
    want = reference.run(cfg, image[0])
    for stage in ("stage1", "stage2"):
        written = {p.name for p in (root / stage).iterdir()} - {"config.resolved.json"}
        assert written == {k.split("/")[1] for k in want if k.startswith(stage)}
    for name, blob in want.items():
        assert (root / name).read_bytes() == blob, name
