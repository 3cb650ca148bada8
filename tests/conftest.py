"""Shared fixtures: the acceptance-criteria summary, one trained pipeline,
and a slow streaming decoder.

The pipeline fixture runs the real CLI end to end once per session (corpus,
stage 1, stage 2) and hands the checkpoint directories to every test that
needs a trained model, so training cost is paid once.
"""

import itertools
import time

import pytest

import golden
from segvid import streamer

# The session's criterion rows, kept in memory so the summary also works
# with pytest's cache plugin disabled (-p no:cacheprovider).
ACC_KEY = pytest.StashKey[dict]()


def pytest_configure(config):
    config.stash[ACC_KEY] = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    rows = config.stash.get(ACC_KEY, {})
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(rows):
        ok, detail = rows[n]
        terminalreporter.write_line(
            f"criterion {n:2d} {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture
def criterion(request):
    """Record one acceptance-criterion outcome for the terminal summary."""
    def record(n, ok, detail):
        request.config.stash[ACC_KEY][n] = (bool(ok), detail)
        assert ok, f"criterion {n}: {detail}"
    return record


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """CLI defaults end to end (``golden.build_pipeline``): 6-clip T=81
    corpus, 600-step stage 1, 600-step stage 2, plus a single-frame SIV1
    input image for generate tests."""
    return golden.build_pipeline(tmp_path_factory.mktemp("pipeline"))


@pytest.fixture
def consumer_delays(monkeypatch):
    """consumer_delays(p, delays) makes the streamer's decoder sleep
    delays[s-1] seconds before the first decode of segment s (segment 1's
    first decode is the anchor's), to vary the producer/consumer
    interleaving; delays=None restores the real decoder."""
    real = streamer.decode_block

    def install(p, delays):
        if delays is None:
            monkeypatch.setattr(streamer, "decode_block", real)
            return
        assert len(delays) == p.S, f"need {p.S} delays, got {len(delays)}"
        sizes = [1 + len(p.I[0])] + [len(i) for i in p.I[1:-1]]
        sleeps = dict(zip(itertools.accumulate(sizes, initial=0), delays))
        calls = 0

        def decode_block(block, cfg, first, out=None):
            nonlocal calls
            if first:  # the anchor: a new stream starts
                calls = 0
            if calls in sleeps:
                time.sleep(sleeps[calls])
            calls += 1
            return real(block, cfg, first, out)

        monkeypatch.setattr(streamer, "decode_block", decode_block)

    return install
