"""Smoke test of the benchmark harness's corpus chain at a tiny size.

It reads ``perfbench/inputs.py``, ``workloads.py`` and ``oracles.py`` without
changing them, as ``perfbench/tests`` does, and runs each stage through
``cli.main`` directly: ``workloads.run_stages`` freezes the collector of the
whole process, which a test run must not do.
"""

import random
from pathlib import Path

import pytest

from adcut import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    import oracles
    import workloads

    return inputs, oracles, workloads


def test_corpus_chain_artifacts_match_across_concurrency_and_the_recount(tmp_path, harness):
    inputs, oracles, workloads = harness
    (doc,) = inputs.make_corpus_jobs(random.Random(5), inputs.load_taxonomy(PERFBENCH.parent), [3])
    job = workloads.write_job(tmp_path / "job", doc)
    artifacts = {}
    for concurrency in ("1", "2"):
        out = tmp_path / f"out{concurrency}"
        out.mkdir()
        for stage, argv in workloads.chain_args(job, out, 5, concurrency, workloads.GENERATE_MOCK):
            assert cli.main(argv) == 0, stage
        artifacts[concurrency] = workloads.read_artifacts(out)
    assert sorted(artifacts["1"]) == sorted(workloads.ARTIFACTS)
    assert artifacts["2"] == artifacts["1"]
    assert oracles.check_report(*(artifacts["1"][name] for name in workloads.ARTIFACTS)) == []
