"""Smoke tests of the benchmark harness at a tiny size.

They read ``perfbench/inputs.py``, ``workloads.py``, ``oracles.py`` and
``tracing.py`` without changing them, as ``perfbench/tests`` does. The corpus
chain runs each stage through ``cli.main`` directly: ``workloads.run_stages``
freezes the collector of the whole process, which a test run must not do.
"""

import importlib
import random
import sys
from pathlib import Path

import pytest

from adcut import backends, cli, dataset, draft, jsonutil, metrics, sampling, timeline  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    import oracles
    import tracing
    import workloads

    return inputs, oracles, workloads, tracing


def test_corpus_chain_artifacts_match_across_concurrency_and_the_recount(tmp_path, harness):
    inputs, oracles, workloads, _ = harness
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


def test_tracer_finds_every_traced_function_and_restores_every_binding(harness):
    tracing = harness[3]
    modules = {name: m for name, m in sys.modules.items() if name == "adcut" or name.startswith("adcut.")}
    before = {(name, attr): value for name, m in modules.items() for attr, value in vars(m).items()}
    call = backends.Client.call
    tracer = tracing.Tracer()
    try:
        tracer.install()  # an AttributeError here: a traced function was renamed
        for modname, fn_name, *_ in tracing.SPANS + tracing.COUNTERS:
            assert getattr(importlib.import_module(modname), fn_name) is not before[modname, fn_name], fn_name
        assert metrics.parse_draft is not before["adcut.draft", "parse_draft"]  # eval_sample's parse is traced
    finally:
        tracer.uninstall()
    after = {(name, attr): value for name, m in modules.items() for attr, value in vars(m).items()}
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
    assert backends.Client.call is call
