"""Metric sensitivity: each mock corruption moves the metrics that the paper's
definitions say it must, against the uncorrupted edit, through the whole CLI
chain ``build-dataset`` -> ``generate`` -> ``evaluate --with-judge --with-vsr``.

FPF and SQ are left out until the judge sees the prediction it scores, and VSR
until the mock embedder sees what a clip shows: today no corruption can move
them."""

import json
from pathlib import Path

import pytest

from adcut.backends import GENERATE_MODES
from adcut.cli import main

FIX = Path(__file__).parent / "fixtures"

# corruption -> {metric: (direction against mock:perfect, the paper's reason)}
MATRIX = {
    "swap_adjacent": {
        "cra": ("lower", "CRA asks for the ground truth's clip order, the storyline; a swap of two clips breaks it"),
        "csa": ("same", "CSA asks only which clips are used, and a swap uses the same clips"),
        "dtpr_recall": ("same", "decorative tags are untouched by the clip order"),
    },
    "inject_negative": {
        "cra": ("lower", "an extra clip makes the sequence differ from the ground truth's"),
        "csa": ("lower", "CSA asks that no negative clip, a distractor shown beside the ad's own shots, is used"),
        "dtpr_recall": ("same", "decorative tags are untouched by the clip selection"),
    },
    "drop_tag": {
        "cra": ("same", "the clips and their order are untouched by a decoration"),
        "csa": ("same", "the clips are untouched by a decoration"),
        "dtpr_recall": ("lower", "DTPR recall asks for every TTS, avatar and music tag the ad carries; one is missing"),
    },
}


def _scores(report):
    return {"cra": report["cra"], "csa": report["csa"], "dtpr_recall": report["dtpr"]["recall"]}


@pytest.fixture(scope="module")
def evaluated(tmp_path_factory):
    """The scores of ``evaluate`` over the fixture corpus for one generate endpoint, per endpoint."""
    work = tmp_path_factory.mktemp("sensitivity")
    corpus = work / "corpus.jsonl"
    assert main(["build-dataset", "--config", str(FIX / "adcut.ini"), "--seed", "7", "--out", str(corpus)]) == 0
    done = {}

    def run(endpoint):
        if endpoint not in done:
            name = endpoint.replace(":", "_")
            predictions, report = work / f"{name}.jsonl", work / f"{name}.json"
            common = ["--config", str(FIX / "adcut.ini"), "--seed", "7"]
            assert main(["generate", str(corpus), *common, "--endpoint-generate", endpoint,
                         "--out", str(predictions)]) == 0
            assert main(["evaluate", str(corpus), str(predictions), *common, "--with-judge", "--with-vsr",
                         "--out", str(report)]) == 0
            done[endpoint] = _scores(json.loads(report.read_text("utf-8")))
        return done[endpoint]

    return run


def test_the_matrix_has_one_row_per_corruption():
    assert sorted(MATRIX) == sorted(GENERATE_MODES)


@pytest.mark.parametrize("mode", list(GENERATE_MODES))
def test_each_corruption_moves_the_metrics_its_definition_names(evaluated, mode):
    perfect, corrupted = evaluated("mock:perfect"), evaluated(f"mock:{mode}")
    assert perfect == {"cra": 100.0, "csa": 100.0, "dtpr_recall": 100.0}
    for metric, (direction, reason) in MATRIX[mode].items():
        moved = corrupted[metric] < perfect[metric] if direction == "lower" else corrupted[metric] == perfect[metric]
        assert moved, f"{mode}: {metric} {corrupted[metric]} not {direction} than {perfect[metric]}: {reason}"
