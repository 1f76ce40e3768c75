import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adcut import metrics
from adcut.backends import BackendEndpoint, BadStatus, Client, MalformedScores, mock_backend
from adcut.dataset import DatasetSample
from adcut.draft import DecorationSetting, Draft, VideoNode, VoiceSentence, serialize_draft
from adcut.jsonutil import dumps_canonical, loads
from adcut.metrics import (
    EmptyCorpus,
    EvalSample,
    UnknownTag,
    _cosine,
    chunk_vsr,
    count_metrics,
    cra,
    csa,
    dtpr,
    eval_sample,
    evaluate_corpus,
    fpf_aggregate,
    render_table,
    score_sample,
    sq_aggregate,
    vsr,
    vsr_chunks,
    vsr_inputs,
)

from helpers import (
    mock_backend_set,
    packed_vectors,
    random_draft,
    recount_counts,
    recount_cra,
    recount_csa,
    recount_dtpr,
    reference_vsr,
)


def draft_with(indices, tags=None) -> Draft:
    nodes, at = [], 0
    for i in indices:
        nodes.append(VideoNode(index=i, target_start=at, target_end=at + 1000, source_start=0))
        at += 1000
    deco = tags or DecorationSetting()
    voice = (VoiceSentence("v", 0, max(at, 1000)),)
    return Draft(voice, tuple(nodes), deco)


def sample(pred_indices, truth_indices, negatives=(), pred_tags=None, truth_tags=None, sid="s"):
    return EvalSample(
        sample_id=sid,
        ground_truth=draft_with(truth_indices, truth_tags),
        predicted=draft_with(pred_indices, pred_tags) if pred_indices is not None else None,
        negatives=frozenset(negatives),
    )


def perturbed_corpus(n, seed):
    """Random ground truths with randomly swapped/injected/retagged predictions."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        gt = random_draft(rng, max_sentences=2, max_nodes=4)
        indices = [node.index for node in gt.video_nodes_track]
        negatives = {max(indices) + 1 + rng.randrange(3)}
        pred_indices = list(indices)
        roll = rng.random()
        if roll < 0.3 and len(pred_indices) >= 2:
            j = rng.randrange(len(pred_indices) - 1)
            pred_indices[j], pred_indices[j + 1] = pred_indices[j + 1], pred_indices[j]
        elif roll < 0.5:
            pred_indices.append(next(iter(negatives)))
        pred_tags = gt.decoration_setting if rng.random() < 0.5 else DecorationSetting(
            tts_tags=gt.decoration_setting.tts_tags,
            avatar_tags=(),
            music_tags=("Jazz",),
        )
        pred = Draft(gt.voice_over_track, draft_with(pred_indices).video_nodes_track, pred_tags)
        out.append(
            EvalSample(sample_id=f"s{i}", ground_truth=gt, predicted=pred, negatives=frozenset(negatives))
        )
    return out


class TestCra:
    def test_one_of_three(self):
        corpus = [
            sample([0, 1], [0, 1]),
            sample([1, 0], [0, 1]),
            sample([0], [0, 1]),
        ]
        assert cra(corpus) == pytest.approx(100.0 / 3.0)

    def test_identity_is_hundred(self):
        corpus = [sample([2, 0, 1], [2, 0, 1]) for _ in range(5)]
        assert cra(corpus) == 100.0

    def test_matches_recount(self):
        corpus = perturbed_corpus(20, seed=1)
        assert cra(corpus) == recount_cra(corpus)

    def test_empty(self):
        with pytest.raises(EmptyCorpus):
            cra([])


class TestCsa:
    def test_negative_selection_excluded(self):
        corpus = [sample([0, 9], [0, 1], negatives={9})]
        assert csa(corpus) == 0.0

    def test_order_irrelevant(self):
        corpus = [sample([1, 0], [0, 1], negatives={9})]
        assert csa(corpus) == 100.0
        assert cra(corpus) == 0.0

    def test_matches_recount(self):
        corpus = perturbed_corpus(20, seed=2)
        assert csa(corpus) == recount_csa(corpus)

    def test_cra_le_csa(self):
        for seed in range(5):
            corpus = perturbed_corpus(40, seed=seed)
            assert cra(corpus) <= csa(corpus)


class TestDtpr:
    def test_formula_case(self):
        truth = DecorationSetting(music_tags=("Pop", "Happy", "Chill"))
        pred = DecorationSetting(music_tags=("Pop", "Happy", "Jazz"))
        report = dtpr([sample([0], [0], pred_tags=pred, truth_tags=truth)])
        music = report.per_category["Music"]
        assert music["precision"] == pytest.approx(100 * 2 / 3)
        assert music["recall"] == pytest.approx(100 * 2 / 3)

    def test_as_many_false_positives_as_true_positives(self):
        # Music: tp = fp = fn = 1
        truth = DecorationSetting(music_tags=("Pop", "Happy"))
        pred = DecorationSetting(music_tags=("Pop", "Jazz"))
        music = dtpr([sample([0], [0], pred_tags=pred, truth_tags=truth)]).per_category["Music"]
        assert music == {"precision": 50.0, "recall": 50.0, "tp": 1, "fp": 1, "fn": 1}

    def test_identity(self):
        tags = DecorationSetting(tts_tags=("Young",), music_tags=("Pop",), avatar_tags=("Casual",))
        report = dtpr([sample([0], [0], pred_tags=tags, truth_tags=tags)])
        assert report.precision == 100.0
        assert report.recall == 100.0

    def test_matches_recount(self):
        corpus = perturbed_corpus(50, seed=3)
        report = dtpr(corpus)
        expected = recount_dtpr(corpus)
        for cat in ("TTS", "Avatar", "Music"):
            assert report.per_category[cat]["precision"] == expected[cat]["precision"]
            assert report.per_category[cat]["recall"] == expected[cat]["recall"]

    def test_absent_category_excluded_from_macro(self):
        truth = DecorationSetting(music_tags=("Pop",))
        pred = DecorationSetting(music_tags=("Pop",))
        report = dtpr([sample([0], [0], pred_tags=pred, truth_tags=truth)])
        assert report.per_category["Avatar"]["precision"] is None
        assert report.precision == 100.0  # macro over Music only

    def test_unknown_tag(self):
        bad = DecorationSetting(music_tags=("Polka",))
        with pytest.raises(UnknownTag):
            dtpr([sample([0], [0], pred_tags=bad)])

    @pytest.mark.parametrize("side", ["prediction", "ground truth"])
    @pytest.mark.parametrize("metric", [cra, csa, dtpr], ids=lambda m: m.__name__)
    def test_unknown_tag_fails_every_counting_metric(self, metric, side):
        bad = DecorationSetting(music_tags=("Polka",))
        corpus = [sample([0], [0], pred_tags=bad) if side == "prediction" else sample([0], [0], truth_tags=bad)]
        with pytest.raises(UnknownTag, match=side):
            metric(corpus)

    def test_spurious_tag_lowers_precision_not_recall(self):
        truth = DecorationSetting(music_tags=("Pop", "Happy"))
        base = [sample([0], [0], pred_tags=truth, truth_tags=truth, sid=f"s{i}") for i in range(3)]
        report_before = dtpr(base)
        spoiled = base[:2] + [
            sample(
                [0],
                [0],
                pred_tags=DecorationSetting(music_tags=("Pop", "Happy", "Jazz")),
                truth_tags=truth,
                sid="s2",
            )
        ]
        report_after = dtpr(spoiled)
        assert report_after.per_category["Music"]["precision"] < report_before.per_category["Music"]["precision"]
        assert report_after.per_category["Music"]["recall"] == report_before.per_category["Music"]["recall"]


class TestAggregators:
    def test_fpf_full_caps(self):
        scores = {
            "duration": 10, "visual_storyline": 20, "target_audience": 10, "script_routine": 10,
            "selling_points_emphasis": 20, "avatar": 10, "tts_timbre": 10, "music_style": 10,
        }
        assert fpf_aggregate(scores) == 100.0

    def test_fpf_renormalization(self):
        assert fpf_aggregate({"duration": 5, "music_style": 10}) == 75.0

    def test_fpf_of_no_scores(self):
        with pytest.raises(ValueError, match="^no dimension scores provided$"):
            fpf_aggregate({})

    def test_sq_full_caps(self):
        assert sq_aggregate({"basic": 30, "native_language_tone": 15, "touch_the_audience": 15, "creative_narrative": 40}) == 100.0

    def test_sq_zeros(self):
        assert sq_aggregate({"basic": 0, "native_language_tone": 0, "touch_the_audience": 0, "creative_narrative": 0}) == 0.0

    def test_sq_example(self):
        assert sq_aggregate({"basic": 20, "native_language_tone": 10, "touch_the_audience": 10, "creative_narrative": 30}) == 70.0

    def test_sq_missing_category(self):
        with pytest.raises(ValueError):
            sq_aggregate({"basic": 20})


class FixedEmbedTransport:
    """Serves scripted embeddings keyed by exact input string; HTTP 400 for an input it lacks."""

    def __init__(self, table, dim):
        self.table = table
        self.dim = dim

    def send(self, role, url, body, headers, timeout_s):
        from adcut.jsonutil import loads

        payload = loads(body)
        if not set(payload["inputs"]) <= set(self.table):
            return 400, b"{}"
        return 200, dumps_canonical(packed_vectors([self.table[item] for item in payload["inputs"]]))


class AnswerTransport:
    """Answers every embed request with the same vectors."""

    def __init__(self, vectors):
        self.body = dumps_canonical(packed_vectors(vectors))

    def send(self, role, url, body, headers, timeout_s):
        return 200, self.body


def embed_client(table, dim=4):
    return Client("embed", BackendEndpoint("mock://fixed"), transport=FixedEmbedTransport(table, dim))


def vsr_alone(s, client):
    """``s``'s VSR from a chunk of its own, as ``evaluate`` scores it; a failure is raised."""
    [score] = chunk_vsr([(s, vsr_inputs(s))], client)
    if isinstance(score, Exception):
        raise score
    return score


class TestVsr:
    def test_identical_embeddings(self):
        e = [1.0, 0.0, 0.0, 0.0]
        s = sample([0], [0])
        s = EvalSample(s.sample_id, s.ground_truth, s.predicted, frames=("f0", "f1"))
        table = {"v": e, "f0": e, "f1": e}
        assert vsr_alone(s, embed_client(table)) == pytest.approx(100.0)

    def test_orthogonal_embeddings(self):
        s = sample([0], [0])
        s = EvalSample(s.sample_id, s.ground_truth, s.predicted, frames=("f0",))
        table = {"v": [1.0, 0.0, 0.0, 0.0], "f0": [0.0, 1.0, 0.0, 0.0]}
        assert vsr_alone(s, embed_client(table)) == pytest.approx(0.0)

    def test_hand_computed_three_by_four(self):
        sentences = tuple(VoiceSentence(t, i * 1000, (i + 1) * 1000) for i, t in enumerate(("a", "b", "c")))
        draft = Draft(sentences, draft_with([0]).video_nodes_track, DecorationSetting())
        s = EvalSample("s", draft, draft, frames=("f0", "f1", "f2", "f3"))
        table = {
            "a b c": [1.0, 0.0, 0.0, 0.0],
            "a": [1.0, 0.0, 0.0, 0.0],
            "b": [0.0, 1.0, 0.0, 0.0],
            "c": [0.0, 0.0, 1.0, 0.0],
            "f0": [1.0, 0.0, 0.0, 0.0],
            "f1": [0.0, 1.0, 0.0, 0.0],
            "f2": [0.0, 0.0, 0.0, 1.0],
            "f3": [0.0, 0.0, 0.0, 1.0],
        }
        # by hand: mean frame = (.25,.25,0,.5)/|.| ; cos(script, mean) = .25/norm
        # norm = sqrt(.0625+.0625+.25) = sqrt(.375); a = .25/sqrt(.375)
        # per-sentence maxima: a->1 (f0), b->1 (f1), c->0 ; b_term = 2/3
        expected = 100.0 * (0.25 / np.sqrt(0.375) + 2.0 / 3.0) / 2.0
        assert vsr_alone(s, embed_client(table)) == pytest.approx(expected)

    def test_frames_that_cancel_out_score_zero_against_the_script(self):
        # the mean of f0 and f1 is the zero vector: the whole-script term is 0,
        # and the best frame per sentence matches exactly
        s = sample([0], [0])
        s = EvalSample(s.sample_id, s.ground_truth, s.predicted, frames=("f0", "f1"))
        table = {"v": [1.0, 0.0, 0.0, 0.0], "f0": [1.0, 0.0, 0.0, 0.0], "f1": [-1.0, 0.0, 0.0, 0.0]}
        assert vsr_alone(s, embed_client(table)) == 50.0

    def test_cosine_with_a_zero_vector_is_zero(self):
        zero, unit = np.zeros(4), np.array([0.0, 1.0, 0.0, 0.0])
        assert _cosine(zero, 0.0, unit, 1.0) == _cosine(unit, 1.0, zero, 0.0) == _cosine(zero, 0.0, zero, 0.0) == 0.0

    @given(st.data())
    def test_equals_the_pairwise_reference(self, data):
        dim = data.draw(st.integers(1, 8))
        n_sentences, n_frames = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
        scales = st.sampled_from([1e-150, 1e-6, 1.0, 7.0, 1e6, 1e150])  # mixed magnitudes, per vector
        element = st.just(0.0) | st.floats(1e-3, 1.0) | st.floats(-1.0, -1e-3)  # no norm underflows
        unit = st.lists(element, min_size=dim, max_size=dim).filter(any)

        def vector():
            scale = data.draw(scales)
            return [x * scale for x in data.draw(unit)]

        script = [vector() for _ in range(1 + n_sentences)]
        frames = [vector() for _ in range(n_frames)]
        if data.draw(st.booleans()):  # each frame followed by its negation: the mean frame is zero
            frames = [f for v in frames for f in (v, [-x for x in v])]
        voice = tuple(VoiceSentence(f"s{i}", 1000 * i, 1000 * i + 1000) for i in range(n_sentences))
        draft = Draft(voice, draft_with([0]).video_nodes_track, DecorationSetting())
        s = EvalSample("s", draft, draft, frames=tuple(f"f{i}" for i in range(len(frames))))
        client = Client("embed", BackendEndpoint("mock://fixed"), transport=AnswerTransport(script + frames))
        assert vsr_alone(s, client) == reference_vsr(s, client)

    def test_requires_script_and_frames(self):
        s = sample([0], [0])
        with pytest.raises(ValueError):
            vsr(s, [])

    def test_a_sample_without_frames_is_not_scored_and_sends_no_request(self):
        s = sample([0], [0])
        framed = EvalSample(s.sample_id, s.ground_truth, s.predicted, frames=("f0",))
        client = embed_client({"v": [1.0, 0.0, 0.0, 0.0], "f0": [1.0, 0.0, 0.0, 0.0]})
        assert chunk_vsr([(s, vsr_inputs(s)), (framed, vsr_inputs(framed))], client) == [None, pytest.approx(100.0)]
        assert chunk_vsr([(s, vsr_inputs(s))], embed_client({})) == [None]  # the empty table fails any call

    def test_no_script_scores_zero_without_an_embed_call(self):
        draft = Draft((), draft_with([0]).video_nodes_track, DecorationSetting())
        s = EvalSample("s", draft, draft, frames=("f0",))
        assert vsr_alone(s, embed_client({})) == 0.0  # the empty table fails any call


class RecordingTransport:
    """The seeded mock, recording the inputs of each embed request."""

    def __init__(self, seed):
        self.mock = mock_backend(seed, {})
        self.requests = []

    def send(self, role, url, body, headers, timeout_s):
        self.requests.append(loads(body)["inputs"])
        return self.mock.send(role, url, body, headers, timeout_s)


class StatusTransport:
    """Answers every request with one status and an empty object, counting the requests."""

    def __init__(self, status):
        self.status = status
        self.requests = 0

    def send(self, role, url, body, headers, timeout_s):
        self.requests += 1
        return self.status, b"{}"


TEXT = st.sampled_from(["a", "b", "c d", "\u00e9"])


@st.composite
def vsr_samples(draw):
    """A sample whose prediction has 0-3 sentences (or did not parse) and 0-4 frames."""
    voice = tuple(VoiceSentence(draw(TEXT), 1000 * i, 1000 * i + 1000) for i in range(draw(st.integers(0, 3))))
    predicted = Draft(voice, draft_with([0]).video_nodes_track, DecorationSetting())
    frames = tuple(draw(st.lists(TEXT.map("frame:{}".format), max_size=4)))
    return EvalSample("s", draft_with([1]), draw(st.none() | st.just(predicted)), frames=frames)


def chunk_ids(samples):
    return [[s.sample_id for s, _ in chunk] for chunk in vsr_chunks(samples)]


class TestVsrChunks:
    @given(st.lists(vsr_samples(), max_size=8), st.integers(1, 20))
    def test_each_chunk_is_one_request_of_whole_samples_scored_as_the_reference(self, samples, limit):
        recording = Client("embed", BackendEndpoint("mock://fixed"), transport=RecordingTransport(7))
        alone = Client("embed", BackendEndpoint("mock://fixed"), transport=mock_backend(7, {}))
        with mock.patch.object(metrics, "VSR_CHUNK_INPUTS", limit):
            chunks = list(vsr_chunks(samples))
        assert [s for chunk in chunks for s, _ in chunk] == samples
        for chunk in chunks:
            assert [own for _, own in chunk] == [vsr_inputs(s) for s, _ in chunk]
            whole = [text for _, own in chunk for text in own]
            assert len(whole) <= limit or len(chunk) == 1  # only a sample over the limit goes alone
            sent = len(recording.transport.requests)
            scores = chunk_vsr(chunk, recording)
            assert recording.transport.requests[sent:] == ([whole] if whole else [])
            assert scores == [reference_vsr(s, alone) if s.frames else None for s, _ in chunk]
        assert len(recording.transport.requests) == sum(any(own for _, own in chunk) for chunk in chunks)

    def test_a_chunk_without_a_scripted_sample_sends_no_request(self):
        scriptless = Draft((), draft_with([0]).video_nodes_track, DecorationSetting())
        chunk = [(EvalSample("s", scriptless, scriptless, frames=("f0",)), []), (sample([0], [0]), [])]  # no frames
        assert chunk_vsr(chunk, embed_client({})) == [0.0, None]  # the empty table fails any call

    def test_a_request_failing_without_retry_leaves_each_sample_to_embed_alone(self):
        s = EvalSample("s", draft_with([0]), draft_with([0]), frames=("f0",))
        other = EvalSample("t", draft_with([0]), draft_with([0]), frames=("f1",))
        client = embed_client({"v": [1.0, 0.0, 0.0, 0.0], "f0": [1.0, 0.0, 0.0, 0.0]})  # HTTP 400 for f1
        scores = chunk_vsr([(s, vsr_inputs(s)), (other, vsr_inputs(other))], client)
        assert scores[0] == pytest.approx(100.0)
        assert isinstance(scores[1], BadStatus) and str(scores[1]) == "embed: HTTP status 400"
        assert scores[1].__traceback__ is None and scores[1].__context__ is None

    @pytest.mark.parametrize("status", [429, 503])
    def test_a_request_that_spends_its_retries_fails_each_sample_with_no_more_requests(self, status):
        transport = StatusTransport(status)
        client = Client("embed", BackendEndpoint("http://embed.test"), transport=transport, sleeper=lambda _: None)
        scriptless = Draft((), draft_with([0]).video_nodes_track, DecorationSetting())
        chunk = [(s, vsr_inputs(s)) for s in (
            EvalSample("s", draft_with([0]), draft_with([0]), frames=("f0",)),
            EvalSample("t", scriptless, scriptless, frames=("f0",)),
            EvalSample("u", draft_with([0]), None, frames=("f1", "f2")))]
        scores = chunk_vsr(chunk, client)
        assert transport.requests == client.endpoint.max_retries + 1  # the chunk's own schedule, no per-sample one
        assert scores[1] == 0.0 and scores[0] is scores[2] and str(scores[0]) == f"embed: HTTP status {status}"

    def test_chunks_fill_up_to_the_limit_in_order(self, monkeypatch):
        one, two = sample([0], [0]), EvalSample("t", draft_with([0]), draft_with([0]), frames=("f0", "f1"))
        framed = EvalSample("u", draft_with([0]), draft_with([0]), frames=("f0",))  # 3 inputs; two has 4
        monkeypatch.setattr(metrics, "VSR_CHUNK_INPUTS", 7)
        assert chunk_ids([framed, one, two, framed, framed]) == [["u", "s", "t"], ["u", "u"]]
        monkeypatch.setattr(metrics, "VSR_CHUNK_INPUTS", 3)
        assert chunk_ids([framed, two, framed]) == [["u"], ["t"], ["u"]]


class RubricScoresTransport:
    """A judge that answers each rubric with a fixed score map."""

    def __init__(self, scores):
        self.scores = scores

    def send(self, role, url, body, headers, timeout_s):
        return 200, dumps_canonical({"scores": self.scores[loads(body)["rubric_id"]]})


def judge_client(scores):
    return Client("judge", BackendEndpoint("mock://fixed"), transport=RubricScoresTransport(scores))


class TestEvalSample:
    CORPUS_LINE = DatasetSample(sample_id="s", instruction="i", clip_order=("pos:1", "neg:0", "pos:0"),
                                negatives=(1,), negatives_capped=False, ground_truth=draft_with([2, 0]))

    @pytest.mark.parametrize("draft_json", ["{", "{}", "[]"], ids=["malformed JSON", "no fields", "not an object"])
    def test_unparseable_prediction_is_none(self, draft_json):
        assert eval_sample(self.CORPUS_LINE, draft_json).predicted is None

    def test_fields_come_from_the_corpus_line_and_the_prediction(self):
        predicted = draft_with([0, 1, 2])
        s = eval_sample(self.CORPUS_LINE, serialize_draft(predicted).decode("utf-8"))
        assert (s.sample_id, s.ground_truth, s.predicted) == ("s", self.CORPUS_LINE.ground_truth, predicted)
        assert s.negatives == frozenset({1}) and isinstance(s.negatives, frozenset)

    @pytest.mark.parametrize("draft_json", ["{", serialize_draft(draft_with([1])).decode("utf-8")],
                             ids=["unparseable", "parsed"])
    def test_frames_are_the_ground_truth_nodes_in_order(self, draft_json):
        assert eval_sample(self.CORPUS_LINE, draft_json).frames == ("frame:2:0:0", "frame:0:0:1000")


class TestScoreSample:
    def test_unrequested_scores_are_none(self):
        assert score_sample(sample([0], [0]), None) == {"fpf": None, "sq": None}

    def test_empty_score_map_is_none(self):
        judge = judge_client({"free_prompt_eval": {"duration": 5}, "script_quality_eval": {}})
        assert score_sample(sample([0], [0]), judge) == {"fpf": 50.0, "sq": None}

    def test_score_map_the_aggregate_rejects_is_malformed(self):
        judge = judge_client({"free_prompt_eval": {"duration": 5}, "script_quality_eval": {"basic": 10}})
        with pytest.raises(MalformedScores, match="judge: missing script-quality categories"):
            score_sample(sample([0], [0]), judge)


class TestCorpusInvariants:
    def test_permutation_invariance(self):
        corpus = perturbed_corpus(30, seed=4)
        shuffled = list(corpus)
        random.Random(0).shuffle(shuffled)
        assert cra(corpus) == cra(shuffled)
        assert csa(corpus) == csa(shuffled)
        assert dtpr(corpus).to_dict() == dtpr(shuffled).to_dict()

    def test_duplication_invariance(self):
        corpus = perturbed_corpus(15, seed=5)
        doubled = corpus + corpus
        assert cra(corpus) == cra(doubled)
        assert csa(corpus) == csa(doubled)
        report, doubled_report = dtpr(corpus), dtpr(doubled)
        for cat in ("TTS", "Avatar", "Music"):
            assert report.per_category[cat]["precision"] == doubled_report.per_category[cat]["precision"]
            assert report.per_category[cat]["recall"] == doubled_report.per_category[cat]["recall"]

    def test_unparseable_prediction_counts_as_wrong(self):
        corpus = [sample(None, [0, 1]), sample([0, 1], [0, 1])]
        assert cra(corpus) == 50.0
        assert csa(corpus) == 50.0


class TestEvaluateCorpus:
    def test_full_report_with_mock_judge(self):
        corpus = perturbed_corpus(10, seed=6)
        judge = mock_backend_set(2).judge
        report = evaluate_corpus(count_metrics(corpus), [score_sample(s, judge) for s in corpus])
        assert report.cra == recount_cra(corpus)
        assert report.csa == recount_csa(corpus)
        assert report.fpf == 100.0  # caps mock
        assert report.sq == 100.0
        assert report.vsr is None
        blob = dumps_canonical(report.to_dict())
        assert blob.startswith(b'{"cra":')

    def test_counts_equal_brute_force_recount(self):
        corpus = perturbed_corpus(40, seed=7)
        corpus += [EvalSample(f"u{i}", s.ground_truth, None, s.negatives) for i, s in enumerate(corpus[:8])]
        report = evaluate_corpus(count_metrics(corpus), [])
        assert report.counts.to_dict() == recount_counts(corpus)
        assert (report.cra, report.csa) == (recount_cra(corpus), recount_csa(corpus))

    def test_scores_fold_to_their_means_skipping_none(self):
        corpus = [sample([0], [0], sid="a"), sample([0], [1], sid="b")]
        scores = [{"fpf": 50.0, "sq": None, "vsr": None}, {"fpf": 100.0, "sq": None, "vsr": -10.0}]
        report = evaluate_corpus(count_metrics(corpus), scores)
        assert (report.fpf, report.sq, report.vsr) == (75.0, None, -10.0)
        assert report.cra == 50.0

    def test_render_table_layout(self):
        corpus = [sample([0], [0])]
        report = evaluate_corpus(count_metrics(corpus), [])
        table = render_table(report)
        header = table.splitlines()[0]
        assert header.split() == ["CRA", "CSA", "FPF", "VSR", "SQ", "DTPR"]
        assert "TTS Timbre" in table
