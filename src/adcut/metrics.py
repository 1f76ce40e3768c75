"""Evaluation suite for generated drafts.

Exact counting metrics (clip rank accuracy, clip selection accuracy,
decorative-tag precision/recall) plus weighted judge-score aggregation for
free-prompt following and script quality, and a simplified embedding-based
visual/script relevance score. :func:`eval_sample` builds each scored pair
from a corpus sample and its model output. All counting is one pure fold,
:func:`count_metrics`, into :class:`MetricCounts`, from which the three
counting metrics are derived; :func:`evaluate_corpus` folds them and the
samples' score lines (:func:`score_sample`'s, from the judge and each sample's
:func:`chunk_vsr` outcome) into a plain-dict report, so results are independent
of corpus order and of evaluation concurrency. VSR embeds the inputs of a
chunk of samples (:func:`vsr_chunks`) in one request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .backends import RUBRICS, BackendError, Client, MalformedScores, embed, judge_score
from .draft import Draft, DraftSyntaxError, SchemaError, parse_draft
from .taxonomy import CATEGORIES as DTPR_CATEGORIES
from .taxonomy import TAG_FIELD_CATEGORY, TagTaxonomy, default_taxonomy

if TYPE_CHECKING:
    import numpy as np

    from .dataset import DatasetSample

DTPR_DISPLAY = {"TTS": "TTS Timbre", "Avatar": "Avatar", "Music": "Music"}

FPF_WEIGHTS = RUBRICS["free_prompt_eval"][1]
SQ_WEIGHTS = RUBRICS["script_quality_eval"][1]


class EmptyCorpus(ValueError):
    pass


class UnknownTag(ValueError):
    """A draft holds a tag outside the taxonomy; ``origin`` is ``"prediction"``
    or ``"ground truth"``."""

    def __init__(self, message: str, origin: str):
        super().__init__(message)
        self.origin = origin


@dataclass(frozen=True)
class EvalSample:
    """One prediction/ground-truth pair.

    ``predicted`` is None when the model output failed to parse; such a
    sample counts as incorrect for both rank and selection accuracy.
    """

    sample_id: str
    ground_truth: Draft
    predicted: Draft | None
    negatives: frozenset[int] = frozenset()
    frames: tuple[str, ...] = ()


def eval_sample(sample: DatasetSample, draft_json: str) -> EvalSample:
    """The pair to score for corpus ``sample`` and its model output
    ``draft_json``: a prediction that does not parse is None, and the frame
    references are one ``frame:<clip>:0:<target_start>`` per ground-truth node."""
    try:
        predicted = parse_draft(draft_json)
    except (DraftSyntaxError, SchemaError):
        predicted = None
    return EvalSample(
        sample_id=sample.sample_id,
        ground_truth=sample.ground_truth,
        predicted=predicted,
        negatives=frozenset(sample.negatives),
        frames=tuple(f"frame:{n.index}:0:{n.target_start}" for n in sample.ground_truth.video_nodes_track),
    )


@dataclass
class MetricCounts:
    total: int = 0
    rank_correct: int = 0
    selection_clean: int = 0
    tag_counts: dict[str, dict[str, int]] = field(
        default_factory=lambda: {c: {"tp": 0, "fp": 0, "fn": 0} for c in DTPR_CATEGORIES}
    )

    @property
    def cra(self) -> float:
        return 100.0 * self.rank_correct / self.total

    @property
    def csa(self) -> float:
        return 100.0 * self.selection_clean / self.total

    def dtpr(self) -> DtprReport:
        per_category: dict[str, dict] = {}
        precisions, recalls = [], []
        for c in DTPR_CATEGORIES:
            tp, fp, fn = self.tag_counts[c]["tp"], self.tag_counts[c]["fp"], self.tag_counts[c]["fn"]
            precision = 100.0 * tp / (tp + fp) if tp + fp else None
            recall = 100.0 * tp / (tp + fn) if tp + fn else None
            per_category[c] = {"precision": precision, "recall": recall, "tp": tp, "fp": fp, "fn": fn}
            if precision is not None:
                precisions.append(precision)
            if recall is not None:
                recalls.append(recall)
        return DtprReport(
            per_category=per_category,
            precision=sum(precisions) / len(precisions) if precisions else None,
            recall=sum(recalls) / len(recalls) if recalls else None,
        )

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "rank_correct": self.rank_correct,
            "selection_clean": self.selection_clean,
            "tag_counts": {c: dict(v) for c, v in self.tag_counts.items()},
        }


def _tag_sets(draft: Draft, taxonomy: TagTaxonomy, sample_id: str, origin: str) -> dict[str, set[str]]:
    out = {}
    for field_name, category in TAG_FIELD_CATEGORY.items():
        tags = set(draft.decoration_setting.tags_for(field_name))
        unknown = tags - taxonomy.labels(category)
        if unknown:
            raise UnknownTag(f"{sample_id} {origin}: {sorted(unknown)} not in {category} taxonomy", origin)
        out[category] = tags
    return out


@dataclass(frozen=True)
class DtprReport:
    per_category: dict[str, dict]
    precision: float | None
    recall: float | None

    def to_dict(self) -> dict:
        return {
            "per_category": self.per_category,
            "precision": self.precision,
            "recall": self.recall,
        }


_NO_TAGS = {c: frozenset() for c in DTPR_CATEGORIES}


def count_metrics(corpus: Sequence[EvalSample], taxonomy: TagTaxonomy | None = None) -> MetricCounts:
    """The one counting pass over a corpus: exact rank matches, predictions
    free of negative clips, and tag tp/fp/fn per category.

    An unparseable prediction counts as wrong for rank and selection and as
    predicting no tags. Raises :class:`EmptyCorpus` for an empty corpus and
    :class:`UnknownTag` for a tag outside the taxonomy (default: bundled).
    """
    if not corpus:
        raise EmptyCorpus("evaluation corpus is empty")
    taxonomy = taxonomy or default_taxonomy()
    counts = MetricCounts(total=len(corpus))
    for s in corpus:
        truth = _tag_sets(s.ground_truth, taxonomy, s.sample_id, "ground truth")
        pred = _NO_TAGS
        if s.predicted is not None:
            pred = _tag_sets(s.predicted, taxonomy, s.sample_id, "prediction")
            sequence = s.predicted.clip_sequence()
            if sequence == s.ground_truth.clip_sequence():
                counts.rank_correct += 1
            if s.negatives.isdisjoint(sequence):
                counts.selection_clean += 1
        for c, tally in counts.tag_counts.items():
            tally["tp"] += len(pred[c] & truth[c])
            tally["fp"] += len(pred[c] - truth[c])
            tally["fn"] += len(truth[c] - pred[c])
    return counts


def cra(corpus: Sequence[EvalSample]) -> float:
    """Percent of samples whose predicted clip sequence matches the ground
    truth exactly (same selection, same order). Counting covers tags too, so
    a tag outside the bundled taxonomy raises :class:`UnknownTag`."""
    return count_metrics(corpus).cra


def csa(corpus: Sequence[EvalSample]) -> float:
    """Percent of samples whose prediction selects no negative clip (order
    is irrelevant). Counting covers tags too, so a tag outside the bundled
    taxonomy raises :class:`UnknownTag`."""
    return count_metrics(corpus).csa


def dtpr(corpus: Sequence[EvalSample]) -> DtprReport:
    """Per-category tag precision/recall and their macro averages, over the
    bundled taxonomy.

    A category with no predicted tags anywhere has undefined precision and
    is excluded from the precision macro average (likewise for recall with
    no ground-truth tags).
    """
    return count_metrics(corpus).dtpr()


def fpf_aggregate(scores: Mapping[str, float]) -> float:
    """Free-prompt-following total: sum of the provided dimension scores,
    renormalized to 100 by the weight of the dimensions present. The scores
    are :func:`~adcut.backends.judge_score`'s, each a dimension of the rubric
    within its cap; an empty map raises ``ValueError``."""
    if not scores:
        raise ValueError("no dimension scores provided")
    present_weight = sum(FPF_WEIGHTS[d] for d in scores)
    return 100.0 * sum(scores.values()) / present_weight


def sq_aggregate(scores: Mapping[str, float]) -> float:
    """Script-quality total: plain sum; all four categories always apply, so
    a map lacking one raises ``ValueError``. The scores are
    :func:`~adcut.backends.judge_score`'s, each within its cap."""
    missing = set(SQ_WEIGHTS) - set(scores)
    if missing:
        raise ValueError(f"missing script-quality categories: {sorted(missing)}")
    return float(sum(scores.values()))


def _cosine(a: np.ndarray, na: float, b: np.ndarray, nb: float) -> float:
    """Cosine similarity of ``a`` and ``b`` from their norms ``na`` and ``nb``; 0.0
    when either is zero."""
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a.dot(b) / (na * nb))


VSR_CHUNK_INPUTS = 48  # the most embed inputs one chunk request carries (see README); a larger sample goes alone


def vsr_inputs(sample: EvalSample) -> list[str]:
    """What VSR embeds for ``sample``: the whole script, each sentence and each frame
    reference, of the prediction or (when it did not parse) the ground truth. Empty for a
    draft with no voice-over sentences or a sample without frames: no VSR call is made."""
    draft = sample.predicted if sample.predicted is not None else sample.ground_truth
    sentences = [s.text for s in draft.voice_over_track]
    if not sentences or not sample.frames:
        return []
    return [" ".join(sentences), *sentences, *sample.frames]


def vsr_chunks(samples: Sequence[EvalSample]) -> Iterator[list[tuple[EvalSample, list[str]]]]:
    """``samples``, each with its :func:`vsr_inputs`, cut in order into chunks of whole
    samples holding at most ``VSR_CHUNK_INPUTS`` inputs together; a sample with more
    inputs than that is a chunk of its own."""
    chunk: list[tuple[EvalSample, list[str]]] = []
    size = 0
    for sample in samples:
        inputs = vsr_inputs(sample)
        if chunk and size + len(inputs) > VSR_CHUNK_INPUTS:
            yield chunk
            chunk, size = [], 0
        chunk.append((sample, inputs))
        size += len(inputs)
    if chunk:
        yield chunk


def chunk_vsr(chunk: Sequence[tuple[EvalSample, list[str]]], embed_client: Client) -> list[float | BackendError | None]:
    """Each sample's :func:`vsr` in a chunk of :func:`vsr_chunks`, from one embed request
    for all the chunk's inputs (none when it has none): the score, None for a sample
    without frames, or the ``BackendError`` that fails the sample. A request that fails
    with a retryable error has spent its retries, so each sample with inputs gets that
    error. One that fails otherwise may be one sample's fault, so each sample with inputs
    embeds them in a request of its own and gets what that request gives. Vectors live
    only for this call."""
    rows = _embedded([text for _, own in chunk for text in own], embed_client)
    out: list[float | BackendError | None] = []
    end = 0
    for sample, own in chunk:
        end += len(own)
        if not isinstance(rows, BackendError):
            vectors = rows[end - len(own):end]
        else:
            vectors = rows if rows.retryable and own else _embedded(own, embed_client)
        if isinstance(vectors, BackendError):
            out.append(vectors)
        else:
            out.append(vsr(sample, vectors) if sample.frames else None)
    return out


def _embedded(inputs: list[str], embed_client: Client) -> list[np.ndarray] | BackendError:
    """:func:`embed` of ``inputs`` (no request and no vectors when empty), or the
    ``BackendError`` it raises, stripped of the traceback and context that would keep
    its frames (and the answer) alive; only its message is reported."""
    try:
        return embed(inputs, embed_client) if inputs else []
    except BackendError as exc:
        exc.__traceback__ = exc.__context__ = None
        return exc


def vsr(sample: EvalSample, vectors: list[np.ndarray]) -> float:
    """Simplified visual/script relevance.

    Mean of (a) cosine similarity between the whole-script embedding and
    the mean frame embedding and (b) the per-sentence mean of the maximum
    per-frame cosine similarity, scaled by 100. ``vectors`` are the
    embeddings of :func:`vsr_inputs`, as :func:`chunk_vsr` cuts them from a
    chunk's request. A draft with no voice-over sentences has no script to
    relate to the frames: it has no inputs and scores 0.0. Each vector's norm
    is taken once, as ``sqrt(v·v)`` (what ``np.linalg.norm`` computes for a
    1-D vector), so a pair costs one dot product.
    """
    if not sample.frames:
        raise ValueError(f"{sample.sample_id}: VSR needs frame references")
    if not vectors:
        return 0.0
    import numpy as np

    norms = [math.sqrt(v.dot(v)) for v in vectors]
    first_frame = len(vectors) - len(sample.frames)
    mean = np.mean(vectors[first_frame:], axis=0)
    whole = _cosine(vectors[0], norms[0], mean, math.sqrt(mean.dot(mean)))
    frames = list(zip(vectors[first_frame:], norms[first_frame:]))
    per_sentence = [max(_cosine(sv, ns, fv, nf) for fv, nf in frames)
                    for sv, ns in zip(vectors[1:first_frame], norms[1:first_frame])]
    return 100.0 * (whole + sum(per_sentence) / len(per_sentence)) / 2.0


def score_sample(sample: EvalSample, judge: Client | None, vsr: float | BackendError | None) -> dict[str, float | None]:
    """The sample's score line, ``{"fpf", "sq", "vsr"}``: ``fpf`` and ``sq`` from the judge, each
    None without a judge or for an empty score map, and ``vsr``, the sample's :func:`chunk_vsr`
    outcome. A failed judge call, or a score map the aggregate rejects, raises a ``BackendError``;
    so does a ``vsr`` that is one, once both judge requests have been sent, so a judge failure wins."""
    out: dict[str, float | None] = {"fpf": None, "sq": None}
    if judge is not None:
        for key, rubric_id, aggregate in (("fpf", "free_prompt_eval", fpf_aggregate),
                                          ("sq", "script_quality_eval", sq_aggregate)):
            scores = judge_score({"sample_id": sample.sample_id}, rubric_id, judge)
            try:
                out[key] = aggregate(scores) if scores else None
            except ValueError as exc:
                raise MalformedScores(judge.role, str(exc)) from None
    if isinstance(vsr, BackendError):
        raise vsr
    out["vsr"] = vsr
    return out


def evaluate_corpus(counts: MetricCounts, lines: Sequence[Mapping[str, float | None]]) -> dict:
    """The report that ``evaluate`` prints: the counting metrics of ``counts`` (a
    corpus's :func:`count_metrics`) and the mean of each score over ``lines`` (the
    samples' :func:`score_sample` lines, in corpus order), skipping Nones; a score that
    no sample has is None. Keys: ``cra``, ``csa``, ``fpf``, ``vsr``, ``sq``, ``dtpr``
    (:meth:`DtprReport.to_dict`) and ``counts`` (:meth:`MetricCounts.to_dict`)."""

    def mean(key: str) -> float | None:
        values = [line[key] for line in lines if line[key] is not None]
        return sum(values) / len(values) if values else None

    return {"cra": counts.cra, "csa": counts.csa, "fpf": mean("fpf"), "vsr": mean("vsr"), "sq": mean("sq"),
            "dtpr": counts.dtpr().to_dict(), "counts": counts.to_dict()}


def _fmt(value: float | None) -> str:
    return f"{value:.2f}" if value is not None else "-"


def render_table(report: dict) -> str:
    """Aligned plain-text table of an :func:`evaluate_corpus` report in the canonical column order."""
    dtpr_cell = f"{_fmt(report['dtpr']['precision'])}/{_fmt(report['dtpr']['recall'])}"
    headers = ["CRA", "CSA", "FPF", "VSR", "SQ", "DTPR"]
    values = [
        _fmt(report["cra"]),
        _fmt(report["csa"]),
        _fmt(report["fpf"]),
        _fmt(report["vsr"]),
        _fmt(report["sq"]),
        dtpr_cell,
    ]
    widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
    head = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    row = "  ".join(v.ljust(w) for v, w in zip(values, widths))
    lines = [head, row, ""]
    lines.append("DTPR by category:")
    for cat in DTPR_CATEGORIES:
        entry = report["dtpr"]["per_category"][cat]
        lines.append(
            f"  {DTPR_DISPLAY[cat]:<11} precision {_fmt(entry['precision'])}  recall {_fmt(entry['recall'])}"
        )
    return "\n".join(lines)
