import json
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adcut.cli import _read_predictions
from adcut.dataset import read_corpus
from adcut.draft import UnknownKeyWarning
from adcut.jsonutil import FieldError, RecordError, dumps_canonical, field, trim_torn_tail

# any JSON value: non-ASCII and control characters in keys and strings, floats of every
# magnitude, integers past 64 bits, and nesting
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(JSON_VALUES)
def test_canonical_bytes_are_those_of_json_dumps(value):
    assert dumps_canonical(value) == json.dumps(value, ensure_ascii=False, separators=(",", ":")).encode("utf-8")

WHOLE = b'{"a":1}\n{"b":2}\n'
LONG = b'{"c":"' + b"x" * 200_000  # longer than one backward read


@pytest.mark.parametrize(
    "content, trimmed, after",
    [
        (b"", False, b""),
        (WHOLE, False, WHOLE),
        (WHOLE + b'{"c":', True, WHOLE),
        (WHOLE + LONG, True, WHOLE),
        (LONG, True, b""),
        (WHOLE + b'{"c":3}', False, WHOLE + b'{"c":3}\n'),
        (WHOLE + b'{"c":"\xc3', True, WHOLE),  # cut inside a UTF-8 character
    ],
    ids=["empty", "terminated", "torn", "torn long", "torn only line", "unterminated whole", "torn utf-8"],
)
def test_trim_torn_tail(tmp_path, content, trimmed, after):
    path = tmp_path / "records.jsonl"
    path.write_bytes(content)
    assert trim_torn_tail(path) is trimmed
    assert path.read_bytes() == after


@pytest.mark.parametrize(
    "value, kind",
    [(8, float), (8.5, float), (1e308, float), (60, int)],
)
def test_a_float_field_takes_any_json_number_and_an_int_field_an_integer(value, kind):
    assert field({"n": value}, "n", kind) == value


@pytest.mark.parametrize(
    "value, kind",
    [(True, float), (False, int), (60.0, int), ("8", float), (None, float)],
)
def test_a_bool_an_integral_float_as_int_and_a_non_number_are_rejected(value, kind):
    with pytest.raises(FieldError, match=rf"^clips\[0\]\.n: expected {kind.__name__}, got {type(value).__name__}$"):
        field({"n": value}, "n", kind, "clips[0]")


# read_records, through the readers of the corpus and of predictions (also read by
# ``generate --resume``): lines of arbitrary bytes, torn UTF-8, non-objects, repeated
# keys and deep nesting, mixed with lines each reader takes
SAMPLE = {
    "sample_id": "s1", "instruction": "x <image>", "clip_order": ["a"], "negatives": [2], "negatives_capped": False,
    "ground_truth": {
        "voice_over_track": [{"text": "hi", "target_start": 0, "target_end": 10}],
        "video_nodes_track": [{"index": 0, "target_start": 0, "target_end": 10, "source_start": 0}],
        "decoration_setting": {"tts_tags": [], "avatar_tags": [], "music_tags": []},
    },
}
PREDICTION = {"sample_id": "s1", "draft_json": "{}"}
READERS = {"corpus": (read_corpus, SAMPLE), "predictions": (_read_predictions, PREDICTION)}


def record_lines(record: dict):
    """Lines a reader of ``record`` may meet: the record, with one field replaced or a
    new sample_id, then possibly cut anywhere, also inside a UTF-8 character."""
    line = st.one_of(
        st.just(record),
        st.builds(lambda key, value: {**record, key: value}, st.sampled_from(sorted(record) + ["extra"]), JSON_VALUES),
        st.builds(lambda sid: {**record, "sample_id": sid}, st.text(max_size=4)),
    ).map(lambda obj: json.dumps(obj, ensure_ascii=False).encode("utf-8"))
    return line | st.tuples(line, st.integers(0)).map(lambda cut: cut[0][: cut[1] % (len(cut[0]) + 1)])


def hostile_lines(record: dict):
    nested = st.sampled_from([2, 900, 5000]).map(lambda n: b"[" * n + b"]" * n)  # 5000 is past the decoder's limit
    return st.one_of(
        st.binary(max_size=30),
        JSON_VALUES.map(lambda value: json.dumps(value).encode()),
        nested,
        nested.map(lambda inner: json.dumps(record).encode()[:-1] + b',"deep":' + inner + b"}"),
        st.just(b'{"sample_id":"a","sample_id":"b"' + json.dumps(record).encode()[1:]),  # a repeated key
        st.just(json.dumps({**record, "sample_id": "\ud800"}).encode()),  # a lone surrogate
        st.just(json.dumps(record).encode("utf-16")),
        st.just(b"\xef\xbb\xbf" + json.dumps(record).encode()),
        record_lines(record),
    )


@pytest.mark.parametrize("reader", sorted(READERS))
@given(data=st.data())
def test_a_records_reader_yields_every_line_or_raises_a_record_error(tmp_path_factory, reader, data):
    read, record = READERS[reader]
    lines = data.draw(st.lists(hostile_lines(record).map(lambda line: line.replace(b"\n", b" ")), max_size=5))
    path = tmp_path_factory.mktemp("records") / "lines.jsonl"
    path.write_bytes(b"\n".join(lines))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnknownKeyWarning)  # an unknown draft key is warned of, not an error
        try:
            records = read(path)
        except RecordError as exc:
            number = int(str(exc).removeprefix(f"{path}:").split(":", 1)[0])
            assert lines[number - 1].strip(), "a blank line was reported"
            return
    assert len(records) == sum(1 for line in lines if line.strip())
