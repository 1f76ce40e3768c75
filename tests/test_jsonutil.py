import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adcut.jsonutil import FieldError, dumps_canonical, field, trim_torn_tail

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
