import pytest

from adcut.jsonutil import trim_torn_tail

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
