"""``reports.dump_report``, which writes json's text without the json
package, and ``reports.write_text_atomic``, the one
function that writes cfl's files: unchanged bytes leave the file alone,
anything else replaces it whole, and file modes follow the umask or the
replaced file."""

import json
import math
import os
import stat

import pytest
from hypothesis import example, given, settings, strategies as st

from cfl.reports import dump_report, write_text_atomic

OLD_NS = 1_000_000_000_000_000_000


def _siblings(path):
    return sorted(os.listdir(os.path.dirname(path)))


def test_identical_bytes_leave_the_file_untouched(tmp_path):
    path = str(tmp_path / "g.el")
    write_text_atomic(path, "3 1\n0 1\n")
    os.utime(path, ns=(OLD_NS, OLD_NS))
    before = os.stat(path)
    write_text_atomic(path, "3 1\n0 1\n")
    after = os.stat(path)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, OLD_NS)
    assert _siblings(path) == ["g.el"]


@pytest.mark.parametrize("old, new", [
    (b"3 1\n0 1\n", "3 1\n"),              # the new text is a strict prefix
    (b"3 1\n", "3 1\n0 1\n"),              # the old bytes are a strict prefix
    (b"3 1\r\n0 1\r\n", "3 1\n0 1\n"),     # equal as text, not as bytes
    (b"3 1\n0 1\n", "3 1\r\n0 1\r\n"),
])
def test_differing_bytes_replace_the_file(tmp_path, old, new):
    path = tmp_path / "g.el"
    path.write_bytes(old)
    inode = os.stat(path).st_ino
    write_text_atomic(str(path), new)
    assert path.read_bytes() == new.encode()
    assert os.stat(path).st_ino != inode
    assert _siblings(str(path)) == ["g.el"]


def test_text_is_written_as_utf8(tmp_path):
    path = tmp_path / "r.json"
    write_text_atomic(str(path), '{"name": "K₃-free ℓ"}\n')
    assert path.read_bytes() == '{"name": "K₃-free ℓ"}\n'.encode("utf-8")


def test_new_files_follow_the_umask_and_replaced_files_keep_their_mode(tmp_path):
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_text("old\n")
    os.chmod(kept, 0o604)
    previous = os.umask(0o027)
    try:
        write_text_atomic(str(fresh), "new\n")
        write_text_atomic(str(kept), "new\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(fresh).st_mode) == 0o640
    assert stat.S_IMODE(os.stat(kept).st_mode) == 0o604
    assert kept.read_text() == "new\n"


def _json(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


# every character json escapes (quote, backslash, controls, DEL and all
# non-ASCII, astral ones as surrogate pairs) next to ones it leaves alone
TEXT = (st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e))
        | st.text(st.sampled_from('a Z~\\"/\x00\x1f\t\n\x7f\x80\xe9\u2028\U0001f600'))
        | st.text())
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.sampled_from([0, 1, -1, 2 ** 64, -2 ** 63 - 1, 10 ** 300])
           | st.floats()
           | st.sampled_from([-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf])
           | TEXT)
REPORTS = st.recursive(
    SCALARS, lambda kids: (st.lists(kids, max_size=4)
                           | st.lists(kids, max_size=4).map(tuple)
                           | st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(REPORTS)
@example({"graph6": "H?qa`\\\\", "note": 'say "no"', "n": 9})
@example({"b": [True, 1, False, 0], "a": {"": [], "z": {}}, "c": ()})
@example({"slack": math.nan, "low": -math.inf, "high": math.inf, "zero": -0.0})
@example({"name": "K\u2083-free \u2113", "tab": "a\tb", "del": "\x7f", "emoji": "\U0001f600"})
def test_dump_report_writes_jsons_text(value):
    assert dump_report(value) == _json(value)


class _Int(int):
    def __repr__(self):
        return "not json"


class _Float(float):
    def __repr__(self):
        return "not json"


@pytest.mark.parametrize("value", [
    {"a": [1, 2.5, -0.0, None, True], "b": ("x", {})},
    {"g": 'H?\\"`'},
    {"big": -10 ** 200},
    {"s": "\x7f"},
    {"s": "\n"},
    {"s": "\xe9"},
    [math.nan],
    [-math.inf],
    {1: "int key"},
    {1.5: "float", True: "bool", -3: "int", math.inf: "inf"},
    {None: "null key"},
    {"astral": "\U0001f600\x00\b\f"},
    {_Int(7): [_Int(3), _Float(0.5)]},
])
def test_dump_report_writes_jsons_text_for_each_kind_of_value(value):
    """Plain values, escaped characters, non-finite floats, keys that are
    not strings and number subclasses: each is written as json writes
    it."""
    assert dump_report(value) == _json(value)


def test_a_value_json_cannot_write_raises_jsons_error():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        dump_report({"a": {1, 2}})
