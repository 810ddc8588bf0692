"""``reports.write_text_atomic``, the one function that writes cfl's files:
unchanged bytes leave the file alone, anything else replaces it whole, and
file modes follow the umask or the replaced file."""

import os
import stat

import pytest

from cfl.reports import write_text_atomic

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
