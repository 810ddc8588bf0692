"""Experiment report schema and atomic JSON/CSV emission.

Reports are versioned JSON ("schema": 1).  Rerunning an identical config
(including the seed) reproduces every field except ``timings`` bit for bit:
all randomness flows from the recorded seed, vertex sets serialize sorted,
rationals serialize as "p/q" strings, graphs as graph6 lines, and keys are
emitted sorted.  A result record (``records.Record``) becomes an object of
its fields, in field order, and SHA-256 (``config_hash``) is ``rng``'s.

``dump_report`` writes exactly ``json.dumps(report, sort_keys=True,
indent=2)`` and a newline, but a report of plain values (``_plain``: dicts
with str keys, lists, tuples, ints, bools, None, finite floats and
printable ASCII strings) is written without the ``json`` package, so a run
loads ``json`` only for a report holding anything else, such as a
non-ASCII string or a NaN.

Every file cfl writes goes through ``write_text_atomic``: UTF-8 whatever the
locale, and never rewritten when it already holds the bytes a run would
write, so a seeded rerun leaves its graph files (inode and mtime included)
untouched.
"""

from __future__ import annotations

import math
import os
import stat
import tempfile
from typing import Any, Dict, Iterable, List, Mapping

from . import __version__
from .graphs import Graph, VertexSet, format_graph6
from .records import Record
from .rng import GENERATOR_NAME, sha256

SCHEMA_VERSION = 1


def jsonable(obj: Any) -> Any:
    """Recursively convert package objects into JSON-stable values."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, VertexSet):
        return sorted(obj.vertices())
    if isinstance(obj, Graph):
        return {"n": obj.n, "graph6": format_graph6(obj)}
    if isinstance(obj, Record):
        return {f: jsonable(getattr(obj, f)) for f in obj._fields}
    if isinstance(obj, Mapping):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    # last, so a report without a rational never loads fractions
    from fractions import Fraction
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def config_hash(flat_config: Mapping[str, str]) -> str:
    canon = "\n".join(f"{k}={flat_config[k]}" for k in sorted(flat_config))
    return sha256(canon.encode()).hexdigest()


def build_report(kind: str, seed: int, flat_config: Mapping[str, str],
                 result: Any, flags: Mapping[str, Any],
                 caps: Mapping[str, Any], timings: Mapping[str, float]) -> Dict:
    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "cfl", "version": __version__, "rng": GENERATOR_NAME},
        "kind": kind,
        "seed": seed,
        "config_hash": config_hash(flat_config),
        "config": dict(sorted(flat_config.items())),
        "caps": jsonable(dict(caps)),
        "result": jsonable(result),
        "flags": jsonable(dict(flags)),
        "timings": {k: round(v, 6) for k, v in timings.items()},
    }


class _Declined(Exception):
    """A value that ``_plain`` leaves to ``json``."""


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _string(text: str) -> str:
    if not (text.isascii() and text.isprintable()):
        raise _Declined
    # the only printable ASCII characters that json escapes
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _plain(obj: Any, out: List[str], pad: str) -> None:
    """Append ``obj`` to ``out`` as ``json.dumps(obj, sort_keys=True,
    indent=2)`` writes it after the line break ``pad``, or raise
    ``_Declined`` for anything but a dict with str keys, a list or tuple,
    an int, a bool, None, a finite float or a printable ASCII string."""
    kind = type(obj)
    if kind is str:
        out.append(_string(obj))
    elif kind is int:
        out.append(repr(obj))
    elif obj is None or kind is bool:
        out.append(_CONSTANTS[obj])
    elif kind is float:
        if not math.isfinite(obj):
            raise _Declined
        out.append(repr(obj))
    elif kind is dict or kind is list or kind is tuple:
        opening, closing = "{}" if kind is dict else "[]"
        if not obj:
            out.append(opening + closing)
            return
        inner = pad + "  "
        out.append(opening)
        sep = inner
        if kind is dict:
            if not all(type(key) is str for key in obj):
                raise _Declined
            for key in sorted(obj):
                out.append(sep + _string(key) + ": ")
                _plain(obj[key], out, inner)
                sep = "," + inner
        else:
            for item in obj:
                out.append(sep)
                _plain(item, out, inner)
                sep = "," + inner
        out.append(pad + closing)
    else:
        raise _Declined


def dump_report(report: Mapping) -> str:
    out: List[str] = []
    try:
        _plain(report, out, "\n")
    except _Declined:
        import json
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    out.append("\n")
    return "".join(out)


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` as UTF-8, whatever the locale, via a sibling temp file
    and rename, so readers never observe a partial file.

    A regular file that already holds exactly these bytes is left alone: no
    temp file, no rename, so its inode and mtime stay as they were.  A
    replaced file keeps its permission bits; a new one gets
    ``0o666 & ~umask``, as ``open`` would give it."""
    data = text.encode("utf-8")
    try:
        st = os.stat(path)
    except OSError:
        # os.umask is the only way to read the mask; cfl starts no thread
        # that could create a file while it reads 0
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        mode = stat.S_IMODE(st.st_mode)
        if stat.S_ISREG(st.st_mode) and st.st_size == len(data):
            try:
                with open(path, "rb") as fh:
                    if fh.read() == data:
                        return
            except OSError:
                pass
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_report_atomic(path: str, report: Mapping) -> None:
    write_text_atomic(path, dump_report(report))


def write_csv_atomic(path: str, header: Iterable[str],
                     rows: Iterable[Iterable[Any]]) -> None:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow(["" if v is None else v for v in row])
    write_text_atomic(path, buf.getvalue())
