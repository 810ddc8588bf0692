"""Experiment report schema and atomic JSON/CSV emission.

Reports are versioned JSON ("schema": 1).  Rerunning an identical config
(including the seed) reproduces every field except ``timings`` bit for bit:
all randomness flows from the recorded seed, vertex sets serialize sorted,
rationals serialize as "p/q" strings, graphs as graph6 lines, and keys are
emitted sorted.  A result record (``records.Record``) becomes an object of
its fields, in field order, and SHA-256 (``config_hash``) is ``rng``'s.

``dump_report`` writes exactly ``json.dumps(report, sort_keys=True,
indent=2)`` and a newline, or raises json's TypeError, without loading
``json``.  A printable ASCII string takes two ``str.replace`` calls; any
other string is escaped character by character, as json escapes it.

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
from typing import Any, Dict, Iterable, List, Mapping, Optional

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


_CONSTANTS = {None: "null", True: "true", False: "false"}
# json's short escapes; any other character outside printable ASCII is \uXXXX
_SHORT = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
          "\b": "\\b", "\f": "\\f"}


def _escape(ch: str) -> str:
    code = ord(ch)
    if code > 0xFFFF:                   # a surrogate pair, as json writes it
        code -= 0x10000
        return "\\u%04x\\u%04x" % (0xD800 | code >> 10, 0xDC00 | code & 0x3FF)
    return "\\u%04x" % code


def _string(text: str) -> str:
    if text.isascii() and text.isprintable():
        # the only printable ASCII characters that json escapes
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return '"' + "".join(_SHORT.get(ch) or (ch if " " <= ch <= "~" else _escape(ch))
                         for ch in text) + '"'


def _scalar(obj: Any) -> Optional[str]:
    """json's text for None, a bool, an int or a float; else None."""
    if obj is None or obj is True or obj is False:
        return _CONSTANTS[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if not isinstance(obj, float):
        return None
    if math.isfinite(obj):
        return float.__repr__(obj)
    return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"


def _emit(obj: Any, out: List[str], pad: str) -> None:
    """Append ``obj`` to ``out`` as ``json.dumps(obj, sort_keys=True,
    indent=2)`` writes it after the line break ``pad``, or raise json's
    TypeError for what it cannot write."""
    if isinstance(obj, str):
        out.append(_string(obj))
    elif isinstance(obj, (list, tuple, dict)):
        opening, closing = "{}" if isinstance(obj, dict) else "[]"
        if not obj:
            out.append(opening + closing)
            return
        inner = pad + "  "
        out.append(opening)
        sep = inner
        if opening == "{":
            for key, value in sorted(obj.items()):
                text = key if isinstance(key, str) else _scalar(key)
                if text is None:
                    raise TypeError("keys must be str, int, float, bool or "
                                    f"None, not {key.__class__.__name__}")
                out.append(sep + _string(text) + ": ")
                _emit(value, out, inner)
                sep = "," + inner
        else:
            for item in obj:
                out.append(sep)
                _emit(item, out, inner)
                sep = "," + inner
        out.append(pad + closing)
    else:
        text = _scalar(obj)
        if text is None:
            raise TypeError(f"Object of type {obj.__class__.__name__} "
                            "is not JSON serializable")
        out.append(text)


def dump_report(report: Mapping) -> str:
    out: List[str] = []
    _emit(report, out, "\n")
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
