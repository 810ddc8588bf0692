"""Golden reports: one small config per kind, plus one scan point.

Each ``golden/<name>.ini`` (kind = the name up to the first '-') runs
through ``cfl.cli.main`` from inside ``golden/``, so regcheck's partition
file resolves by a relative path and no report carries a temporary path.
The report, with ``timings`` stripped, must equal ``golden/<name>.json``
byte for byte.  Each ``scan*.ini`` is swept with ``cfl scan`` instead: its
point reports must equal ``<name>-point-NNN.json`` and its ``scan.csv``
``<name>.csv``, so the csv pins the order of the result columns too.  A run
that hits a node cap must exit 4, every other run 0.

After a deliberate report change, regenerate with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from typing import Dict, Tuple

import pytest

from cfl.cli import main
from cfl.reports import dump_report

from support import strip_timings

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
NAMES = sorted(f[:-4] for f in os.listdir(GOLDEN) if f.endswith(".ini"))


def _stripped(text: str) -> str:
    return dump_report(strip_timings(json.loads(text)))


def render(name: str, outdir: str) -> Tuple[int, Dict[str, str]]:
    """Run one golden config from inside ``golden/``; returns the exit code
    and the golden file name -> expected text map it should match."""
    kind = name.split("-", 1)[0]
    argv = [kind, "--config", f"{name}.ini"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--out", outdir] if kind == "scan" else argv)
    if kind != "scan":
        return code, {f"{name}.json": _stripped(out.getvalue())}
    files = {}
    for f in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, f), encoding="utf-8") as fh:
            text = fh.read()
        if f.startswith("point-"):
            files[f"{name}-{f[:len('point-000')]}.json"] = _stripped(text)
        elif f == "scan.csv":
            files[f"{name}.csv"] = text
    return code, files


@pytest.mark.parametrize("name", NAMES)
def test_golden_report(name, tmp_path, monkeypatch):
    monkeypatch.delenv("CFL_NODE_BUDGET", raising=False)
    monkeypatch.chdir(GOLDEN)
    code, files = render(name, str(tmp_path))
    assert files
    for fname, text in files.items():
        with open(os.path.join(GOLDEN, fname), encoding="utf-8") as fh:
            assert text == fh.read(), fname
        if fname.endswith(".json"):
            capped = json.loads(text)["flags"].get("cap_hit")
            assert code == (4 if capped else 0)


def regenerate() -> None:
    os.environ.pop("CFL_NODE_BUDGET", None)
    os.chdir(GOLDEN)
    for name in NAMES:
        with tempfile.TemporaryDirectory() as outdir:
            _, files = render(name, outdir)
        for fname, text in files.items():
            with open(fname, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(os.path.join(GOLDEN, fname))


if __name__ == "__main__":
    sys.exit(regenerate())
