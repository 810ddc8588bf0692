"""The process entry: ``python -m cfl.cli`` and the ``cfl`` script both run
``cli.entry``, which flushes stdout and stderr once ``main`` returns and
ends the process with ``main``'s code, skipping interpreter teardown.
``main`` itself neither exits nor freezes the heap, so in-process callers
keep normal cycle collection."""

import ast
import gc
import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import cfl
from cfl import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cfl.__file__)))
ALPHA = "[run]\nkind = alpha\nseed = 7\n[alpha]\ngraph = {graph}\nell = 2\n"


def write(path, text):
    path.write_text(text)
    return str(path)


def run_process(args, env=None, **kwargs):
    """``python -m cfl.cli`` with ``args``; CFL_NODE_BUDGET only if given,
    and a variable that ``env`` maps to None unset."""
    base = {k: v for k, v in os.environ.items() if k != "CFL_NODE_BUDGET"}
    base["PYTHONPATH"] = SRC
    env = {k: v for k, v in {**base, **(env or {})}.items() if v is not None}
    return subprocess.run([sys.executable, "-m", "cfl.cli", *args],
                          env=env, timeout=60, **kwargs)


def without_timings(text):
    return re.sub(r'"timings": \{[^}]*\}', '"timings": {}', text)


def test_main_never_freezes(tmp_path, capsys):
    run = write(tmp_path / "a.ini", ALPHA.format(graph="c5"))
    scan = write(tmp_path / "s.ini", ALPHA.format(graph="c5")
                 + "[scan]\nparam = alpha.ell\nvalues = 2, 3\n")
    bad = write(tmp_path / "bad.ini", "[run]\nkind = alpha\n"
                                      "[alpha]\ngraph = c5\nell = two\n")
    for args, code in [(["alpha", "--config", run], 0),
                       (["scan", "--config", scan, "--out", str(tmp_path / "o")], 0),
                       (["alpha", "--config", bad], 2)]:
        before = gc.get_freeze_count()
        assert cli.main(args) == code
        assert gc.get_freeze_count() == before
    capsys.readouterr()


def test_a_process_exits_with_the_report_main_prints(tmp_path, capsys):
    cfg = write(tmp_path / "a.ini", ALPHA.format(graph="c5"))
    assert cli.main(["alpha", "--config", cfg]) == 0
    inprocess = capsys.readouterr().out
    out = run_process(["alpha", "--config", cfg], capture_output=True)
    assert out.returncode == 0
    assert out.stderr == b""
    assert without_timings(out.stdout.decode()) == without_timings(inprocess)
    assert json.loads(out.stdout)["timings"]["total_s"] >= 0


@pytest.mark.parametrize("args, code, stderr", [
    (["alpha", "--config", "{bad}"], 2, "config error: [alpha] ell: "),
    (["alpha"], 2, "error: the following arguments are required: --config"),
    (["--help"], 0, ""),
    (["alpha", "--config", "{missing}"], 3, "input error: "),
], ids=["config-key", "usage", "help", "missing-graph-file"])
def test_a_process_exits_with_mains_code(tmp_path, args, code, stderr):
    paths = {
        "{bad}": write(tmp_path / "bad.ini", "[run]\nkind = alpha\n"
                                             "[alpha]\ngraph = c5\nell = two\n"),
        "{missing}": write(tmp_path / "miss.ini",
                           ALPHA.format(graph=tmp_path / "no-such-file.g6")),
    }
    out = run_process([paths.get(a, a) for a in args], capture_output=True,
                      text=True)
    assert out.returncode == code
    assert stderr in out.stderr
    if code == 0:
        assert out.stderr == "" and out.stdout.startswith("usage: cfl")


def test_a_process_exits_four_on_a_cap_hit(tmp_path):
    cfg = write(tmp_path / "a.ini", ALPHA.format(graph="gnp:24,0.5,3"))
    out = run_process(["alpha", "--config", cfg], env={"CFL_NODE_BUDGET": "1"},
                      capture_output=True, text=True)
    assert out.returncode == 4
    rep = json.loads(out.stdout)
    assert rep["flags"]["cap_hit"] is True
    assert rep["caps"] == {"node_budget": 1}


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_pipe_exits_three_with_one_line(tmp_path, unbuffered):
    cfg = write(tmp_path / "a.ini", ALPHA.format(graph="c5"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = run_process(["alpha", "--config", cfg], stdout=write_end,
                          stderr=subprocess.PIPE, text=True,
                          env={"PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write_end)
    assert out.returncode == 3
    assert out.stderr == "input error: [Errno 32] Broken pipe\n"


# a report of about 14 KB, past the streams' 8 KB buffers
BIG = "[run]\nkind = construct\n[construct]\nfamily = spec\ngraph = gnp:420,0.5,1\n"


@pytest.mark.parametrize("args, env, code, stderr", [
    (["construct", "--config", "{big}"], {}, 0, ""),
    (["alpha", "--config", "{bad}"], {}, 2, "config error: [alpha] ell: "),
    (["alpha", "--config", "{missing}"], {}, 3, "input error: "),
    (["alpha", "--config", "{gnp}"], {"CFL_NODE_BUDGET": "1"}, 4, ""),
    (["--help"], {}, 0, ""),
], ids=["ok", "config-error", "input-error", "cap-hit", "help"])
@pytest.mark.parametrize("sink", ["pipe", "file"])
def test_the_process_ends_when_main_returns(tmp_path, capsys, monkeypatch, args,
                                            env, code, stderr, sink):
    """Once ``main`` returns, ``entry`` flushes both streams and ends the
    process: the report is whole on a pipe and in a file, each exit code is
    ``main``'s, and an atexit handler registered before ``entry`` never runs,
    after ``--help`` too."""
    paths = {
        "{big}": write(tmp_path / "big.ini", BIG),
        "{bad}": write(tmp_path / "bad.ini", "[run]\nkind = alpha\n"
                                             "[alpha]\ngraph = c5\nell = two\n"),
        "{missing}": write(tmp_path / "miss.ini",
                           ALPHA.format(graph=tmp_path / "no-such-file.g6")),
        "{gnp}": write(tmp_path / "gnp.ini", ALPHA.format(graph="gnp:24,0.5,3")),
    }
    argv = [paths.get(a, a) for a in args]
    monkeypatch.delenv("CFL_NODE_BUDGET", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert cli.main(argv) == code
    inprocess = capsys.readouterr().out
    script = ("import atexit, sys\n"
              "atexit.register(lambda: sys.stderr.write('atexit ran\\n'))\n"
              "from cfl.cli import entry\n"
              f"sys.argv = ['cfl', *{argv!r}]\n"
              "entry()\n")
    environ = {k: v for k, v in os.environ.items() if k != "CFL_NODE_BUDGET"}
    environ.update(env, PYTHONPATH=SRC)
    environ.pop("PYTHONUNBUFFERED", None)
    sink_path = tmp_path / "stdout.txt"
    with open(sink_path, "wb") as fh:
        out = subprocess.run([sys.executable, "-c", script], env=environ,
                             stdout=subprocess.PIPE if sink == "pipe" else fh,
                             stderr=subprocess.PIPE, timeout=60)
    stdout = (out.stdout if sink == "pipe" else sink_path.read_bytes()).decode()
    assert out.returncode == code
    assert stderr in out.stderr.decode()
    assert "atexit ran" not in out.stderr.decode()
    assert without_timings(stdout) == without_timings(inprocess)
    if args[0] == "construct":
        assert len(stdout) > 8192 and json.loads(stdout)["result"]["graph"]["n"] == 420


def _script_target():
    """The ``[project.scripts] cfl`` target, read as text (3.10 has no
    tomllib)."""
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        section = None
        for line in fh:
            line = line.strip()
            if line.startswith("["):
                section = line
            elif section == "[project.scripts]" and line.startswith("cfl"):
                name, _, value = line.partition("=")
                if name.strip() == "cfl":
                    return value.strip().strip('"')
    raise AssertionError("pyproject.toml has no [project.scripts] cfl")


def _main_block_call():
    """The name that ``cli``'s ``if __name__ == "__main__":`` block calls."""
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test):
            (stmt,) = node.body
            call = getattr(stmt, "value", None)
            assert (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and not call.args), ast.unparse(stmt)
            return call.func.id
    raise AssertionError("cli has no __main__ block")


def test_both_launch_paths_share_one_entry():
    module, _, attr = _script_target().partition(":")
    target = getattr(importlib.import_module(module), attr)
    assert target is getattr(cli, _main_block_call())
    assert target is cli.entry
