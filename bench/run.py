"""cfl benchmark: times ``cfl <kind>`` invocations end to end, checks every
report, and (with ``--trace 1``) times each cfl layer in process.

    python3 bench/run.py --workload tile-deep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; cfl is imported from ``src/`` through
PYTHONPATH, as the tests do.  The load is a closed loop with one client:
each invocation starts after the previous one exits, and nothing else the
benchmark times runs alongside it.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``), each invocation timed from outside:

* ``wall_s``: over the workload's invocations, the sum of each one's median
  wall time across the passes of the run.
* ``report_s.p50``: median wall time over every invocation sample.
* ``setup_s``: median wall time of a no-op ``cfl thresholds`` invocation
  (interpreter start, imports, config load, report emit), over several.
* ``peak_rss_mb``: the largest max-RSS of any invocation (``os.wait4``).

The three times are scaled by ``REFERENCE_S`` over the run's median bare
interpreter start (see below); the raw seconds are printed before the JSON.

Failures are counted in ``failed`` against ``attempted`` (the fail ratio);
it is not a metric because it is 0 on a correct program.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import (BUILDERS, WORKLOADS, CheckFailed, Job, Output,  # noqa: E402
                       digest, noop_job)

DEFAULT_SEED = 0
SETUP_FIRST = 3
SETUP_EVERY = 4
# The host is shared, and its speed drifts by a quarter over minutes.  A
# bare interpreter start, which runs no cfl code, gauges that speed at every
# no-op set-up, and the reported times are scaled to a host on which it
# takes REFERENCE_S.  The raw times are printed alongside.
REFERENCE = ["-I", "-S", "-c", "pass"]
REFERENCE_S = 0.0125
OUT_DIR = os.path.join(ROOT, ".bench_out")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("CFL_NODE_BUDGET", "PYTHONDONTWRITEBYTECODE", "PYTHONOPTIMIZE"):
        env.pop(var, None)
    return env


def spawn(argv: List[str], workdir: str, env: Dict[str, str]):
    """Run one child to completion; returns (wall seconds, max RSS in MB,
    exit code, stdout, stderr).  Output goes through files so a large report
    can never block the child on a full pipe."""
    out_path = os.path.join(workdir, ".stdout")
    err_path = os.path.join(workdir, ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr


class Tally:
    """Check outcomes: attempts, failures, digests and pinned values."""

    def __init__(self, workload: str, seed: int):
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[str, str] = {}
        self.pins = None
        if seed == DEFAULT_SEED:
            with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
                self.pins = json.load(fh)[workload]

    def record(self, job: Job, out: Output) -> None:
        self.attempted += 1
        try:
            text, pins = job.check(out)
            d = digest(text)
            first = self.digests.setdefault(job.name, d)
            if d != first:
                raise CheckFailed("report differs from an earlier run of the same job")
            if self.pins is not None and pins and self.pins.get(job.name) != pins:
                raise CheckFailed(f"pinned {self.pins.get(job.name)}, got {pins}")
        except CheckFailed as exc:
            self.failed += 1
            print(f"FAIL {job.name}: {exc}", file=sys.stderr)

    def run_digest(self) -> str:
        """One digest over the workload's reports (the no-op left out), so
        the timed and the traced run of one seed print the same value."""
        return digest("".join(f"{k}={v}\n" for k, v in sorted(self.digests.items())
                              if k != "noop"))


def environment() -> dict:
    """Where the numbers came from; the SHA is read only when the checkout
    is a git work tree."""
    sha = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    sha = fh.read().strip()
        else:
            sha = ref
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {"git_sha": sha, "python": sys.version.split()[0],
            "numpy": numpy_version, "nproc": os.cpu_count(), "cpu": cpu,
            "src_lines": src_lines}


def measure(workload: str, seed: int, seconds: float, workdir: str,
            tally: Tally) -> dict:
    """The timed subprocess loop; returns {metric: (value, unit)}."""
    env = child_env()
    base = [sys.executable, "-m", "cfl.cli"]
    noop = noop_job(workdir)
    jobs = BUILDERS[workload](seed, workdir)

    def run(job: Job):
        if job.clear_dir:
            shutil.rmtree(os.path.join(workdir, job.clear_dir), ignore_errors=True)
        wall, rss, code, stdout, stderr = spawn(base + job.argv, workdir, env)
        tally.record(job, Output(code, stdout, stderr, workdir))
        return wall, rss

    def set_up() -> None:
        setup.append(run(noop)[0])
        t0 = time.perf_counter()
        subprocess.run([sys.executable] + REFERENCE, check=True)
        reference.append(time.perf_counter() - t0)

    run(noop)   # compiles the bytecode cache; an installed cfl pays this once
    # set-ups are spread over the run, so a slow minute cannot dominate them
    setup: List[float] = []
    reference: List[float] = []
    for _ in range(SETUP_FIRST):
        set_up()

    samples: Dict[str, List[float]] = {job.name: [] for job in jobs}
    peak = 0.0
    start = time.perf_counter()
    i = 0
    # whole first pass, then job after job until the time is up
    while i < len(jobs) or time.perf_counter() - start < seconds:
        if i % SETUP_EVERY == 0:
            set_up()
        job = jobs[i % len(jobs)]
        wall, rss = run(job)
        samples[job.name].append(wall)
        peak = max(peak, rss)
        i += 1

    every = [w for ws in samples.values() for w in ws]
    raw = {"wall_s": sum(statistics.median(ws) for ws in samples.values()),
           "report_s.p50": statistics.median(every),
           "setup_s": statistics.median(setup)}
    host = statistics.median(reference)
    metrics = {k: (v * REFERENCE_S / host, "s") for k, v in raw.items()}
    metrics["peak_rss_mb"] = (peak, "MB")
    print(f"raw seconds: {json.dumps(raw)}; bare interpreter start "
          f"{host:.5f} s (scaled to {REFERENCE_S} s)")
    print(f"passes: {i / len(jobs):.2f} over {len(jobs)} jobs; "
          f"report_s samples: {len(every)}; setup samples: {len(setup)}")
    for name, ws in samples.items():
        print(f"  {name:24s} median {statistics.median(ws):.4f} s  n={len(ws)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "cfl", "cli.py")):
        print(f"no cfl sources under {os.path.join(ROOT, 'src')}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment(), sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    tally = Tally(args.workload, args.seed)
    try:
        if args.trace:
            from trace_layers import measure_layers
            metrics = measure_layers(args.workload, args.seed, args.seconds,
                                     workdir, tally)
        else:
            metrics = measure(args.workload, args.seed, args.seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"report digest: {tally.run_digest()}")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
