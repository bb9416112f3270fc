"""The reproduction's benchmark: the ``report`` and ``serve`` workloads.

Run from the repository root::

    python3 perfbench/run.py --workload report --seed 20220224 --seconds 40 --trace 0

Each repetition runs in a fresh process (``worker.py``), so no program
cache carries over between repetitions.  A run repeats until ``--seconds``
would be exceeded and reports medians over its repetitions.  Times are
scaled to a reference CPU speed measured by ``speed.py`` during each
repetition; the raw times are in the ``run:`` line.  The last line
on standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, or
the per-layer metrics of one traced repetition with ``--trace 1``.
``README.md`` beside this file says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from typing import Any, Dict, List, Optional, Tuple

import checks
import loadgen
import speed

HERE = os.path.dirname(os.path.abspath(__file__))

#: Dataset scale of both workloads (1.0 = the paper's test volume).
SCALE = 0.25
#: Tail percentile.  report: 14 of its 18 sections are ready within a
#: fraction of a second of each other, then analysis.churn runs and the
#: last 4 follow; p90 falls among those 4, while p80 fell on the gap and
#: its spread over five seeds was 14%.  serve: 108 day closes per
#: repetition, so p90 has at least 20 samples beyond it in a run.
TAIL = 90
#: serve: reads per second, just under the rate where the backlog grows.
SERVE_RATE = 10.0
#: serve: a run is invalid when the generator's p95 lateness exceeds this.
LATE_BOUND_MS = 25.0
MIN_REPS = 2
#: Every run, repetitions included, ends well inside this many seconds.
RUN_LIMIT_S = 170.0
#: Generator seeds tried per benchmark seed (see :func:`generator_seeds`).
SEED_TRIES = 8

Metrics = Dict[str, Tuple[float, str]]


def machine() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def generator_seeds(seed: int) -> List[int]:
    """The benchmark seed, then seeds derived from it.

    For about one seed in fifteen the generator cannot calibrate a dataset
    (its traffic-matrix fit does not converge) and raises before any test
    is drawn.  Such a seed is not a workload; the run moves on to the next
    seed of this list, so one benchmark seed always gives the same inputs.
    """
    derived = (hashlib.sha256(f"{seed}:{k}".encode()).digest()[:4] for k in range(1, SEED_TRIES))
    return [seed] + [int.from_bytes(d, "big") for d in derived]


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Bench:
    """One run: its arguments, scratch directory and repetitions."""

    def __init__(self, args: argparse.Namespace, workdir: str, probe: speed.Probe):
        self.args = args
        self.workdir = workdir
        self.probe = probe
        self.started = time.perf_counter()
        self.scale = args.scale if args.scale is not None else SCALE
        self.seeds = generator_seeds(args.seed)

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    @property
    def seed(self) -> int:
        """The generator seed in use."""
        return self.seeds[0]

    def _spawn(self, trace_path: str, done_path: str, pipes: bool) -> subprocess.Popen:
        env = dict(os.environ)
        src = os.path.abspath("src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.seed),
            "--scale", repr(self.scale), "--workdir", self.workdir,
            "--trace", trace_path, "--done", done_path, "--t0", repr(time.time()),
            "--probe", self.probe.path,
        ]
        cpu = self.probe.cpu
        return subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, text=True,
            stdin=subprocess.PIPE if pipes else subprocess.DEVNULL,
            preexec_fn=lambda: speed.pin(cpu),
        )

    @staticmethod
    def _result(proc: subprocess.Popen, out: str) -> Dict[str, Any]:
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        return json.loads(lines[-1])

    def repetition(self, trace_path: str = "") -> Dict[str, Any]:
        """One repetition in a fresh process, with its times scaled to the
        reference CPU speed; moves to the next seed if the generator
        rejects this one."""
        while True:
            before = speed.read(self.probe.path)
            if self.args.workload == "serve":
                rep = self._serve_repetition(trace_path)
            else:
                rep = self._once(trace_path)
            if "rejected" not in rep:
                break
            print(f"seed {self.seed} rejected by the generator ({rep['rejected']})",
                  file=sys.stderr)
            if len(self.seeds) == 1:
                raise RuntimeError(f"the generator rejected all {SEED_TRIES} seeds")
            self.seeds.pop(0)
        start, end = rep["probe"]
        rep["speed"] = speed.speed(start, end)
        rep["raw_setup_s"], rep["raw_wall_s"] = rep["setup_s"], rep["wall_s"]
        rep["setup_s"] *= speed.speed(before, start)
        rep["wall_s"] *= rep["speed"]
        rep["items_ms"] = [x * rep["speed"] for x in rep["items_ms"]]
        return rep

    def _once(self, trace_path: str) -> Dict[str, Any]:
        proc = self._spawn(trace_path, "", pipes=False)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.remaining()))
        finally:
            _reap(proc)
        return self._result(proc, out)

    def _serve_repetition(self, trace_path: str) -> Dict[str, Any]:
        done = os.path.join(self.workdir, f"done-{time.perf_counter_ns()}")
        proc = self._spawn(trace_path, done, pipes=True)
        try:
            line = proc.stdout.readline()
            if line.startswith("{"):  # rejected before the service started
                out, _ = proc.communicate(timeout=max(1.0, self.remaining()))
                return self._result(proc, line + out)
            ready = line.split()
            if len(ready) != 2 or ready[0] != "READY":
                raise RuntimeError(f"serve worker did not start: {ready}")
            proc.stdin.write("GO\n")
            proc.stdin.flush()
            if proc.stdout.readline().strip() != "FIRST":
                raise RuntimeError("serve worker closed no day")

            def stop() -> bool:
                if proc.poll() is not None or self.remaining() < 5.0:
                    raise RuntimeError("serve worker ended or ran out of time mid-replay")
                return os.path.exists(done)

            reads = loadgen.read_open_loop("127.0.0.1", int(ready[1]), SERVE_RATE, stop)
            proc.stdin.write("STOP\n")
            out, _ = proc.communicate(timeout=max(1.0, self.remaining()))
        finally:
            _reap(proc)
        rep = self._result(proc, out)
        rep["reads_ms"] = reads.latencies_ms
        rep["attempted"], rep["failed"] = reads.attempted, reads.failed
        rep["late_ms"] = reads.late_ms
        if reads.errors:
            print(f"read failures: {reads.errors}", file=sys.stderr)
        if reads.healthz_days != sorted(reads.healthz_days):
            rep["problems"].append("/healthz day went backwards on the connection")
        return rep

    # -- runs ----------------------------------------------------------------
    def timed(self) -> List[Dict[str, Any]]:
        """Repetitions until the next one would overrun ``--seconds``."""
        reps: List[Dict[str, Any]] = []
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            reps.append(self.repetition())
            longest = max(longest, time.perf_counter() - t0)
            elapsed = time.perf_counter() - self.started
            enough = len(reps) >= MIN_REPS
            if (enough and elapsed + longest > self.args.seconds) or (
                    elapsed + longest > RUN_LIMIT_S - 10.0):
                return reps

    def traced(self) -> List[Dict[str, Any]]:
        """One untraced and one traced repetition (the difference is overhead)."""
        name = f"{self.args.workload}-{self.args.seed}-{os.getpid()}"
        trace_path = os.path.join(os.path.dirname(self.workdir), "spans", f"{name}.csv")
        return [self.repetition(), self.repetition(trace_path)]


def _reap(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None and not stream.closed:
            stream.close()


def problems_of(reps: List[Dict[str, Any]], workload: str) -> List[str]:
    problems = [p for rep in reps for p in rep["problems"]]
    if len({rep["digest"] for rep in reps}) != 1:
        problems.append("two repetitions of one seed produced different outputs")
    if workload == "serve":
        late = percentile([x for rep in reps for x in rep["late_ms"]], 95)
        if late > LATE_BOUND_MS:
            problems.append(f"load generator ran {late:.1f} ms late (p95): run invalid")
    return problems


def end_to_end(reps: List[Dict[str, Any]]) -> Metrics:
    items = [x for rep in reps for x in rep["items_ms"]]
    return {
        "setup_s": (statistics.median(rep["setup_s"] for rep in reps), "s"),
        "wall_s": (statistics.median(rep["wall_s"] for rep in reps), "s"),
        "latency_tail_ms": (percentile(items, TAIL), "ms"),
        "peak_rss_mb": (statistics.median(rep["peak_rss_mb"] for rep in reps), "MB"),
    }


def per_layer(reps: List[Dict[str, Any]], workload: str) -> Metrics:
    """The traced repetition's layers, plus what needs the untraced one too."""
    plain, traced = reps
    layers: Metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    layers["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    layers["latency_p50_ms"] = (percentile(plain["items_ms"], 50), "ms")
    layers["host.speed"] = (plain["speed"], "ratio")
    serving = workload == "serve"
    reads = plain.get("reads_ms", [])
    layers["serve.read_p50_ms"] = (percentile(reads, 50) if serving else 0.0, "ms")
    layers["serve.read_p90_ms"] = (percentile(reads, 90) if serving else 0.0, "ms")
    layers["serve.generator_late_ms"] = (
        percentile(plain["late_ms"], 95) if serving else 0.0, "ms")
    layers["obs.live.service.read_wait_ms"] = (
        statistics.median(traced["reads_ms"]) - statistics.median(traced["respond_ms"])
        if serving else 0.0, "ms")
    return layers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("report", "serve"), required=True)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="override the workload's dataset scale (self-test)")
    args = parser.parse_args(argv)

    if not (os.path.isdir(os.path.join("src", "repro")) and os.path.isfile("BENCHMARK.json")):
        print("perfbench: run from the root of a repository checkout "
              "(src/repro and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    base = os.path.join(".bench_build", "perfbench")
    os.makedirs(base, exist_ok=True)
    workdir = os.path.abspath(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    probe = None
    try:
        # Workers and the probe share one CPU; this process (serve's reader)
        # keeps to the others, if there are any.
        cpus = os.sched_getaffinity(0)
        cpu = min(cpus)
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus - {cpu})
        probe = speed.Probe(os.path.join(workdir, "speed.bin"), cpu)
        bench = Bench(args, workdir, probe)
        reps = bench.traced() if args.trace else bench.timed()
    finally:
        if probe is not None:
            probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    values = per_layer(reps, args.workload) if args.trace else end_to_end(reps)
    problems = problems_of(reps, args.workload)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    counted = reps[:1] if args.trace else reps
    record = {
        "workload": args.workload, "seed": args.seed, "generator_seed": bench.seed,
        "trace": args.trace, "scale": bench.scale, "machine": machine(),
        "repetitions": len(reps), "digest": reps[0]["digest"], "problems": problems,
        **{key: [rep[key] for rep in reps]
           for key in ("setup_s", "wall_s", "raw_setup_s", "raw_wall_s", "speed")},
    }
    print(f"run: {json.dumps(record, sort_keys=True)}")
    with open(os.path.join(base, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(record, metrics=values), sort_keys=True) + "\n")
    result = {
        "correct": not problems,
        "attempted": sum(rep["attempted"] for rep in counted),
        "failed": sum(rep["failed"] for rep in counted),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
