"""End-to-end benchmark of graph-iwasawa.

    python3 perfbench/run.py --workload tower-deep|level-sweep|cover-oracle
                             [--seed N] [--seconds S] [--trace 0|1]

Drives the package from outside, one job at a time from one process (a
closed loop with one client):

* tower-deep runs every job as its own graph-iwasawa process, exactly as
  the console script does;
* level-sweep and cover-oracle run one fresh Python process per pass that
  calls the library API (perfbench/worker.py).

Every output is checked (perfbench/checks.py) and digested.  Every time is
reported in seconds of the reference machine: each job is bracketed by
readings of a fixed calibration kernel (perfbench/speed.py) that track the
shared host's drifting speed, and the raw seconds are printed beside the
normalised ones.  A run makes round(--seconds / NOMINAL_PASS_S) passes,
each over its own draw of the seed's inputs (perfbench/inputs.py), so the
number of passes, and with it every percentile, is the same on every
commit; it measures about --seconds on the reference machine.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json: set-up
(fresh-interpreter import of graph_iwasawa.cli, the median of several) and
the per-pass wall, CPU and peak RSS of the worker processes, with the
median and tail job times.  --trace 1 runs one untraced and one traced
pass (perfbench/tracer.py), requires their output digests to be equal, and
reports the per-layer metrics.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
import speed
from worker import TRACE_MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# What the graph-iwasawa console script runs.
ENTRY = "import sys; from graph_iwasawa.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import {}; print(time.perf_counter() - t)")
# Imports timed before the first pass and after every pass, so that the
# set-up samples span the whole run like the passes do.
SETUP_IMPORTS_PER_GAP = 1

# The benchmark and every process it starts run on one CPU, except the
# --parallel job, which gets them all: the two vCPUs of the reference
# machine differ in speed by up to 30 %, and a speed reading
# (perfbench/speed.py) describes only the CPU it was taken on.
ALL_CPUS = os.sched_getaffinity(0)
BENCH_CPUS = {min(ALL_CPUS)}

# Seconds one pass takes on the reference machine, rounded so that a check
# of ten runs per workload, twice, fits its time limit (see
# perfbench/baseline.json); a run makes --seconds / this passes.
NOMINAL_PASS_S = {"tower-deep": 16.0, "level-sweep": 10.0,
                  "cover-oracle": 11.0}

TAIL_BEYOND = 10


@dataclass
class Proc:
    """One finished process; wall and cpu are raw seconds."""
    code: int
    out: bytes
    err: bytes
    wall: float
    cpu: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # the program's own default digit limit is part of what is measured
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def run_process(argv: list[str], stdin: bytes = b"",
                cpus: set = BENCH_CPUS) -> Proc:
    """Run one process on ``cpus`` to completion; CPU and peak RSS include
    its children."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT,
                            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        try:
            proc.stdin.write(stdin)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        out = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Proc(proc.returncode, out, err[0], time.perf_counter() - start,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def import_seconds(modules: str) -> float:
    """Seconds a fresh interpreter takes to import ``modules``."""
    proc = run_process([sys.executable, "-c", IMPORT_PROBE.format(modules)])
    if proc.code != 0:
        sys.exit(f"perfbench: cannot import {modules} with PYTHONPATH "
                 f"{SRC}:\n{proc.err.decode(errors='replace')}")
    return float(proc.out)


def time_imports(count: int) -> list[tuple[float, float]]:
    """Reference and raw seconds to import graph_iwasawa.cli in ``count``
    fresh interpreters."""
    calibrator = speed.Calibrator(
        read=lambda: import_seconds(speed.IMPORT_REFERENCE),
        reference=speed.IMPORT_REFERENCE_S)
    marks, raws = [], []
    for _ in range(count):
        marks.append(calibrator.mark())
        raws.append(import_seconds("graph_iwasawa.cli"))
    calibrator.close()
    return [(raw * calibrator.factor(mark), raw)
            for mark, raw in zip(marks, raws)]


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    wall: float         # reference seconds of the worker processes
    cpu: float          # reference CPU seconds of the worker processes
    raw_wall: float
    raw_cpu: float
    rss_mb: float
    jobs: list          # dicts: name, s, raw_s, digest, ok, known, error
    traces: list        # span summaries of the traced processes
    stdout_bytes: int = 0


def tower_pass(jobs: list[dict], traced: bool) -> PassResult:
    procs, marks = [], []
    calibrator = speed.Calibrator()
    for job in jobs:
        if traced:
            argv = [sys.executable, str(HERE / "worker.py"), "cli",
                    *job["argv"]]
        else:
            argv = [sys.executable, "-c", ENTRY, *job["argv"]]
        marks.append(calibrator.mark())
        procs.append(run_process(
            argv, cpus=ALL_CPUS if "--parallel" in argv else BENCH_CPUS))
    calibrator.close()
    factors = [calibrator.factor(mark) for mark in marks]
    records, traces = [], []
    for job, proc, factor in zip(jobs, procs, factors):
        err = proc.err
        if traced:
            err, _, trace = err.rpartition(TRACE_MARKER.encode())
            traces.append(json.loads(trace))
        rec = {"name": " ".join(job["argv"]), "s": proc.wall * factor,
               "raw_s": proc.wall, "digest": checks.digest(proc.out)}
        rec.update(checks.check_cli(job, proc.code, proc.out, err))
        records.append(rec)
    return PassResult(sum(p.wall * f for p, f in zip(procs, factors)),
                      sum(p.cpu * f for p, f in zip(procs, factors)),
                      sum(p.wall for p in procs), sum(p.cpu for p in procs),
                      max(p.rss_mb for p in procs), records, traces,
                      sum(len(p.out) for p in procs))


def library_pass(mode: str, data: dict, traced: bool) -> PassResult:
    request = json.dumps({"inputs": data, "trace": traced}).encode()
    proc = run_process([sys.executable, str(HERE / "worker.py"), mode],
                       request)
    if proc.code != 0:
        tail = proc.err.decode(errors="replace").strip().splitlines()
        jobs = [{"name": f"{mode} worker", "s": proc.wall,
                 "raw_s": proc.wall, "digest": "", "ok": False,
                 "known": False,
                 "error": tail[-1] if tail else f"exit {proc.code}"}]
        return PassResult(proc.wall, proc.cpu, proc.wall, proc.cpu,
                          proc.rss_mb, jobs, [])
    payload = json.loads(proc.out.decode().splitlines()[-1])
    jobs = payload["jobs"]
    for job in jobs:
        job["known"] = False
    # The worker's own speed readings are not the program's time; the rest
    # of the process is scaled by the factor its jobs saw on average.
    wall = proc.wall - payload["calibration_s"]
    cpu = proc.cpu - payload["calibration_s"]
    factor = sum(j["s"] for j in jobs) / sum(j["raw_s"] for j in jobs)
    return PassResult(wall * factor, cpu * factor, wall, cpu, proc.rss_mb,
                      jobs, [payload["trace"]] if traced else [])


def run_pass(workload: str, data, traced: bool) -> PassResult:
    if workload == "tower-deep":
        return tower_pass(data, traced)
    mode = {"level-sweep": "sweep", "cover-oracle": "cover"}[workload]
    return library_pass(mode, data, traced)


def digests(result: PassResult) -> list[tuple[str, str]]:
    return [(job["name"], job["digest"]) for job in result.jobs]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it,
    and that percentile."""
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def end_to_end(setup: list[tuple[float, float]], passes: list[PassResult],
               key: str = "s") -> dict:
    """The end-to-end metrics in reference seconds, or with ``key="raw_s"``
    in raw seconds."""
    raw = key == "raw_s"
    times = [job[key] for p in passes for job in p.jobs]
    job_tail, _ = tail(times)
    return {
        "setup_s": statistics.median(s[raw] for s in setup),
        "wall_s": statistics.median(p.raw_wall if raw else p.wall
                                    for p in passes),
        "cpu_s": statistics.median(p.raw_cpu if raw else p.cpu
                                   for p in passes),
        "job_p50_s": statistics.median(times),
        "job_tail_s": job_tail,
        "peak_rss_mb": max(p.rss_mb for p in passes),
    }


def merge_traces(traces: list[dict]) -> tuple[dict, dict]:
    funcs: dict = {}
    counters: dict = {}
    for trace in traces:
        for name, (calls, self_s) in trace["functions"].items():
            rec = funcs.setdefault(name, [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
        for name, value in trace["counters"].items():
            if name.endswith("max_bits"):
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    return funcs, counters


def per_layer(traced: PassResult, untraced: PassResult) -> dict:
    """Every per-layer value this benchmark derives.  A layer the package
    does not have (or never entered) reads 0, and so does a ratio whose
    base is 0."""
    funcs, counters = merge_traces(traced.traces)

    def calls(name):
        return funcs.get(name, [0, 0.0])[0]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name, (n, self_s) in funcs.items():
        out[f"{name}.calls"] = n
        out[f"{name}.self_s"] = self_s
    out.update(counters)
    primes = calls("linalg._det_mod_p")
    out["linalg.det_crt.primes"] = primes
    out["linalg.det_crt.prime_yield"] = ratio(
        counters.get("linalg.det_crt.primes_needed", 0), primes)
    out["towers.level_reuse"] = ratio(
        counters.get("towers.levels_distinct", 0),
        calls("towers.level_norm") + calls("towers.level_valuation"))
    out["cli.stdout_bytes"] = traced.stdout_bytes
    out["trace.overhead"] = traced.wall / untraced.wall
    return out


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def print_jobs(passes: list[PassResult], workload: str) -> None:
    first = passes[0]
    combined = checks.digest("\n".join(f"{n} {d}" for n, d in digests(first)))
    print(f"outputs of {len(first.jobs)} jobs: sha256 {combined}")
    if workload == "tower-deep":
        for job in first.jobs:
            state = "ok" if job["ok"] else (
                "known failure" if job["known"] else "FAILED")
            print(f"  {job['s']:7.3f} s  {job['digest'][:16]}  {state:13}  "
                  f"{job['name']}")
    errors = {(j["name"], j["error"]) for p in passes for j in p.jobs
              if not j["ok"]}
    for name, error in sorted(errors):
        print(f"  failed: {name}: {error}")


def load_metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement length on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "graph_iwasawa" / "cli.py").is_file():
        sys.exit(f"perfbench: no graph_iwasawa package under {SRC}")
    # outputs are parsed here with int(); the children keep their own limit
    sys.set_int_max_str_digits(0)
    os.sched_setaffinity(0, BENCH_CPUS)
    spec = load_metric_specs()

    time_imports(1)  # also writes the bytecode cache, as an install would
    correct = True
    if args.trace:
        data = inputs.inputs(args.workload, args.seed)
        plain = run_pass(args.workload, data, traced=False)
        traced = run_pass(args.workload, data, traced=True)
        passes = [plain, traced]
        if digests(plain) != digests(traced):
            correct = False
            print("traced and untraced output digests differ")
        values = per_layer(traced, plain)
        wanted = spec["per_layer"]
    else:
        count = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        draws = [inputs.inputs(args.workload, args.seed, draw)
                 for draw in range(count)]
        setup = time_imports(SETUP_IMPORTS_PER_GAP)
        passes = []
        for data in draws:
            passes.append(run_pass(args.workload, data, traced=False))
            setup += time_imports(SETUP_IMPORTS_PER_GAP)
        repeats = [p for p, data in zip(passes, draws) if data == draws[0]]
        if any(digests(p) != digests(repeats[0]) for p in repeats[1:]):
            correct = False
            print("outputs differ between passes of the same inputs")
        values = end_to_end(setup, passes)
        raw_values = end_to_end(setup, passes, key="raw_s")
        wanted = spec["end_to_end"]

    jobs = [job for p in passes for job in p.jobs]
    attempted = len(jobs)
    failed = sum(not job["ok"] for job in jobs)
    correct = correct and all(job["ok"] or job["known"] for job in jobs)
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes, "
          f"{'traced' if args.trace else 'untraced'}")
    print_jobs(passes, args.workload)
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        line = f"  {m['name']:40} {value:14.6g} {m['unit']}"
        if not args.trace and m["unit"] == "s":
            line += f"  (raw {raw_values[m['name']]:.6g} s)"
        print(line)
    print(f"  {'fail_ratio':40} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} jobs)")
    if not args.trace:
        times = [job["s"] for p in passes for job in p.jobs]
        _, pct = tail(times)
        print(f"  job_tail_s is p{pct:.1f} of {len(times)} job times; "
              f"setup_s is the median of {len(setup)} imports")
    else:
        funcs, _ = merge_traces(traced.traces)
        top = sorted(funcs.items(), key=lambda kv: -kv[1][1])[:12]
        print("  top self time: " + ", ".join(
            f"{name} {self_s:.3f}s/{n}" for name, (n, self_s) in top))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
