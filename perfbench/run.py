"""Benchmark of the spatialqkd package: one workload per run.

Usage, from the root of a source checkout (the package need not be
installed; ``src`` is put on the import path)::

    python3 perfbench/run.py --workload session_small --seed 1 \
        --seconds 28 --trace 0

The run builds its inputs from the seed, warms up with one untimed
operation, then runs operations until the next one would end past
``--seconds``, timing the set-up between them.  Every operation's output is
checked; an operation whose check fails counts as failed.  With ``--trace 1`` the run
alternates untraced and traced operations and reports per-layer metrics
instead (see ``tracing.py``).

The report lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
All load comes from this one process, with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, "out")

BLAS_THREADS = 1
#: Set-ups are timed between operations, spread over the whole run, while
#: they take at most ``SETUP_SHARE`` of the time so far; at least
#: ``SETUP_MIN`` are timed in all.
SETUP_SHARE, SETUP_MIN = 0.15, 3


def pin_threads() -> None:
    """Pin the BLAS and OpenMP pools before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Import spatialqkd from this checkout's ``src``; exit 2 when absent."""
    sys.path.insert(0, SRC)
    try:
        import spatialqkd
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import spatialqkd from {SRC}: {exc}")
    if not os.path.abspath(spatialqkd.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: spatialqkd was imported from "
                 f"{spatialqkd.__file__}, not from {SRC}")
    return spatialqkd


class RssSampler:
    """Peak anonymous resident memory within a window, sampled every 5 ms.

    ``ru_maxrss`` only ever grows over the life of the process, so a
    background thread reads ``/proc/self/statm`` instead and keeps the
    largest value seen between :meth:`begin` and :meth:`end`.  Before each
    window, heap memory freed by earlier operations is handed back to the
    system, so the window sees one operation's own allocations.  A 1 ms
    period slowed operations by about 6 % through the interpreter lock;
    5 ms gave the same peaks without a visible slowdown.
    """

    PERIOD_S = 0.005

    def __init__(self):
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._lock = threading.Lock()
        self._active = False
        self._peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        try:
            self._trim = ctypes.CDLL("libc.so.6").malloc_trim
            self._trim.argtypes = [ctypes.c_size_t]
        except (OSError, AttributeError):
            self._trim = None

    def _rss(self) -> int:
        # Resident minus shared (file-backed) pages: memory the process
        # allocated.  The total moved by 11 MB between runs of the same
        # code, most likely as the host dropped and re-read library pages.
        fields = os.pread(self._fd, 128, 0).split()
        return (int(fields[1]) - int(fields[2])) * self._page

    def _loop(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            with self._lock:
                if self._active:
                    self._peak = max(self._peak, self._rss())

    def begin(self) -> None:
        if self._trim is not None:
            self._trim(0)
        with self._lock:
            self._peak = self._rss()
            self._active = True

    def end(self) -> int:
        with self._lock:
            self._active = False
            return max(self._peak, self._rss())

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
        os.close(self._fd)


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                func = getattr(lib, symbol)
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def environment() -> dict:
    """Revision, interpreter, library versions, BLAS threads and CPU."""
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    try:
        rev = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse",
             "HEAD"], capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_pinned": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def tail(values: list[float]) -> tuple[float, float, int]:
    """Upper quartile, its percentile and the number of samples above it.

    The highest rank with ten samples above it moves with the sample count,
    which moves with the host's and the program's speed: a faster change
    would be judged at a higher percentile than its parent.  So the tail is
    always the upper quartile (inclusive method), which has ten samples
    above it from 40 samples on.
    """
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0], 100.0, 0
    value = statistics.quantiles(ordered, n=4, method="inclusive")[2]
    return value, 75.0, sum(1 for v in ordered if v > value)


def run_ops(workload, seconds: float, sampler: RssSampler, tracer=None):
    """Timed operations until the next would end past ``seconds``.

    Returns one record per operation (time, peak RSS, work, problems,
    whether it ran traced), the set-up times and the reference kernel times.
    Without a tracer, set-ups are timed between operations, and after each
    operation the reference kernel is timed for ``reference.SHARE`` of the
    operation's time.  With a tracer, operations alternate between untraced
    and traced, starting untraced, and neither set-up nor kernel is timed.
    """
    import reference
    records, setups, refs = [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        sampler.begin()
        if traced:
            result, op_s = tracer.run(
                workload.op,
                lambda r: {"out_bytes": workload.work(r).get("bytes", 0)})
        else:
            t0 = time.perf_counter()
            result = workload.op()
            op_s = time.perf_counter() - t0
        peak = sampler.end()
        work = workload.work(result)
        records.append({"op_s": op_s, "peak": peak, "work": work,
                        "problems": workload.check(result), "traced": traced})
        if tracer is None:
            refs += reference.sample(reference.SHARE * op_s)
        elapsed = time.perf_counter() - start
        if tracer is None and sum(setups) <= SETUP_SHARE * elapsed:
            setups.append(time_setup(workload))
            elapsed = time.perf_counter() - start
        typical = statistics.median(r["op_s"] for r in records)
        if elapsed + typical > seconds and (tracer is None or len(records) >= 2):
            break
    while tracer is None and len(setups) < SETUP_MIN:
        setups.append(time_setup(workload))
    return records, setups, refs


def time_setup(workload) -> float:
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


THROUGHPUT = {"rounds": ("rounds_per_s", "1/s", 1.0),
              "bytes": ("out_mb_per_s", "MB/s", 1e-6),
              "fields": ("fields_per_s", "1/s", 1.0)}


def end_to_end(records, setup_times, ref_times) -> tuple[dict, list[str]]:
    """End-to-end metrics of the result line, and the full report lines.

    The three times of the result line are wall times scaled by the run's
    host speed (see ``reference.py``); the report lines give them unscaled.
    """
    import reference
    times = [r["op_s"] for r in records]
    n = len(records)
    failed = sum(1 for r in records if r["problems"])
    tail_s, pct, beyond = tail(times)
    wall = {"op_s_p50": statistics.median(times), "op_s_tail": tail_s,
            "setup_s": statistics.median(setup_times)}
    speed = reference.speed(ref_times)
    metrics = {
        "op_s_p50": (wall["op_s_p50"] * speed, "s"),
        "op_s_tail": (wall["op_s_tail"] * speed, "s"),
        "setup_s": (wall["setup_s"] * speed, "s"),
        "peak_mem_mb": (statistics.median(r["peak"] for r in records) / 1e6,
                        "MB"),
        "ops_ok_frac": ((n - failed) / n, "frac"),
    }
    lines = [f"op_s_tail is p{pct:.0f} of {n} operations, with {beyond} "
             f"beyond it; setup_s is the median of {len(setup_times)} set-ups",
             f"host_speed {speed:.6g} (reference kernel median "
             f"{statistics.median(ref_times):.6g} s over {len(ref_times)} "
             f"calls, nominal {reference.NOMINAL_S:g} s)"]
    lines += [f"wall.{name} {value:.6g} s" for name, value in wall.items()]
    for key, (name, unit, scale) in THROUGHPUT.items():
        if key in records[0]["work"]:
            rate = statistics.median(r["work"][key] * scale / r["op_s"]
                                     for r in records)
            lines.append(f"{name} {rate:.6g} {unit}")
    lines.append(f"ops_failed_frac {failed / n:.6g} frac")
    return metrics, lines


def per_layer(tracer, records) -> tuple[dict, list[str]]:
    """Per-layer metrics of the result line, and the trace accounting lines."""
    import tracing
    traced = [r["op_s"] for r in records if r["traced"]]
    untraced = [r["op_s"] for r in records if not r["traced"]]
    values = tracer.metrics(traced, untraced)
    metrics = {name: (values[name], tracing.UNITS[name])
               for name in tracing.PER_LAYER}
    op_p50 = statistics.median(untraced)
    lines = [f"{len(traced)} traced and {len(untraced)} untraced operations",
             f"trace.unattributed_s is "
             f"{values['trace.unattributed_s'] / op_p50:.2%} of the untraced "
             f"op_s_p50 {op_p50:.6g} s"]
    return metrics, lines


def measure(workload, seconds: float, trace: bool,
            trace_path: str | None = None) -> tuple[dict, list[str]]:
    """Warm up, time the operations and check each; return the result line.

    Untraced runs also time the set-up.  Returns the result object and the
    report lines that go before it, check failures included.
    """
    sampler = RssSampler()
    try:
        warm_problems = workload.check(workload.op())
        if trace:
            import tracing
            tracer = tracing.Tracer()
            records, _, _ = run_ops(workload, seconds, sampler, tracer)
            metrics, lines = per_layer(tracer, records)
            if trace_path:
                tracer.write(trace_path)
                lines.append(f"spans written to "
                             f"{os.path.relpath(trace_path, ROOT)}")
        else:
            import reference
            reference.warm()
            records, setups, refs = run_ops(workload, seconds, sampler)
            metrics, lines = end_to_end(records, setups, refs)
    finally:
        sampler.close()
    lines = [f"{name} {value:.6g} {unit}"
             for name, (value, unit) in metrics.items()] + lines
    lines += [f"warm-up check: {problem}" for problem in warm_problems]
    lines += [f"op {i} check: {problem}" for i, rec in enumerate(records)
              for problem in rec["problems"]]
    failed = sum(1 for r in records if r["problems"])
    return {
        "correct": failed == 0 and not warm_problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    pin_threads()
    import_package()
    import workloads
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.NAMES)}")
    os.makedirs(WORKDIR, exist_ok=True)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    trace_path = os.path.join(WORKDIR, f"trace-{args.workload}-{args.seed}.jsonl")
    result, lines = measure(workloads.make(args.workload, args.seed, WORKDIR),
                            args.seconds, bool(args.trace), trace_path)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
