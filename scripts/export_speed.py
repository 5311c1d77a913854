#!/usr/bin/env python3
"""Time the CSV exports that ``spatialqkd simulate`` and ``maps`` write.

The tables are those of the benchmark's ``cli_outputs`` run: the FF and IF
detection maps of character 7 on the default 512² grid, and the round log
and the attacker's log of a 50 000-round intercept-resend session at
``eta = 1`` and seed 1.  For each table it prints one JSON line:

- ``rows``: data rows written;
- ``write_s``: the fastest of ``REPEATS`` writes, and ``rows_per_s``;
- ``peak_mb``: the ``tracemalloc`` peak of one extra write, so that
  ``tracemalloc`` does not slow the timed ones.

Exits 1 when a map takes longer than ``MAX_MAP_SECONDS``, about 20 times
the 0.04-0.06 s a map takes on a 2-core Xeon, so that only a gross slowdown
of the writer fails it on a shared machine:

    PYTHONPATH=src python scripts/export_speed.py
"""

import argparse
import json
import os
import sys
import tempfile
import time
import tracemalloc

import numpy as np

from spatialqkd.adversary import eve_log_to_csv
from spatialqkd.config import ExperimentConfig
from spatialqkd.optics import BasisConfig
from spatialqkd.protocol import run_session

#: The limit on one 512² map write, in seconds.
MAX_MAP_SECONDS = 1.0
#: Timed writes per table.
REPEATS = 3
ROUNDS, SEED = 50_000, 1


def tables():
    """``(name, rows, write(path))`` for each table."""
    cfg = ExperimentConfig().override(rounds=ROUNDS, seed=SEED,
                                      strategy="intercept_resend", eta=1.0)
    model = cfg.build_model()
    char = cfg.build_alphabet().index_of("7")
    for label in ("FF", "IF"):
        imap = model.intensity_grid(BasisConfig.from_label(label), char)
        yield f"map_{label}_7.csv", imap.n ** 2, imap.to_csv
    log = run_session(cfg).log
    yield "rounds.csv", len(log), log.to_csv
    hit = np.flatnonzero(log.attacked)

    def eve_log(path):
        eve_log_to_csv(path, hit, log.eve_basis[hit], log.eve_measured[hit],
                       log.eve_dropped[hit], log.labels)
    yield "eve_records.csv", hit.size, eve_log


def measure(name: str, rows: int, write, directory: str) -> dict:
    path = os.path.join(directory, name)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        write(path)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        write(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    best = min(times)
    return {"table": name, "rows": rows, "write_s": round(best, 6),
            "rows_per_s": round(rows / best), "peak_mb": round(peak / 1e6, 3)}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    status = 0
    with tempfile.TemporaryDirectory() as directory:
        for name, rows, write in tables():
            row = measure(name, rows, write, directory)
            print(json.dumps(row), flush=True)
            if name.startswith("map_") and row["write_s"] > MAX_MAP_SECONDS:
                print(f"{name} took {row['write_s']} s, more than "
                      f"{MAX_MAP_SECONDS} s", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
