#!/usr/bin/env python3
"""Time decoding and whole sessions as the alphabet grows.

For each alphabet size d (rings 3, 10 and 20: d = 37, 331 and 1261) on the
default geometry it prints one JSON line:

- ``decode_points_per_s``: ``nearest_cell`` points per second, in slices of
  ``_SLICE`` points as a session decodes them, the fastest of ``REPEATS``
  passes over ``POINTS`` points;
- ``tree_share``: the share of those points the rhombus lookup leaves to
  the k-d tree;
- ``rounds_per_s_none`` and ``rounds_per_s_suppress``: ``run_session``
  rounds per second at ``ROUNDS`` rounds, set-up included, with no attack
  and under ``suppress_on_evidence`` at eta 1, the fastest of ``REPEATS``.

The points are a session's mix: ``GaussianModel.sample_plane`` positions
for uniformly drawn bases and characters, so about half are matched-basis
images around a cell center and half follow the crossed-basis envelope.
Exits 1 when a rate falls below its floor in ``FLOORS``, about 20 times
below the slowest rate measured on a 2-core Xeon:

    PYTHONPATH=src python scripts/decode_scaling.py
"""

import json
import sys
import time

import numpy as np

from spatialqkd.adversary import AdversarySpec
from spatialqkd.alphabet import _SLICE
from spatialqkd.config import AlphabetParams, ExperimentConfig, SessionParams
from spatialqkd.protocol import run_session

RINGS = (3, 10, 20)
POINTS = 1 << 18
ROUNDS = 1 << 18
REPEATS = 5
#: Lowest rate each figure may read, per second.
FLOORS = {"decode_points_per_s": 1e6, "rounds_per_s_none": 2e5,
          "rounds_per_s_suppress": 1.2e5}


def best_time(run) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def session_config(rings: int, strategy: str, eta: float) -> ExperimentConfig:
    return ExperimentConfig(
        alphabet=AlphabetParams(rings=rings),
        adversary=AdversarySpec(strategy, eta=eta),
        session=SessionParams(rounds=ROUNDS, seed=1, keep_log=False))


def measure(rings: int) -> dict:
    cfg = session_config(rings, "none", 0.0)
    alphabet = cfg.build_alphabet()
    model = cfg.build_model(alphabet)
    rng = np.random.default_rng(rings)
    prep, meas = (rng.integers(0, 2, POINTS).astype(np.int8) for _ in "pm")
    pts = model.sample_plane(rng.standard_normal((POINTS, 2)), prep,
                             rng.integers(0, alphabet.d, POINTS), meas)

    def decode():
        for start in range(0, POINTS, _SLICE):
            alphabet.nearest_cell(pts[start:start + _SLICE])

    cleared = (np.count_nonzero(alphabet._lattice_nearest(pts)[1])
               if alphabet._lattice is not None else 0)
    row = {"d": alphabet.d, "rings": rings,
           "decode_points_per_s": round(POINTS / best_time(decode)),
           "tree_share": round(1.0 - cleared / POINTS, 5)}
    for key, strategy, eta in (("none", "none", 0.0),
                               ("suppress", "suppress_on_evidence", 1.0)):
        cfg = session_config(rings, strategy, eta)
        row[f"rounds_per_s_{key}"] = round(
            ROUNDS / best_time(lambda: run_session(cfg)))
    return row


def main() -> int:
    status = 0
    for rings in RINGS:
        row = measure(rings)
        print(json.dumps(row), flush=True)
        for key, floor in FLOORS.items():
            if row[key] < floor:
                print(f"d = {row['d']}: {key} {row[key]} is below the floor "
                      f"{floor:g}", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
