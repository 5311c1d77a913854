#!/usr/bin/env python3
"""Time the probability table build as the alphabet grows.

For each alphabet size d (rings 3, 10 and 20: d = 37, 331 and 1261; with
``--large`` also rings 40, d = 4921) it builds the default-geometry model's
``probability_table()`` and prints one JSON line:

- ``build_s``: the fastest of ``REPEATS`` builds;
- ``polygons``: hexagons the quadrature integrated in one build;
- ``peak_mb`` and ``held_mb``: the ``tracemalloc`` peak of one build, and
  the bytes the finished table holds.

The count and the peak come from one extra build, so that neither the
counting nor ``tracemalloc`` slows the timed ones.  Exits 1 when the d = 1261
build takes longer than ``MAX_SECONDS``:

    PYTHONPATH=src python scripts/table_scaling.py [--large]
"""

import argparse
import json
import sys
import time
import tracemalloc

from spatialqkd import model
from spatialqkd.alphabet import build_hex_alphabet

#: The build whose time is gated, in rings, and its limit in seconds.
GATED_RINGS = 20
MAX_SECONDS = 5.0
#: Timed builds per size.
REPEATS = 3


def held_bytes(table) -> int:
    """Bytes of the FF and II blocks, the envelope row and the residuals."""
    return (table.probs["FF"].nbytes + table.probs["II"].nbytes
            + table.probs["IF"][0].nbytes + table.residual["FF"].nbytes
            + table.residual["II"].nbytes + table.residual["IF"][:1].nbytes)


def measure(rings: int) -> dict:
    alphabet = build_hex_alphabet(rings, 200e-6)
    gauss = model.GaussianModel(alphabet)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        gauss.probability_table()
        times.append(time.perf_counter() - start)

    polygons = 0
    integral = model.gaussian_polygon_integral

    def counting(center, waist, polys):
        nonlocal polygons
        polygons += len(polys)
        return integral(center, waist, polys)

    model.gaussian_polygon_integral = counting
    tracemalloc.start()
    try:
        table = gauss.probability_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        model.gaussian_polygon_integral = integral
    return {"d": alphabet.d, "rings": rings, "build_s": round(min(times), 6),
            "polygons": polygons, "peak_mb": round(peak / 1e6, 3),
            "held_mb": round(held_bytes(table) / 1e6, 3)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--large", action="store_true",
                        help="also build d = 4921 (about 0.4 GB of table)")
    args = parser.parse_args(argv)
    status = 0
    for rings in (3, 10, GATED_RINGS) + ((40,) if args.large else ()):
        row = measure(rings)
        print(json.dumps(row), flush=True)
        if rings == GATED_RINGS and row["build_s"] > MAX_SECONDS:
            print(f"d = {row['d']} build took {row['build_s']} s, more than "
                  f"{MAX_SECONDS} s", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
