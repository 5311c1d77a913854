#!/usr/bin/env python3
"""Time each layer as the alphabet grows, one JSON line per row.

Times are the fastest of ``REPEATS`` runs, and ``peak_mb`` the
``tracemalloc`` peak of one extra run.  A row's ``layer`` is one of:

- ``decode``, at d = 37, 331 and 1261 (rings 3, 10 and 20): ``nearest_cell``
  points per second in ``_SLICE``-point slices of a session's mix of
  ``sample_plane`` positions, ``tree_share``, the share of them the rhombus
  lookup leaves to the k-d tree, and ``run_session`` rounds per second,
  set-up included, with no attack and under ``suppress_on_evidence``.
  Under that attack, at eta 1, also ``evidence_scored_share``, the share of
  the attacker's decoded points (every round) that ``evidence_scores``
  sees, and milliseconds per ``_estimate_from_arrays`` and per
  ``_flatten_mask`` call over the session's sifted rows;
- ``setup``, at the same sizes: milliseconds per ``source()`` (the
  envelope's quadrature row) and per ``run_session`` of 0 rounds, and
  ``erf_row_share``, the share of that session's quadrature nodes on which
  ``erf`` is evaluated, about 0.34 at d = 331 and 0.48 at d = 1261, where
  the hexagons share their x-coordinate rows;
- ``table``, at the same sizes (``--large`` adds d = 4921, about 0.4 GB):
  ``probability_table()`` build time, hexagons integrated, and MB held;
- ``export``: the CSV tables of the benchmark's ``cli_outputs`` run, with
  each file's ``bytes`` and, for a map, its ``zero_blocks``: the
  ``BLOCK``-row blocks of +0.0 that the writer fills with one constant;
- ``optics``, on the default 512² grid: milliseconds per ``propagate_chain``
  over the FF, II and IF chains (the fastest of ``CHAIN_REPEATS`` runs),
  per containment check and per Gaussian plane (an aperture field and an
  IF closed form), the chains' and the planes' ``tracemalloc`` peaks in
  complex planes, and the process's minor page faults per chain, from
  ``getrusage``.

Exits 1 when a figure leaves its bounds, which sit far past a 2-core Xeon's
figures so that only a gross slowdown fails them on a shared machine; the
tree share, about 0.02, catches a fall-back to the k-d tree on any host,
the scored share, about 0.02 too, a fall-back to scoring every point, and
the erf row share, from d = 331 on, a fall-back to evaluating every
hexagon's nodes:

    PYTHONPATH=src python scripts/layer_scaling.py [--large]
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import timeit
import tracemalloc
from types import SimpleNamespace

import numpy as np

from spatialqkd import adversary, model
from spatialqkd._csv import all_plus_zero, row_slices
from spatialqkd.adversary import eve_log_to_csv
from spatialqkd.alphabet import _SLICE, build_hex_alphabet
from spatialqkd.config import AlphabetParams, ExperimentConfig
from spatialqkd.optics import (ApertureSpec, BasisConfig, Geometry,
                               _check_contained, analytic_amplitude,
                               full_chain, make_aperture_field,
                               propagate_chain)
from spatialqkd.protocol import (_estimate_from_arrays, _flatten_mask,
                                 _stream, run_session)

RINGS = (3, 10, 20)
POINTS = ROUNDS = 1 << 18
REPEATS = 5
#: A chain takes about 10 ms, so one stall of a shared host can push a
#: best of 5 past its ceiling; the best of 15 rides over it.
CHAIN_REPEATS = 15
#: ``(lowest, highest)`` of each decode figure.  Of the other layers only
#: the d = 1261 table build and the map writes are bounded, in ``rows``.
DECODE_BOUNDS = {"decode_points_per_s": (1e6, np.inf), "tree_share": (0, 0.05),
                 "rounds_per_s_none": (2e5, np.inf),
                 "rounds_per_s_suppress": (1.2e5, np.inf),
                 "evidence_scored_share": (0, 0.05)}
#: Ceiling of ``erf_row_share`` from d = 331 on, where the rows are shared.
SETUP_BOUNDS = {"erf_row_share": (0, 0.6)}
CHAINS = ("FF", "II", "IF")
OPTICS_BOUNDS = {**{f"chain_ms_{label}": (0, 100.0) for label in CHAINS},
                 "check_ms": (0, 5.0), "field_ms_aperture": (0, 20.0),
                 "field_ms_crossed": (0, 20.0)}


def best_time(run, repeat: int = REPEATS) -> float:
    """The fastest of ``repeat`` calls of ``run``, in seconds."""
    return min(timeit.repeat(run, number=1, repeat=repeat))


def traced_peak(run):
    """``run()`` and its ``tracemalloc`` peak in MB."""
    tracemalloc.start()
    try:
        return run(), round(tracemalloc.get_traced_memory()[1] / 1e6, 3)
    finally:
        tracemalloc.stop()


def decode_row(rings: int) -> dict:
    cfg = ExperimentConfig(alphabet=AlphabetParams(rings=rings)).override(
        rounds=ROUNDS, seed=1, keep_log=False)
    alphabet = cfg.build_alphabet()
    rng = np.random.default_rng(rings)
    prep, meas = (rng.integers(0, 2, POINTS).astype(np.int8) for _ in "pm")
    pts = cfg.build_model(alphabet).sample_plane(
        rng.standard_normal((POINTS, 2)), prep,
        rng.integers(0, alphabet.d, POINTS), meas)

    def decode():
        for start in range(0, POINTS, _SLICE):
            alphabet.nearest_cell(pts[start:start + _SLICE])

    cleared = (np.count_nonzero(alphabet._lattice_nearest(pts)[1])
               if alphabet._lattice is not None else 0)
    row = {"layer": "decode", "d": alphabet.d, "rings": rings,
           "decode_points_per_s": round(POINTS / best_time(decode)),
           "tree_share": round(1.0 - cleared / POINTS, 5)}
    for key, strategy, eta in (("none", "none", 0.0),
                               ("suppress", "suppress_on_evidence", 1.0)):
        run = cfg.override(strategy=strategy, eta=eta)
        row[f"rounds_per_s_{key}"] = round(
            ROUNDS / best_time(lambda: run_session(run)))
    return {**row, **sift_figures(run)}


def sift_figures(run) -> dict:
    """The scored share of one session of ``run``, an active attack, and
    the per-call times of its error estimate and key flattening."""
    scored, score = [], adversary.evidence_scores

    def counting(positions, nearest, gauss):
        scored.append(len(positions))
        return score(positions, nearest, gauss)

    adversary.evidence_scores = counting
    try:
        run_session(run)
    finally:
        adversary.evidence_scores = score
    gauss = run.build_model()
    probs = gauss.source()
    (code, sent, received), *_ = _stream(run, gauss, probs, None)
    labels, fraction = gauss.alphabet.labels, run.session.sample_fraction
    tape = np.random.default_rng(0).random(sent.size)
    return {"evidence_scored_share": round(sum(scored) / ROUNDS, 5),
            "sifted_rows": sent.size,
            "estimate_ms": round(1e3 * best_time(lambda: _estimate_from_arrays(
                np.random.default_rng(0), code, sent, received, labels,
                fraction)), 3),
            "flatten_ms": round(1e3 * best_time(
                lambda: _flatten_mask(tape, sent, probs)), 3)}


def setup_row(rings: int) -> dict:
    """The share comes from one extra session, with the quadrature and
    ``erf`` counted, so that the counting slows no timed run."""
    cfg = ExperimentConfig(alphabet=AlphabetParams(rings=rings)).override(
        rounds=0, seed=1, keep_log=False)
    gauss = cfg.build_model()
    nodes, points = [], []
    integral, special = model.gaussian_polygon_integral, model.special

    def counting(center, waist, polys):
        nodes.append(polys.shape[0] * polys.shape[1] * model._GL_NODES)
        return integral(center, waist, polys)

    def erf(x, out=None):
        points.append(x.size)
        return special.erf(x, out=out)

    model.gaussian_polygon_integral = counting
    model.special = SimpleNamespace(erf=erf)
    try:
        run_session(cfg)
    finally:
        model.gaussian_polygon_integral, model.special = integral, special
    return {"layer": "setup", "d": gauss.alphabet.d, "rings": rings,
            "source_ms": round(1e3 * best_time(gauss.source), 3),
            "setup_ms": round(1e3 * best_time(lambda: run_session(cfg)), 3),
            "erf_row_share": round(sum(points) / sum(nodes), 3)}


def table_row(rings: int) -> dict:
    """The count and the peak come from one extra build, counted and
    traced, so that neither slows the timed builds."""
    gauss = model.GaussianModel(build_hex_alphabet(rings, 200e-6))
    build_s = best_time(gauss.probability_table)
    sizes, integral = [], model.gaussian_polygon_integral

    def counting(center, waist, polys):
        sizes.append(len(polys))
        return integral(center, waist, polys)

    model.gaussian_polygon_integral = counting
    try:
        table, peak_mb = traced_peak(gauss.probability_table)
    finally:
        model.gaussian_polygon_integral = integral
    held = sum(a.nbytes for a in (  # the two blocks, envelope row, residuals
        table.probs["FF"], table.probs["II"], table.probs["IF"][0],
        table.residual["FF"], table.residual["II"], table.residual["IF"][:1]))
    return {"layer": "table", "d": gauss.alphabet.d, "rings": rings,
            "build_s": round(build_s, 6), "polygons": sum(sizes),
            "peak_mb": peak_mb, "held_mb": round(held / 1e6, 3)}


def export_tables():
    """``(fields, write(path))``, ``fields`` naming the table and counting
    its rows: the FF and IF maps of character 7 and the logs of 50 000
    intercept-resend rounds at eta 1 and seed 1."""
    cfg = ExperimentConfig().override(rounds=50_000, seed=1,
                                      strategy="intercept_resend", eta=1.0)
    gauss, char = cfg.build_model(), cfg.build_alphabet().index_of("7")
    for label in ("FF", "IF"):
        imap = gauss.intensity_grid(BasisConfig.from_label(label), char)
        flat = imap.values.ravel()
        zero_blocks = sum(all_plus_zero(flat[s])
                          for s in row_slices(flat.size))
        yield {"table": f"map_{label}_7.csv", "rows": flat.size,
               "zero_blocks": zero_blocks}, imap.to_csv
    log = run_session(cfg).log
    yield {"table": "rounds.csv", "rows": len(log)}, log.to_csv
    hit = np.flatnonzero(log.attacked)
    # Gathered here, so that the row times and traces the writer alone.
    columns = (hit, log.eve_basis[hit], log.eve_measured[hit],
               log.eve_dropped[hit], log.labels)
    yield {"table": "eve_records.csv", "rows": hit.size}, \
        lambda path: eve_log_to_csv(path, *columns)


def optics_row() -> dict:
    """A displaced Gaussian aperture state through three of the
    ``optics_crosscheck`` chains.  Faults are counted over ``REPEATS`` more
    chains of each, after the timed ones have warmed the heap."""
    geom = Geometry()
    spec = ApertureSpec("gaussian", geom.aperture_waist, (346.4e-6, 600e-6))
    field = make_aperture_field(spec, geom)
    chains = [full_chain(BasisConfig.from_label(label), geom)
              for label in CHAINS]
    row = {"layer": "optics", "n": geom.grid_samples}
    for label, chain in zip(CHAINS, chains):
        row[f"chain_ms_{label}"] = round(1e3 * best_time(
            lambda: propagate_chain(field, chain), CHAIN_REPEATS), 3)
    row["check_ms"] = round(
        1e3 * best_time(lambda: _check_contained(field, "here")), 3)
    crossed = BasisConfig.from_label("IF")
    planes = {"aperture": lambda: make_aperture_field(spec, geom),
              "crossed": lambda: analytic_amplitude(crossed, spec, geom)}
    for name, build in planes.items():
        row[f"field_ms_{name}"] = round(1e3 * best_time(build), 3)
    plane_mb = 16 * geom.grid_samples ** 2 / 1e6
    row["peak_planes"] = max(round(traced_peak(
        lambda: propagate_chain(field, chain))[1] / plane_mb, 3)
        for chain in chains)
    row["field_peak_planes"] = max(round(traced_peak(build)[1] / plane_mb, 3)
                                   for build in planes.values())
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for chain in chains:
        for _ in range(REPEATS):
            propagate_chain(field, chain)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    row["faults_per_chain"] = round(faults / (REPEATS * len(chains)), 1)
    return row


def rows(large: bool):
    """Each ``(row, bounds)``, ``bounds`` mapping a key to its limits."""
    for rings in RINGS:
        yield decode_row(rings), DECODE_BOUNDS
    for rings in RINGS:
        yield setup_row(rings), SETUP_BOUNDS if rings >= 10 else {}
    for rings in RINGS + ((40,) if large else ()):
        yield table_row(rings), {"build_s": (0, 5.0)} if rings == 20 else {}
    with tempfile.TemporaryDirectory() as directory:
        for fields, write in export_tables():
            path = os.path.join(directory, fields["table"])
            write_s = best_time(lambda: write(path))
            yield {"layer": "export", **fields, "write_s": round(write_s, 6),
                   "rows_per_s": round(fields["rows"] / write_s),
                   "bytes": os.path.getsize(path),
                   "peak_mb": traced_peak(lambda: write(path))[1]}, (
                {"write_s": (0, 1.0)} if fields["table"].startswith("map_")
                else {})
    yield optics_row(), OPTICS_BOUNDS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--large", action="store_true",
                        help="also build the d = 4921 table (about 0.4 GB)")
    status = 0
    for row, bounds in rows(parser.parse_args(argv).large):
        print(json.dumps(row), flush=True)
        for key, (low, high) in bounds.items():
            if not low <= row[key] <= high:
                print(f"{key} is outside [{low:g}, {high:g}] in "
                      f"{json.dumps(row)}", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
