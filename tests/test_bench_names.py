"""The benchmark in ``perfbench/`` reaches into the package by name: the
tracer wraps layer entry points by attribute, and the workloads call model
helpers and read the probability table directly.  A renamed or deleted name
would otherwise show only when the benchmark runs."""

import os
import sys

import numpy as np

from spatialqkd.alphabet import build_hex_alphabet
from spatialqkd.model import GaussianModel

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_traced_layers_resolve():
    for owner, attr, _, _ in tracing.TARGETS:
        assert callable(tracing._get(owner, attr)), (owner, attr)


def test_workload_names_resolve():
    alphabet = build_hex_alphabet(1, 200e-6)
    polys = workloads.model.hex_vertices(alphabet.centers, alphabet.cell_radius)
    mass = workloads.model.gaussian_polygon_integral((0.0, 0.0), 1e-3, polys)
    assert mass.shape == (alphabet.d,)
    table = GaussianModel(alphabet).probability_table()
    for label in ("FF", "II"):
        row = table.probs[label][0]
        assert row.shape == (alphabet.d,) and np.all(np.isfinite(row))
