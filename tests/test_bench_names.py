"""The benchmark in ``perfbench/`` reaches into the package by name: the
tracer wraps layer entry points by attribute, and the workloads call model
helpers and read the probability table directly.  A renamed or deleted name
would otherwise show only when the benchmark runs."""

import os
import sys

import numpy as np
import pytest

from spatialqkd import protocol
from spatialqkd.adversary import AdversarySpec
from spatialqkd.alphabet import build_hex_alphabet
from spatialqkd.config import ExperimentConfig, SessionParams
from spatialqkd.optics import BasisConfig

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_traced_layers_resolve():
    for owner, attr, _, _ in tracing.TARGETS:
        assert callable(tracing._get(owner, attr)), (owner, attr)


def test_workload_names_resolve():
    """Each name with the call shape the workloads use."""
    alphabet = build_hex_alphabet(1, 200e-6)
    polys = workloads.model.hex_vertices(alphabet.centers, alphabet.cell_radius)
    mass = workloads.model.gaussian_polygon_integral((0.0, 0.0), 1e-3, polys)
    assert mass.shape == (alphabet.d,)
    gauss = ExperimentConfig().build_model(alphabet)
    table = gauss.probability_table()
    for label in ("FF", "II"):
        row = table.probs[label][0]
        assert row.shape == (alphabet.d,) and np.all(np.isfinite(row))
    imap = gauss.intensity_grid(BasisConfig.from_label("FF"), 0)
    binned, residual = workloads.alphabet_mod.bin_probabilities(imap, alphabet)
    assert binned.shape == (alphabet.d,) and 0.0 <= residual < 1.0


@pytest.mark.parametrize("envelope_waist", [None, 0.5e-3],
                         ids=["calibrated", "configured"])
def test_error_prediction_envelope(envelope_waist):
    """The workloads read the envelope waist through
    ``resolve_envelope_waist``, which must be the model's."""
    cfg = ExperimentConfig(envelope_waist=envelope_waist)
    alphabet = cfg.build_alphabet()
    prediction = workloads.ErrorPrediction(cfg)
    assert prediction.probs.shape == (alphabet.d,)
    assert (cfg.resolve_envelope_waist(alphabet)
            == cfg.build_model(alphabet).envelope_waist)


def test_tracer_sees_every_session_layer():
    """A session sliced into compute blocks still reports each layer: every
    round is decoded twice under attack (the attacker's readout, then the
    receiver's), and each decode is counted once."""
    rounds = 2 * protocol.STREAM_CHUNK + 1
    cfg = ExperimentConfig(
        adversary=AdversarySpec("suppress_on_evidence", eta=1.0),
        session=SessionParams(rounds=rounds, seed=3, keep_log=False))
    tracer = tracing.Tracer()
    tracer.run(lambda: protocol.run_session(cfg))
    names = {span[3] for span in tracer.spans}
    assert {"adversary.attack_batch", "adversary.evidence_scores",
            "alphabet.nearest_cell", "protocol.measure_batch"} <= names
    assert tracer.op_counts[0]["nearest_cell_points"] == 2 * rounds
