"""Fixed-seed session transcripts, pinned by SHA-256 and checked against
the per-round reference engine.

Each case hashes the files ``spatialqkd simulate`` would write: the
statistics, both keys and the full round log.  The cases cover detector
noise with a round count that is a multiple of no internal block size, both
attack strategies, a large alphabet and an alphabet off the lattice, whose
decoding goes through the k-d tree.  A change to the engine that alters a
single draw or a single decoded cell moves one of these hashes.  The same
cases, with an empty and a one-round session, must also come out of
``_oracles.session_reference`` byte for byte.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialqkd.adversary import STRATEGIES, AdversarySpec
from spatialqkd.alphabet import HexAlphabet, build_hex_alphabet
from spatialqkd.config import AlphabetParams, ExperimentConfig, SessionParams
from spatialqkd.protocol import NoiseModel, run_session

from _oracles import off_lattice, session_reference

_BASE37 = build_hex_alphabet(3, 200e-6)
_OFF_LATTICE = off_lattice(_BASE37)


class _OffLatticeConfig(ExperimentConfig):
    def build_alphabet(self) -> HexAlphabet:
        return _OFF_LATTICE


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(config, tmp_path) -> dict[str, str]:
    result = run_session(config)
    result.log.to_csv(tmp_path / "rounds.csv")
    keys = {name: ("\n".join(key) + ("\n" if key else "")).encode("ascii")
            for name, key in (("alice_key", result.alice_key),
                              ("bob_key", result.bob_key))}
    return {"stats.json": _sha((result.stats.to_json() + "\n").encode("ascii")),
            **{name: _sha(data) for name, data in keys.items()},
            "rounds.csv": _sha((tmp_path / "rounds.csv").read_bytes())}


CASES = {
    "suppress_noisy": ExperimentConfig(
        noise=NoiseModel(background_prob=0.01, jitter_sigma=20e-6,
                         loss_prob=0.2),
        adversary=AdversarySpec("suppress_on_evidence", eta=0.7),
        session=SessionParams(rounds=70_001, seed=11, keep_log=True)),
    "intercept_jitter": ExperimentConfig(
        noise=NoiseModel(jitter_sigma=50e-6),
        adversary=AdversarySpec("intercept_resend", eta=0.5),
        session=SessionParams(rounds=20_000, seed=12, keep_log=True)),
    "d331_none": ExperimentConfig(
        alphabet=AlphabetParams(rings=10),
        session=SessionParams(rounds=20_000, seed=13, keep_log=True)),
    "off_lattice": _OffLatticeConfig(
        adversary=AdversarySpec("suppress_on_evidence", eta=0.5),
        session=SessionParams(rounds=20_000, seed=14, keep_log=True)),
}

PINNED = {
    "suppress_noisy": {
        "stats.json": "fc0515c288a871c0d33d51579fc10d00"
                      "7240c2db0367ca1664d9cbb1ee4b811f",
        "alice_key": "c7d23e669cf65adf1a45f2f1460ea79d"
                     "e8e114e1867cccf5bcf0ea3270742e31",
        "bob_key": "43f6a29fefbb9678466c92d650c9c932"
                   "0363bf231205935fd76b63bb63804373",
        "rounds.csv": "e5cfd1f03bcc8f66d97d3cdaafbfcb71"
                      "b7debf86f0ab01052335b8c3f62abfd9",
    },
    "intercept_jitter": {
        "stats.json": "0dfeecb9b0cf3ded8548424e0dda3c1b"
                      "8ba1087dfea8d3440b40a2c739b93f44",
        "alice_key": "126f3c776761574f06794464bc6b2680"
                     "16e6c2a2d5dd768106b5bf7d94fbabb5",
        "bob_key": "2cb98afbcc7a96217c443c39d1a10384"
                   "0d1f27b2f17f38aaf9d2ae5840349c2c",
        "rounds.csv": "fcda72f49c27b186929d50bcd507f320"
                      "c5cb014f52eff6315687495a74af7d14",
    },
    "d331_none": {
        "stats.json": "92a423bb94c62ca913ae259cb755d8f3"
                      "3cecba7171cd29cbd0df5b4d61e2a7ae",
        "alice_key": "ea33d0ae07da00d1a2078a2c841c3676"
                     "111a4d8d1d21531e7e0dfe69a42df1ca",
        "bob_key": "ea33d0ae07da00d1a2078a2c841c3676"
                   "111a4d8d1d21531e7e0dfe69a42df1ca",
        "rounds.csv": "f494f0e021629e3a3d381c519adccb77"
                      "b1b2fb76b04b1052b67abf66879a202a",
    },
    "off_lattice": {
        "stats.json": "3894a1b4bd91b6f0acdc765dedf0767b"
                      "43a1ada421de692abb51bc74bd18b374",
        "alice_key": "f37683559a084e968676524800079233"
                     "67d5d7673541b1ccc790d03c2d524b89",
        "bob_key": "c166e657b572f68c1a7833f9c3b1b90f"
                   "17d4d21b749b0cbb774ba508e24bbcab",
        "rounds.csv": "176b291bfb362d4c27c9f32be2cbcb15"
                      "937a0d179e7ff4c52134e9ce0af4dd81",
    },
}


def test_off_lattice_case_decodes_by_tree():
    assert _OFF_LATTICE._lattice is None
    assert _BASE37._lattice is not None


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript_is_pinned(name, tmp_path):
    assert _digests(CASES[name], tmp_path) == PINNED[name]


REFERENCE_CASES = {
    **CASES,
    "empty": ExperimentConfig(session=SessionParams(rounds=0, seed=15)),
    "one_round": ExperimentConfig(
        noise=NoiseModel(background_prob=0.01, jitter_sigma=20e-6),
        adversary=AdversarySpec("suppress_on_evidence", eta=1.0),
        session=SessionParams(rounds=1, seed=16)),
    # A threshold above the vertex score (2.2e-3), so that points inside
    # their cell can be dropped and every point is scored.
    "suppress_inside_cells": ExperimentConfig(
        adversary=AdversarySpec("suppress_on_evidence", eta=1.0,
                                evidence_threshold=5e-3),
        session=SessionParams(rounds=20_000, seed=18)),
}


def _assert_matches_reference(config):
    """The eight round columns, ``stats.json`` and both keys of
    ``run_session`` equal the reference engine's byte for byte."""
    result = run_session(config)
    columns, stats_json, alice_key, bob_key = session_reference(config)
    for column, ref in columns.items():
        got = getattr(result.log, column)
        assert (got.dtype, got.tobytes()) == (ref.dtype, ref.tobytes()), column
    assert result.stats.to_json() == stats_json
    assert (result.alice_key, result.bob_key) == (alice_key, bob_key)


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_engine_matches_reference(name):
    _assert_matches_reference(REFERENCE_CASES[name])


@settings(max_examples=6)
@given(strategy=st.sampled_from(STRATEGIES), eta=st.sampled_from([0.4, 1.0]),
       rings=st.sampled_from([1, 3, 10]),
       noise=st.tuples(st.sampled_from([0.0, 0.02]),
                       st.sampled_from([0.0, 30e-6]),
                       st.sampled_from([0.0, 0.3])),
       rounds=st.sampled_from([1, 8_191, 8_193, 20_000, 65_537]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_engine_matches_reference_sweep(strategy, eta, rings, noise, rounds,
                                        seed):
    """Strategies, eta, the three noise parameters, d = 7, 37 and 331, and
    round counts across the compute-slice and batch edges."""
    _assert_matches_reference(ExperimentConfig(
        alphabet=AlphabetParams(rings=rings), noise=NoiseModel(*noise),
        adversary=AdversarySpec(strategy, eta if strategy != "none" else 0.0),
        session=SessionParams(rounds=rounds, seed=seed)))


#: No noise, then each noise parameter alone: every suffix of unread
#: measurement draws that a chunk leaves out.
DRAW_SKIP_NOISE = {
    "none": NoiseModel(),
    "jitter": NoiseModel(jitter_sigma=30e-6),
    "background": NoiseModel(background_prob=0.02),
    "loss": NoiseModel(loss_prob=0.3),
}


@pytest.mark.parametrize("name", sorted(DRAW_SKIP_NOISE))
def test_skipped_draws_match_reference(name):
    """The reference makes every draw of a chunk; the engine skips the
    trailing ones its noise never reads, with the same outcome."""
    _assert_matches_reference(ExperimentConfig(
        noise=DRAW_SKIP_NOISE[name],
        adversary=AdversarySpec("intercept_resend", eta=0.5),
        session=SessionParams(rounds=20_000, seed=17)))
