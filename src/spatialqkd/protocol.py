"""Session engine for the two-basis character protocol.

One round: the sender draws a basis and a character, prepares the displaced
aperture state, and the receiver measures behind a random decoder arm.
Rounds with matching bases and a detection survive sifting; a random sample
of the sifted pairs is spent on error estimation and the rest is flattened
to a uniform key.

The engine is vectorized and batched.  Batch ``b`` of a session with seed
``s`` uses the generator seeded with ``[s, b]``, so transcripts are
reproducible bit for bit.  They stay so only because :data:`BATCH_SIZE` is a
fixed constant: a different batch size splits the rounds over different
generators and gives a different transcript.  A batch of ``m`` rounds makes
these draws, in this order and at full size: the sender's bases,
``integers(0, 2, m)``, and characters, ``choice(d, m, p=P)``; under an
active attack only, the taps (``random(m)`` below ``eta``), the attacker's
bases, ``integers(0, 2, m)``, and her position noise,
``standard_normal((m, 2))``; the receiver's bases, ``integers(0, 2, m)``;
his position noise and jitter, two ``standard_normal((m, 2))``; background
(``random(m)`` below the background weight), its cell,
``integers(0, d, m)``, and loss (``random(m)`` below ``loss_prob``).  The
per-round arithmetic then runs over private compute slices that keep
temporaries in cache, and their size is free to tune.  Error estimation and
key flattening draw from their own fixed substreams.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._checks import number
from ._csv import FLAG_FIELDS, code_fields, row_blocks, write_csv
from .adversary import _BASIS_FIELDS, attack_batch, eve_information_estimate
from .model import GaussianModel
from .optics import BasisConfig

if TYPE_CHECKING:
    from .config import ExperimentConfig

__all__ = [
    "BATCH_SIZE",
    "MIN_SAMPLES_PER_CHAR",
    "NoiseModel",
    "SessionLog",
    "ErrorEstimate",
    "SessionStats",
    "SessionResult",
    "run_session",
]

BATCH_SIZE = 1 << 16

#: Sampled pairs per character and configuration below which the error
#: estimate is flagged as low confidence.
MIN_SAMPLES_PER_CHAR = 30

_ESTIMATE_STREAM = 0x5E1F
_FLATTEN_STREAM = 0xF1A7


@dataclass(frozen=True)
class NoiseModel:
    """Detector imperfections applied to every round.

    ``background_prob`` is a per-cell false-count probability; the detected
    distribution becomes ``(p_signal + b) / (1 + d b)``.  ``jitter_sigma``
    adds isotropic Gaussian blur to the detected position, in meters.
    ``loss_prob`` discards the detection outright and is applied last, so a
    loss probability of one yields no detections regardless of background.
    """

    background_prob: float = 0.0
    jitter_sigma: float = 0.0
    loss_prob: float = 0.0

    def __post_init__(self) -> None:
        number("background_prob", self.background_prob, "[0, inf)")
        number("jitter_sigma", self.jitter_sigma, "[0, inf)")
        number("loss_prob", self.loss_prob, "[0, 1]")

    def background_weight(self, d: int) -> float:
        """Mixture weight of the uniform background among detections."""
        b = self.background_prob
        return d * b / (1.0 + d * b)


@dataclass(eq=False)
class SessionLog:
    """Column-oriented record of every round.

    Basis columns hold codes indexing ``BASIS_BY_CODE``; character columns
    hold alphabet indices with -1 for no detection.  ``eve_basis`` and
    ``eve_measured`` are only meaningful where ``attacked`` is set.
    """

    labels: tuple[str, ...]
    alice_basis: np.ndarray
    bob_basis: np.ndarray
    sent: np.ndarray
    received: np.ndarray
    attacked: np.ndarray
    eve_basis: np.ndarray
    eve_measured: np.ndarray
    eve_dropped: np.ndarray

    def __len__(self) -> int:
        return self.sent.shape[0]

    def to_csv(self, path) -> None:
        chars = code_fields(self.labels)

        def fields(b: np.ndarray):
            hit = self.attacked[b]
            return (b, _BASIS_FIELDS[self.alice_basis[b]],
                    _BASIS_FIELDS[self.bob_basis[b]],
                    chars[self.sent[b]], chars[self.received[b]],
                    FLAG_FIELDS[hit.view(np.int8)],
                    _BASIS_FIELDS[np.where(hit, self.eve_basis[b], -1)],
                    chars[np.where(hit, self.eve_measured[b], -1)],
                    FLAG_FIELDS[self.eve_dropped[b].view(np.int8)])

        write_csv(path, ("round", "alice_basis", "bob_basis", "sent",
                         "received", "attacked", "eve_basis", "eve_measured",
                         "eve_dropped"), "%d,%s,%s,%s,%s,%s,%s,%s,%s\n",
                  (fields(b) for b in row_blocks(len(self))))


def _measure_batch(rng: np.random.Generator, prep_basis: np.ndarray,
                   prep_idx: np.ndarray, bob_basis: np.ndarray,
                   model: GaussianModel, noise: NoiseModel,
                   present: np.ndarray | None = None) -> np.ndarray:
    """Detected cell index per round, -1 for no detection; the module
    docstring lists the draws."""
    m = prep_idx.shape[0]
    d = model.alphabet.d
    b_noise = rng.standard_normal((m, 2))
    jitter = rng.standard_normal((m, 2))
    bg_u = rng.random(m)
    bg_cell = rng.integers(0, d, m)
    loss_u = rng.random(m)

    beta = noise.background_weight(d)
    decoded = np.empty(m, dtype=np.intp)
    for s, _, idx, inside in model._decode_slices(
            b_noise, prep_basis, prep_idx, bob_basis, noise.jitter_sigma, jitter):
        if present is not None:
            inside &= present[s]
        out = np.where(inside, idx, -1)
        if beta > 0:
            np.copyto(out, bg_cell[s], where=bg_u[s] < beta)
        if noise.loss_prob > 0:
            out[loss_u[s] < noise.loss_prob] = -1
        decoded[s] = out
    return decoded


@dataclass(eq=False)
class ErrorEstimate:
    """Sampled error rates per configuration and character.

    ``per_char[config_label]`` maps each character to its sampled error rate
    (NaN where the character was never sampled in that configuration).
    ``low_confidence`` is set when any character was sampled fewer than
    :data:`MIN_SAMPLES_PER_CHAR` times in some configuration.
    """

    labels: tuple[str, ...]
    per_char: dict[str, np.ndarray]
    counts: dict[str, np.ndarray]
    average: float
    sample_size: int
    low_confidence: bool

    def rate(self, config, label: str) -> float:
        key = config.label if isinstance(config, BasisConfig) else str(config)
        return float(self.per_char[key][self.labels.index(label)])

    def as_dict(self) -> dict:
        def clean(x: float) -> float | None:
            return None if np.isnan(x) else float(x)
        return {
            "average": clean(self.average) if self.sample_size else None,
            "sample_size": self.sample_size,
            "low_confidence": self.low_confidence,
            "per_char": {
                key: {lab: clean(v)
                      for lab, v in zip(self.labels, vec)}
                for key, vec in self.per_char.items()
            },
            "counts": {
                key: {lab: int(c) for lab, c in zip(self.labels, vec)}
                for key, vec in self.counts.items()
            },
        }


def _estimate_from_arrays(rng: np.random.Generator, config_code: np.ndarray,
                          sent: np.ndarray, received: np.ndarray,
                          labels: tuple[str, ...], sample_fraction: float,
                          ) -> tuple[ErrorEstimate, np.ndarray]:
    """Estimate errors on a random sample; return it and the keep mask."""
    d = len(labels)
    ns = sent.shape[0]
    k = min(ns, int(round(sample_fraction * ns))) if ns else 0
    if ns and sample_fraction > 0:
        k = max(k, 1)
    sample = np.zeros(ns, dtype=bool)
    if k:
        chosen = rng.choice(ns, size=k, replace=False)
        sample[chosen] = True

    per_char: dict[str, np.ndarray] = {}
    counts: dict[str, np.ndarray] = {}
    low = k == 0
    wrong_total = 0
    for code, key in ((1, "FF"), (0, "II")):
        mask = sample & (config_code == code)
        n_c = np.bincount(sent[mask], minlength=d)
        w_c = np.bincount(sent[mask & (sent != received)], minlength=d)
        with np.errstate(invalid="ignore"):
            rates = np.where(n_c > 0, w_c / np.maximum(n_c, 1), np.nan)
        per_char[key] = rates
        counts[key] = n_c
        low = low or bool((n_c < MIN_SAMPLES_PER_CHAR).any())
        wrong_total += int(w_c.sum())
    average = wrong_total / k if k else float("nan")
    estimate = ErrorEstimate(labels=labels, per_char=per_char, counts=counts,
                             average=average, sample_size=k,
                             low_confidence=low)
    return estimate, ~sample


def _flatten_mask(tape: np.ndarray, idx: np.ndarray,
                  probs: np.ndarray) -> np.ndarray:
    """Acceptance mask of the rejection step taking ``P`` to uniform."""
    p_min = probs.min()
    return tape < p_min / probs[idx]


@dataclass(eq=False)
class SessionStats:
    """Summary counters and rates of one session."""

    rounds: int
    alphabet_size: int
    seed: int
    strategy: str
    eta: float
    detected: int
    loss_rate: float
    sifted: int
    sifted_fraction: float
    sent_histogram: dict[str, int]
    error: ErrorEstimate
    eve_attacked: int
    eve_dropped: int
    eve_matched: int
    eve_info_bits: float
    key_alice_length: int
    key_bob_length: int
    key_keep_fraction: float
    key_expected_keep: float

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "alphabet_size": self.alphabet_size,
            "seed": self.seed,
            "strategy": self.strategy,
            "eta": self.eta,
            "detected": self.detected,
            "loss_rate": self.loss_rate,
            "sifted": self.sifted,
            "sifted_fraction": self.sifted_fraction,
            "sent_histogram": self.sent_histogram,
            "error": self.error.as_dict(),
            "eve": {
                "attacked": self.eve_attacked,
                "dropped": self.eve_dropped,
                "matched_basis": self.eve_matched,
                "info_bits_per_photon": self.eve_info_bits,
            },
            "key": {
                "alice_length": self.key_alice_length,
                "bob_length": self.key_bob_length,
                "keep_fraction": self.key_keep_fraction,
                "expected_keep_fraction": self.key_expected_keep,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@dataclass(eq=False)
class SessionResult:
    """Everything a session produces.  The error estimate is ``stats.error``;
    ``log``, kept when ``keep_log`` is set, is the one source of the
    attacker's records, on the rounds ``np.flatnonzero(log.attacked)``."""

    stats: SessionStats
    alice_key: list[str]
    bob_key: list[str]
    log: SessionLog | None


def run_session(config: "ExperimentConfig") -> SessionResult:
    """Run a full session described by an experiment configuration.

    Deterministic in the session seed: identical configurations produce
    byte-identical statistics and logs.
    """
    alphabet = config.build_alphabet()
    model = config.build_model(alphabet)
    if config.session.source == "uniform":
        probs = np.full(alphabet.d, 1.0 / alphabet.d)
    else:
        probs = model.source()
    noise = config.noise
    adv = config.adversary
    n = config.session.rounds
    seed = config.session.seed
    d = alphabet.d

    # Each round column is allocated once, typed, and filled batch by batch.
    log = SessionLog(
        labels=alphabet.labels,
        alice_basis=np.empty(n, np.int8), bob_basis=np.empty(n, np.int8),
        sent=np.empty(n, np.int64), received=np.empty(n, np.int64),
        attacked=np.empty(n, bool), eve_basis=np.empty(n, np.int8),
        eve_measured=np.empty(n, np.int64), eve_dropped=np.empty(n, bool))
    for batch_index, start in enumerate(range(0, n, BATCH_SIZE)):
        b = slice(start, min(start + BATCH_SIZE, n))
        m = b.stop - start
        rng = np.random.default_rng([seed, batch_index])
        a_basis = log.alice_basis[b] = rng.integers(0, 2, m).astype(np.int8)
        a_idx = log.sent[b] = rng.choice(d, size=m, p=probs)
        atk = attack_batch(rng, a_basis, a_idx, model, adv)
        log.attacked[b], log.eve_basis[b] = atk.attacked, atk.basis_code
        log.eve_measured[b], log.eve_dropped[b] = atk.measured_idx, atk.dropped
        prep_idx = np.where(atk.attacked, atk.measured_idx, a_idx)
        prep_basis = np.where(atk.attacked, atk.basis_code, a_basis).astype(np.int8)
        b_basis = log.bob_basis[b] = rng.integers(0, 2, m).astype(np.int8)
        log.received[b] = _measure_batch(rng, prep_basis, prep_idx, b_basis,
                                         model, noise,
                                         present=~(atk.attacked & atk.dropped))

    detected = log.received >= 0
    sift_mask = (log.alice_basis == log.bob_basis) & detected
    s_code = log.alice_basis[sift_mask]
    s_sent = log.sent[sift_mask]
    s_recv = log.received[sift_mask]

    est_rng = np.random.default_rng([seed, _ESTIMATE_STREAM])
    estimate, keep = _estimate_from_arrays(
        est_rng, s_code, s_sent, s_recv, alphabet.labels,
        config.session.sample_fraction)
    r_sent = s_sent[keep]
    r_recv = s_recv[keep]

    flat_rng = np.random.default_rng([seed, _FLATTEN_STREAM])
    tape = flat_rng.random(r_sent.shape[0])
    keep_a = _flatten_mask(tape, r_sent, probs)
    keep_b = _flatten_mask(tape, r_recv, probs)
    alice_key = [alphabet.labels[i] for i in r_sent[keep_a]]
    bob_key = [alphabet.labels[i] for i in r_recv[keep_b]]

    attacked = log.attacked
    matched_mask = attacked & (log.eve_basis == log.alice_basis)
    eve_bits = eve_information_estimate(matched_mask[attacked],
                                        log.eve_measured[attacked], d)
    hist = np.bincount(log.sent, minlength=d)
    n_detected = int(detected.sum())
    n_sifted = int(sift_mask.sum())

    stats = SessionStats(
        rounds=n,
        alphabet_size=d,
        seed=seed,
        strategy=adv.strategy,
        eta=adv.eta,
        detected=n_detected,
        loss_rate=1.0 - n_detected / n if n else 0.0,
        sifted=n_sifted,
        sifted_fraction=n_sifted / n_detected if n_detected else 0.0,
        sent_histogram={lab: int(c) for lab, c in zip(alphabet.labels, hist)},
        error=estimate,
        eve_attacked=int(attacked.sum()),
        eve_dropped=int(log.eve_dropped.sum()),
        eve_matched=int(matched_mask.sum()),
        eve_info_bits=eve_bits,
        key_alice_length=len(alice_key),
        key_bob_length=len(bob_key),
        key_keep_fraction=len(alice_key) / r_sent.shape[0] if r_sent.size else 0.0,
        key_expected_keep=float(d * probs.min()),
    )

    return SessionResult(stats=stats, alice_key=alice_key, bob_key=bob_key,
                         log=log if config.session.keep_log else None)
