"""Session engine for the two-basis character protocol.

One round: the sender draws a basis and a character, prepares the displaced
aperture state, and the receiver measures behind a random decoder arm.
Rounds with matching bases and a detection survive sifting; a random sample
of the sifted pairs is spent on error estimation and the rest is flattened
to a uniform key.

The engine is vectorized and streams the rounds in chunks of
:data:`STREAM_CHUNK`.  Chunk ``b`` of a session with seed ``s`` draws from
the generator seeded with ``[s, b]``, so transcripts are reproducible bit
for bit, but only because :data:`STREAM_CHUNK` is a fixed constant.
:func:`_chunk_draws` is the draw-order contract.  A chunk of ``m`` rounds
makes these draws, in this order and at full size: the sender's bases,
``integers(0, 2, m)``, and characters, ``random(m)`` mapped through the
normalised cumulative distribution of ``P`` with ties to the right (the
values ``Generator.choice(d, m, p=P)`` returns); under an active attack
only, the taps (``random(m)`` below ``eta``), the attacker's bases,
``integers(0, 2, m)``, and her position noise, ``standard_normal((m, 2))``;
the receiver's bases, ``integers(0, 2, m)``; his position noise and jitter,
two ``standard_normal((m, 2))``; background (``random(m)`` below the
background weight), its cell, ``integers(0, d, m)``, and loss (``random(m)``
below ``loss_prob``).  The generator is then discarded, so the trailing
draws no round reads (loss, background and jitter while they and all later
ones are zero) are left out.  With two or more chunks, one helper thread
makes chunk ``b + 1``'s draws while the calling thread runs chunk ``b``;
every other step, chunk 0's draws included, stays on the calling thread.
The per-round arithmetic runs over private compute slices that keep
temporaries in cache, and their size is free to tune.  Error estimation and
key flattening draw from their own fixed substreams.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from ._checks import distribution, number
from ._csv import FLAG_FIELDS, code_fields, row_slices, write_csv
from .adversary import _BASIS_FIELDS, attack_batch, eve_information_estimate
from .model import GaussianModel

if TYPE_CHECKING:
    from .config import ExperimentConfig

__all__ = [
    "STREAM_CHUNK",
    "MIN_SAMPLES_PER_CHAR",
    "NoiseModel",
    "SessionLog",
    "ErrorEstimate",
    "SessionStats",
    "SessionResult",
    "run_session",
]

STREAM_CHUNK = 1 << 16

#: Sampled pairs per character and configuration below which the error
#: estimate is flagged as low confidence.
MIN_SAMPLES_PER_CHAR = 30

#: Most compare-and-step passes the character draw's guide table may take
#: before :class:`_CharSampler` binary-searches instead.  A pass costs about
#: 0.14 ms per chunk against 0.8 to 5.6 ms for the search (d = 1 to 1261,
#: 2-core Xeon).
_GUIDE_STEPS = 4

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

        def fields(s: slice):
            hit = self.attacked[s]
            return (np.arange(s.start, s.stop),
                    _BASIS_FIELDS[self.alice_basis[s]],
                    _BASIS_FIELDS[self.bob_basis[s]],
                    chars[self.sent[s]], chars[self.received[s]],
                    FLAG_FIELDS[hit.view(np.int8)],
                    _BASIS_FIELDS[np.where(hit, self.eve_basis[s], -1)],
                    chars[np.where(hit, self.eve_measured[s], -1)],
                    FLAG_FIELDS[self.eve_dropped[s].view(np.int8)])

        write_csv(path, ("round", "alice_basis", "bob_basis", "sent",
                         "received", "attacked", "eve_basis", "eve_measured",
                         "eve_dropped"), "%d,%s,%s,%s,%s,%s,%s,%s,%s\n",
                  (fields(s) for s in row_slices(len(self))))


class _CharSampler:
    """The sender's character draw: ``random(m)`` mapped through the
    normalised CDF of ``P`` with ties to the right, the values
    ``Generator.choice(d, m, p=P)`` returns, by the guide table (indexed
    search) of Chen and Asau, AIIE Transactions 6, 163 (1974).

    [0, 1) is split into ``G = buckets`` buckets, a power of two of at
    least ``8 d``, so ``u * G`` and each edge ``b / G`` are exact.  A ``u``
    in bucket ``b = floor(u * G)`` has its answer in ``[lo[b], hi[b]]``,
    the answers at the bucket's ends, and ``steps`` passes of
    ``k += cdf[k] <= u`` carry ``lo[b]`` to it.  When some bucket spans
    more than :data:`_GUIDE_STEPS` CDF entries the passes would cost more
    than a binary search, so the sampler searches the CDF instead.
    """

    def __init__(self, probs: np.ndarray):
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        self.cdf = cdf
        self.buckets = g = 1 << (8 * cdf.size - 1).bit_length()
        edges = np.arange(g + 1) / g
        lo = cdf.searchsorted(edges[:-1], side="right")
        hi = cdf.searchsorted(np.nextafter(edges[1:], 0.0), side="right")
        self.steps = int((hi - lo).max())
        self.lo = lo if self.steps <= _GUIDE_STEPS else None

    def __call__(self, rng: np.random.Generator, m: int) -> np.ndarray:
        u = rng.random(m)
        if self.lo is None:
            return self.cdf.searchsorted(u, side="right")
        k = self.lo.take((u * self.buckets).astype(np.intp))
        for _ in range(self.steps):
            k += self.cdf.take(k) <= u
        return k


def _chunk_draws(seed: int, n: int, chars: _CharSampler, active: bool,
                 noise: NoiseModel, chunk: int):
    """Chunk ``chunk``'s generator calls, in order: ``(alice_basis, sent,
    attack, bob_basis, measure)``; ``attack`` is None without an attack, and
    so are the unread trailing ``measure`` draws."""
    m = min(STREAM_CHUNK, n - chunk * STREAM_CHUNK)
    rng = np.random.default_rng([seed, chunk])
    alice_basis = rng.integers(0, 2, m).astype(np.int8)
    sent = chars(rng, m)
    attack = ((rng.random(m), rng.integers(0, 2, m).astype(np.int8),
               rng.standard_normal((m, 2))) if active else None)
    bob_basis = rng.integers(0, 2, m).astype(np.int8)
    jitter, background, loss = (x > 0 for x in (
        noise.jitter_sigma, noise.background_prob, noise.loss_prob))
    measure = [rng.standard_normal((m, 2)), None, None, None, None]
    if jitter or background or loss:
        measure[1] = rng.standard_normal((m, 2))
    if background or loss:
        measure[2:4] = rng.random(m), rng.integers(0, chars.cdf.size, m)
    if loss:
        measure[4] = rng.random(m)
    return alice_basis, sent, attack, bob_basis, measure


def _measure_batch(draws, prep_basis: np.ndarray, prep_idx: np.ndarray,
                   bob_basis: np.ndarray, model: GaussianModel,
                   noise: NoiseModel,
                   present: np.ndarray | None = None) -> np.ndarray:
    """Detected cell index per round, -1 for no detection.  ``draws`` are
    the receiver's position noise, jitter, background uniforms and cells and
    loss uniforms of :func:`_chunk_draws`; only those ``noise`` uses are
    read."""
    b_noise, jitter, bg_u, bg_cell, loss_u = draws
    beta = noise.background_weight(model.alphabet.d)
    decoded = np.empty(prep_idx.shape[0], dtype=np.intp)
    for s, _, idx, inside in model._decode_slices(
            b_noise, prep_basis, prep_idx, bob_basis, noise.jitter_sigma, jitter):
        if present is not None:
            inside &= present[s]
        out = np.where(inside, idx, -1)
        if beta > 0:
            np.copyto(out, bg_cell[s], where=bg_u[s] < beta)
        if noise.loss_prob > 0:
            np.copyto(out, -1, where=loss_u[s] < noise.loss_prob)
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
    wrong = sent != received
    for code, key in ((1, "FF"), (0, "II")):
        mask = sample & (config_code == code)
        n_c = np.bincount(sent.take(np.flatnonzero(mask)), minlength=d)
        mask &= wrong
        w_c = np.bincount(sent.take(np.flatnonzero(mask)), minlength=d)
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
    attacker's records, on the rounds ``np.flatnonzero(log.attacked)``.
    Without it the session keeps only each chunk's sifted rows and counts,
    so no per-round column outlives its chunk."""

    stats: SessionStats
    alice_key: list[str]
    bob_key: list[str]
    log: SessionLog | None


def _stream(config: "ExperimentConfig", model: GaussianModel,
            probs: np.ndarray, log: SessionLog | None):
    """Run every chunk, filling ``log`` if given; return the sifted (basis
    code, sent, received) rows, the detected, sifted, attacked, dropped and
    matched counts, and the sent and matched-readout histograms."""
    adv, noise, n = config.adversary, config.noise, config.session.rounds
    d = probs.size
    # Sifted rows, appended chunk by chunk: the pages past the last one
    # written are never touched.
    rows = (np.empty(n, np.int8), np.empty(n, np.int64), np.empty(n, np.int64))
    counts = np.zeros(5, np.int64)
    hist, eve_hist = np.zeros(d, np.int64), np.zeros(d, np.int64)
    chunks = -(-n // STREAM_CHUNK)
    draw = partial(_chunk_draws, config.session.seed, n,
                   _CharSampler(probs) if chunks else None, adv.active, noise)
    # The pool starts its thread at the first submit: chunk 1's draws, made
    # next to chunk 0's on this thread.  Then chunk b + 1 is drawn there
    # while this thread runs chunk b.  It stays because it pays: a serial
    # chunk loop raised the benchmark's session_small op_s_p50 from 0.0749
    # to 0.0974 s on a 2-core Xeon, medians of 6 alternating pairs of runs,
    # slower in 5.
    with ThreadPoolExecutor(1) as pool:
        ahead = None
        for b in range(chunks):
            current, ahead = ahead, (pool.submit(draw, b + 1)
                                     if b + 1 < chunks else None)
            a_basis, sent, attack, b_basis, measure = (
                current.result() if current else draw(b))
            atk = attack_batch(attack, a_basis, sent, model, adv)
            prep_idx = np.where(atk.attacked, atk.measured_idx, sent)
            prep_basis = np.where(atk.attacked, atk.basis_code, a_basis)
            received = _measure_batch(measure, prep_basis, prep_idx, b_basis,
                                      model, noise,
                                      present=~(atk.attacked & atk.dropped))
            if log is not None:
                c = slice(b * STREAM_CHUNK, b * STREAM_CHUNK + sent.shape[0])
                log.alice_basis[c], log.bob_basis[c] = a_basis, b_basis
                log.sent[c], log.received[c] = sent, received
                log.attacked[c], log.eve_basis[c] = atk.attacked, atk.basis_code
                log.eve_measured[c], log.eve_dropped[c] = atk.measured_idx, atk.dropped

            detected = received >= 0
            sift = np.flatnonzero((a_basis == b_basis) & detected)
            at, k = counts[1], sift.size
            for row, column in zip(rows, (a_basis, sent, received)):
                column.take(sift, out=row[at:at + k])
            counts[:2] += np.count_nonzero(detected), k
            hist += np.bincount(sent, minlength=d)
            if adv.active:
                matched = atk.attacked & (atk.basis_code == a_basis)
                counts[2:] += [np.count_nonzero(x) for x in
                               (atk.attacked, atk.dropped, matched)]
                eve_hist += np.bincount(
                    atk.measured_idx.take(np.flatnonzero(matched)), minlength=d)
    return tuple(row[:counts[1]] for row in rows), counts.tolist(), hist, eve_hist


def run_session(config: "ExperimentConfig") -> SessionResult:
    """Run a full session described by an experiment configuration.

    Deterministic in the session seed: identical configurations produce
    byte-identical statistics and logs.
    """
    alphabet = config.build_alphabet()
    model = config.build_model(alphabet)
    # The character draw trusts P, so it is checked here, before any draw.
    probs = distribution(model.source())
    adv = config.adversary
    n = config.session.rounds
    seed = config.session.seed
    d = alphabet.d

    log = SessionLog(
        labels=alphabet.labels,
        alice_basis=np.empty(n, np.int8), bob_basis=np.empty(n, np.int8),
        sent=np.empty(n, np.int64), received=np.empty(n, np.int64),
        attacked=np.empty(n, bool), eve_basis=np.empty(n, np.int8),
        eve_measured=np.empty(n, np.int64), eve_dropped=np.empty(n, bool),
    ) if config.session.keep_log else None
    (s_code, s_sent, s_recv), counts, hist, eve_hist = _stream(
        config, model, probs, log)
    n_detected, n_sifted, n_attacked, n_dropped, n_matched = counts

    est_rng = np.random.default_rng([seed, _ESTIMATE_STREAM])
    estimate, keep = _estimate_from_arrays(
        est_rng, s_code, s_sent, s_recv, alphabet.labels,
        config.session.sample_fraction)
    keep = np.flatnonzero(keep)
    r_sent, r_recv = s_sent.take(keep), s_recv.take(keep)

    flat_rng = np.random.default_rng([seed, _FLATTEN_STREAM])
    tape = flat_rng.random(r_sent.shape[0])
    keep_a = _flatten_mask(tape, r_sent, probs)
    keep_b = _flatten_mask(tape, r_recv, probs)
    symbols = np.array(alphabet.labels, dtype=object)
    alice_key = symbols.take(r_sent.take(np.flatnonzero(keep_a))).tolist()
    bob_key = symbols.take(r_recv.take(np.flatnonzero(keep_b))).tolist()

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
        eve_attacked=n_attacked,
        eve_dropped=n_dropped,
        eve_matched=n_matched,
        eve_info_bits=eve_information_estimate(eve_hist, n_attacked),
        key_alice_length=len(alice_key),
        key_bob_length=len(bob_key),
        key_keep_fraction=len(alice_key) / r_sent.shape[0] if r_sent.size else 0.0,
        key_expected_keep=float(d * probs.min()),
    )

    return SessionResult(stats=stats, alice_key=alice_key, bob_key=bob_key,
                         log=log)
