"""Intercept-resend eavesdropping strategies.

The attacker taps a fraction ``eta`` of the photons.  For each tapped photon
she picks a basis at random, measures the continuous detection-plane
position behind her own decoder, bins it to the nearest cell and re-prepares
the aperture state at that cell in her basis.  Her decoder has no dead
regions: any position maps to some character, which is the strongest form of
the attack.

The evidence-suppression variant additionally discards photons whose
position is incompatible with her basis having matched the sender's: the
position carries essentially no matched-basis intensity while still lying
under the crossed-basis envelope.  On an alphabet without one-sided support
regions this gains her nothing, because every position that decodes to a
character also carries matched-basis intensity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._checks import number
from ._csv import FLAG_FIELDS, code_fields, row_blocks, write_csv
from .optics import BASIS_BY_CODE

if TYPE_CHECKING:
    from .model import GaussianModel

__all__ = [
    "STRATEGIES",
    "AdversarySpec",
    "AttackArrays",
    "evidence_scores",
    "attack_batch",
    "eve_information_estimate",
    "eve_log_to_csv",
]

STRATEGIES = ("none", "intercept_resend", "suppress_on_evidence")

#: CSV field per basis code, with the empty field at code -1.
_BASIS_FIELDS = code_fields(b.value for b in BASIS_BY_CODE)


@dataclass(frozen=True)
class AdversarySpec:
    """Attack strategy, tapped fraction and evidence threshold."""

    strategy: str = "none"
    eta: float = 0.0
    evidence_threshold: float = 1e-4

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        number("eta", self.eta, "[0, 1]")
        number("evidence_threshold", self.evidence_threshold, "[0, inf)")

    @property
    def active(self) -> bool:
        return self.strategy != "none" and self.eta > 0.0


@dataclass(eq=False)
class AttackArrays:
    """Vectorized attack outcome for one batch of rounds.

    ``basis_code`` and ``measured_idx`` are defined only where ``attacked``
    is True; re-preparation is suppressed where ``dropped`` is True.
    """

    attacked: np.ndarray
    basis_code: np.ndarray
    measured_idx: np.ndarray
    dropped: np.ndarray


def evidence_scores(positions: np.ndarray,
                    model: "GaussianModel") -> tuple[np.ndarray, np.ndarray]:
    """Per-cell-sized likelihood scores of the two basis hypotheses.

    For each position returns ``(same, crossed)``: the peak matched-basis
    density over all characters and the envelope density, both multiplied by
    the cell area so that a score of order one means a comfortable detection
    probability.  Positions are taken in the decoded (logical) plane.
    """
    pts = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    idx, _ = model.alphabet.nearest_cell(pts)
    return _scores(pts, idx, model)


def _scores(pts: np.ndarray, nearest: np.ndarray,
            model: "GaussianModel") -> tuple[np.ndarray, np.ndarray]:
    """Evidence scores of positions whose nearest cells are already decoded."""
    dmin2 = np.sum((pts - model.alphabet.centers[nearest]) ** 2, axis=1)
    area = model.alphabet.cell_area
    sig_ap = model.aperture_waist / 2.0
    sig_env = model.envelope_waist / 2.0
    same = area * np.exp(-0.5 * dmin2 / sig_ap ** 2) / (2.0 * np.pi * sig_ap ** 2)
    rsq = np.sum(pts ** 2, axis=1)
    crossed = area * np.exp(-0.5 * rsq / sig_env ** 2) / (2.0 * np.pi * sig_env ** 2)
    return same, crossed


def attack_batch(rng: np.random.Generator, alice_basis: np.ndarray,
                 alice_idx: np.ndarray, model: "GaussianModel",
                 spec: AdversarySpec) -> AttackArrays:
    """Apply the attack to a batch of prepared photons.

    Consumes the same random draws for both active strategies, so a
    suppression threshold of zero reproduces plain intercept-resend round for
    round.  The draw order is documented in ``GaussianModel.sample_plane``.
    """
    m = alice_idx.shape[0]
    if not spec.active:
        return AttackArrays(
            attacked=np.zeros(m, dtype=bool),
            basis_code=np.zeros(m, dtype=np.int8),
            measured_idx=np.full(m, -1, dtype=np.int64),
            dropped=np.zeros(m, dtype=bool),
        )
    attacked = rng.random(m) < spec.eta
    basis_code = rng.integers(0, 2, m).astype(np.int8)
    noise = rng.standard_normal((m, 2))

    logical = model.sample_plane(noise, alice_basis, alice_idx, basis_code)
    measured_idx, _ = model.alphabet.nearest_cell(logical)
    dropped = np.zeros(m, dtype=bool)
    if spec.strategy == "suppress_on_evidence" and spec.evidence_threshold > 0:
        same, crossed = _scores(logical, measured_idx, model)
        eps = spec.evidence_threshold
        dropped = attacked & (same < eps) & (crossed >= eps)
    return AttackArrays(attacked=attacked, basis_code=basis_code,
                        measured_idx=measured_idx, dropped=dropped)


def eve_information_estimate(matched: np.ndarray, measured_idx: np.ndarray,
                             d: int) -> float:
    """Empirical attacker information per tapped photon, in bits.

    Only rounds where her basis matched the sender's yield usable records;
    the estimate is the matched fraction times the empirical entropy of her
    readouts on those rounds.
    """
    matched = np.asarray(matched, dtype=bool)
    n = matched.shape[0]
    if n == 0:
        return 0.0
    hits = np.asarray(measured_idx)[matched]
    if hits.size == 0:
        return 0.0
    counts = np.bincount(hits, minlength=d).astype(np.float64)
    freq = counts[counts > 0] / hits.size
    entropy = float(-(freq * np.log2(freq)).sum())
    return hits.size / n * entropy


def eve_log_to_csv(path, round_index: np.ndarray, basis_code: np.ndarray,
                   measured_idx: np.ndarray, dropped: np.ndarray,
                   labels: tuple[str, ...]) -> None:
    """Write the attacker's records: round, basis, measured char, dropped
    (a boolean mask); row ``i`` of every column is round ``round_index[i]``."""
    chars = code_fields(labels)
    write_csv(path, ("round", "basis", "measured_char", "dropped"),
              "%d,%s,%s,%s\n",
              ((round_index[b], _BASIS_FIELDS[basis_code[b]],
                chars[measured_idx[b]], FLAG_FIELDS[dropped[b].view(np.int8)])
               for b in row_blocks(round_index.shape[0])))
