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
        if self.eta > 0.0 and self.strategy == "none":
            raise ValueError(f"eta {self.eta:g} needs an attack strategy")

    @property
    def active(self) -> bool:
        return self.eta > 0.0


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


def evidence_scores(positions: np.ndarray, nearest: np.ndarray,
                    model: "GaussianModel") -> tuple[np.ndarray, np.ndarray]:
    """Per-cell-sized likelihood scores of the two basis hypotheses.

    For each position, given in the decoded (logical) plane, and the index
    of its nearest cell returns ``(same, crossed)``: the matched-basis
    density of that cell's Gaussian, which is the peak over all characters,
    and the envelope density, both multiplied by the cell area so that a
    score of order one means a comfortable detection probability.
    """
    rel = positions - model.alphabet.centers.take(nearest, axis=0)
    dmin2 = rel[:, 0] ** 2 + rel[:, 1] ** 2
    area = model.alphabet.cell_area
    sig_ap = model.aperture_waist / 2.0
    sig_env = model.envelope_waist / 2.0
    same = area * np.exp(-0.5 * dmin2 / sig_ap ** 2) / (2.0 * np.pi * sig_ap ** 2)
    rsq = positions[:, 0] ** 2 + positions[:, 1] ** 2
    crossed = area * np.exp(-0.5 * rsq / sig_env ** 2) / (2.0 * np.pi * sig_env ** 2)
    return same, crossed


def attack_batch(draws, alice_basis: np.ndarray, alice_idx: np.ndarray,
                 model: "GaussianModel", spec: AdversarySpec) -> AttackArrays:
    """Apply the attack to a batch of prepared photons.

    ``draws`` are the taps' uniforms, the attacker's basis codes and her
    (m, 2) position noise, made as the :mod:`spatialqkd.protocol` docstring
    lists; they are not read, and may be ``None``, when the attack is
    inactive.  Both active strategies read the same draws, so a suppression
    threshold of zero reproduces plain intercept-resend round for round.
    """
    m = alice_idx.shape[0]
    if not spec.active:
        return AttackArrays(
            attacked=np.zeros(m, dtype=bool),
            basis_code=np.zeros(m, dtype=np.int8),
            measured_idx=np.full(m, -1, dtype=np.int64),
            dropped=np.zeros(m, dtype=bool),
        )
    tap, basis_code, noise = draws
    attacked = tap < spec.eta

    measured_idx = np.empty(m, dtype=np.intp)
    dropped = np.zeros(m, dtype=bool)
    eps = spec.evidence_threshold
    suppress = spec.strategy == "suppress_on_evidence" and eps > 0
    for s, logical, nearest, _ in model._decode_slices(
            noise, alice_basis, alice_idx, basis_code):
        measured_idx[s] = nearest
        if suppress:
            same, crossed = evidence_scores(logical, nearest, model)
            dropped[s] = attacked[s] & (same < eps) & (crossed >= eps)
    return AttackArrays(attacked=attacked, basis_code=basis_code,
                        measured_idx=measured_idx, dropped=dropped)


def eve_information_estimate(readouts: np.ndarray, attacked: int) -> float:
    """Empirical attacker information per tapped photon, in bits.

    Only rounds where her basis matched the sender's yield usable records.
    ``readouts`` is the histogram of her readouts on those rounds, one count
    per character, and ``attacked`` the number of tapped photons; the
    estimate is the matched fraction times the histogram's entropy.
    """
    counts = np.asarray(readouts, dtype=np.float64)
    hits = counts.sum()
    if attacked == 0 or hits == 0:
        return 0.0
    freq = counts[counts > 0] / hits
    entropy = float(-(freq * np.log2(freq)).sum())
    return float(hits / attacked * entropy)


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
