"""Shannon-information accounting for the two-basis qudit protocol.

Conventions: all entropies and informations are in bits.  ``P`` denotes the
character distribution seen by the legitimate receiver, ``E_k`` the
probability that character ``k`` arrives flipped to some other character.

The mutual-information estimate between the stations models a sifted round
as: character ``k`` is kept intact with probability ``1 - E_k`` and
otherwise lands on ``j != k`` with probability proportional to ``P_j``,

    I_AB = H(P) + sum_k P_k (1 - E_k) log2(1 - E_k)
         + sum_k sum_{j != k} P_k E_k P_j / (1 - P_k)
           * log2(E_k P_j / (1 - P_k)),

which treats the receiver marginal as ``P`` itself.  Errors of the
intercept-resend form ``E_k = c (1 - P_k)`` leave the receiver marginal
equal to ``P``, so for them this closed form is the exact mutual information
of the joint; a flat error rate on a non-flat source makes the two differ.
The exact value is computed only in the tests, as the oracle for
:func:`info_ab`.

An intercept-resend attacker who measures a fraction ``eta`` of the photons
in a random basis guesses right half the time, so her information is
``I_E = (eta / 2) H(P)`` and she causes per-character errors
``E_k = (eta / 2)(1 - P_k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import optimize, special

from ._checks import count, distribution, number

__all__ = [
    "CLONING_ATTACK_ERROR_BOUND",
    "shannon_entropy",
    "info_ab",
    "info_eve",
    "intercept_resend_errors",
    "uniform_intercept_error",
    "security_crossover",
    "CrossoverResult",
    "InfoReport",
    "security_report",
]

#: Error-rate threshold below which a symmetric universal-cloning attack on a
#: 37-character alphabet would beat the stations' mutual information.  Quoted
#: for context only: no linear-optics implementation of that attack is known,
#: so the intercept-resend crossover computed here is the operative benchmark.
CLONING_ATTACK_ERROR_BOUND = 0.42

_LN2 = np.log(2.0)


def shannon_entropy(p) -> float:
    """Entropy of a distribution in bits; zero entries contribute nothing."""
    return _entropy(distribution(p))


def _entropy(p: np.ndarray) -> float:
    return float(-special.xlogy(p, p).sum() / _LN2) + 0.0


def intercept_resend_errors(p, eta: float) -> np.ndarray:
    """Per-character error rates caused by intercepting a fraction ``eta``."""
    p = distribution(p)
    number("eta", eta, "[0, 1]")
    return 0.5 * eta * (1.0 - p)


def uniform_intercept_error(d: int) -> Fraction:
    """Average error of a full intercept on a uniform alphabet of size d.

    Exactly ``(d - 1) / (2 d)``: the attack is noticed half the time on each
    of the ``d - 1`` wrong characters.
    """
    count("d", d, 1)
    return Fraction(d - 1, 2 * d)


def _broadcast_errors(p: np.ndarray, errors) -> np.ndarray:
    e = np.asarray(errors, dtype=np.float64)
    if e.ndim == 0:
        e = np.full_like(p, float(e))
    if e.shape != p.shape:
        raise ValueError(f"errors shape {e.shape} does not match {p.shape}")
    if np.any(e < 0) or np.any(e >= 1.0):
        raise ValueError("error rates must lie in [0, 1)")
    return e


def info_ab(p, errors) -> float:
    """Station-to-station information in bits for given per-character errors.

    ``errors`` may be a scalar or one rate per character.  Requires every
    ``P_k`` below 1 so the error redistribution is well defined.
    """
    p = distribution(p)
    return _info_ab(p, _broadcast_errors(p, errors), _entropy(p))


def _info_ab(p: np.ndarray, e: np.ndarray, entropy: float) -> float:
    """:func:`info_ab` on a checked distribution of the given entropy."""
    if p.size > 1 and np.any(p >= 1.0):
        raise ValueError("degenerate distribution with a certain character")
    keep = (p * special.xlogy(1.0 - e, 1.0 - e)).sum() / _LN2
    if p.size == 1:
        return float(entropy + keep)
    ratio = np.outer(e / (1.0 - p), p)
    np.fill_diagonal(ratio, 0.0)
    weight = p[:, None] * ratio
    flip = special.xlogy(weight, ratio).sum() / _LN2
    return float(entropy + keep + flip)


def info_eve(p, eta: float) -> float:
    """Intercept-resend eavesdropper information, ``(eta / 2) H(P)`` bits."""
    p = distribution(p)
    number("eta", eta, "[0, 1]")
    return 0.5 * eta * _entropy(p)


@dataclass(frozen=True)
class CrossoverResult:
    """Intercept fraction at which the eavesdropper draws level.

    ``eta_star`` is None when the stations keep the information advantage for
    every intercept fraction up to one.
    """

    eta_star: float | None
    average_error: float | None
    common_information: float | None
    secure_for_all_eta: bool

    def as_dict(self) -> dict:
        return {
            "eta_star": self.eta_star,
            "average_error": self.average_error,
            "common_information_bits": self.common_information,
            "secure_for_all_eta": self.secure_for_all_eta,
        }


def security_crossover(p, xtol: float = 1e-6) -> CrossoverResult:
    """Solve ``I_AB(eta) = I_E(eta)`` for the intercept fraction.

    Uses a bracketing root solver on [0, 1] with the given tolerance in
    ``eta``; the result does not depend on a starting guess.  Below the
    crossover the stations hold more information than the attacker.
    """
    p = distribution(p)
    entropy = _entropy(p)

    def gap(eta: float) -> float:
        _, ab, eve = _balance(p, eta, entropy)
        return ab - eve

    if gap(1.0) >= 0.0:
        return CrossoverResult(None, None, None, True)
    eta_star = float(optimize.brentq(gap, 1e-12, 1.0, xtol=xtol))
    errors, _, eve = _balance(p, eta_star, entropy)
    return CrossoverResult(
        eta_star=eta_star,
        average_error=float(np.dot(p, errors)),
        common_information=eve,
        secure_for_all_eta=False,
    )


def _balance(p: np.ndarray, eta: float,
             entropy: float) -> tuple[np.ndarray, float, float]:
    """Intercept-resend errors, ``I_AB`` and ``I_E`` at one intercept
    fraction, on a checked source of the given entropy."""
    errors = 0.5 * eta * (1.0 - p)
    return errors, _info_ab(p, errors, entropy), 0.5 * eta * entropy


@dataclass(frozen=True)
class InfoReport:
    """Information budget of one operating point."""

    eta: float
    average_error: float
    info_ab: float
    info_eve: float
    secure: bool

    def as_dict(self) -> dict:
        return {
            "eta": self.eta,
            "average_error": self.average_error,
            "info_ab_bits": self.info_ab,
            "info_eve_bits": self.info_eve,
            "secure": self.secure,
        }


def security_report(p, eta: float) -> InfoReport:
    """Evaluate both sides of the information balance at one intercept level."""
    p = distribution(p)
    number("eta", eta, "[0, 1]")
    errors, ab, eve = _balance(p, eta, _entropy(p))
    return InfoReport(
        eta=float(eta),
        average_error=float(np.dot(p, errors)),
        info_ab=ab,
        info_eve=eve,
        secure=bool(ab > eve),
    )
