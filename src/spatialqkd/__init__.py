"""Desk-scale simulator for two-basis key distribution with spatial qudits.

Single photons carry one of ``d`` characters in the transverse position of
an aperture mode; sender and receiver each choose between an imaging and a
Fourier decoder arm.  The package models the optics, the hexagonal
detection alphabet, the protocol session with detector noise, an
intercept-resend attacker, and the Shannon-information security balance.
"""

from .adversary import AdversarySpec
from .alphabet import (HexAlphabet, ProbabilityMap, build_hex_alphabet,
                       build_packed_alphabet, calibrate_envelope, leakage_check,
                       prune_alphabet)
from .config import AlphabetParams, ConfigError, ExperimentConfig, SessionParams
from .infotheory import (CLONING_ATTACK_ERROR_BOUND, info_ab, info_eve,
                         security_crossover, security_report, shannon_entropy,
                         uniform_intercept_error)
from .model import GaussianModel
from .optics import ALL_CONFIGS, Basis, BasisConfig, Geometry, GeometryError
from .protocol import ErrorEstimate, NoiseModel, SessionStats, run_session

__version__ = "0.1.0"

__all__ = [
    "ALL_CONFIGS", "AdversarySpec", "AlphabetParams", "Basis", "BasisConfig",
    "CLONING_ATTACK_ERROR_BOUND", "ConfigError", "ErrorEstimate",
    "ExperimentConfig", "GaussianModel", "Geometry", "GeometryError",
    "HexAlphabet", "NoiseModel", "ProbabilityMap", "SessionParams",
    "SessionStats", "build_hex_alphabet", "build_packed_alphabet",
    "calibrate_envelope", "info_ab", "info_eve", "leakage_check",
    "prune_alphabet", "run_session", "security_crossover", "security_report",
    "shannon_entropy", "uniform_intercept_error",
]
