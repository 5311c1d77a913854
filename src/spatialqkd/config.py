"""Experiment configuration: defaults, JSON round-trip, cross-validation.

A configuration is a nested set of frozen parameter blocks.  Construction
checks each field's range, from Python and from JSON alike; only what draws
on the sample grid calls :meth:`ExperimentConfig.validate`, which checks the
grid against the alphabet and reports every violation at once.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from ._checks import count, number
from .adversary import AdversarySpec
from .alphabet import HexAlphabet, build_hex_alphabet
from .model import GaussianModel
from .optics import Geometry
from .protocol import NoiseModel

__all__ = [
    "ConfigError",
    "AlphabetParams",
    "SessionParams",
    "ExperimentConfig",
]


class ConfigError(ValueError):
    """Raised for out-of-range or mutually inconsistent parameters."""


@dataclass(frozen=True)
class AlphabetParams:
    """Ring count and cell size of the hexagonal alphabet."""

    rings: int = 3
    cell_radius: float = 200e-6

    def __post_init__(self) -> None:
        count("rings", self.rings, 0, ConfigError)
        number("cell_radius", self.cell_radius, "(0, inf)", ConfigError)


@dataclass(frozen=True)
class SessionParams:
    """Round count, seeding and classical post-processing choices."""

    rounds: int = 100_000
    seed: int = 1
    sample_fraction: float = 0.1
    keep_log: bool = True

    def __post_init__(self) -> None:
        count("rounds", self.rounds, 0, ConfigError)
        count("seed", self.seed, 0, ConfigError)
        number("sample_fraction", self.sample_fraction, "(0, 1]", ConfigError)
        if type(self.keep_log) is not bool:
            raise ConfigError(f"keep_log must be a boolean, "
                              f"got {self.keep_log!r}")


_SECTIONS = {
    "geometry": Geometry,
    "alphabet": AlphabetParams,
    "noise": NoiseModel,
    "adversary": AdversarySpec,
    "session": SessionParams,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one simulated experiment."""

    geometry: Geometry = field(default_factory=Geometry)
    alphabet: AlphabetParams = field(default_factory=AlphabetParams)
    noise: NoiseModel = field(default_factory=NoiseModel)
    adversary: AdversarySpec = field(default_factory=AdversarySpec)
    session: SessionParams = field(default_factory=SessionParams)
    envelope_waist: float | None = None

    def __post_init__(self) -> None:
        if self.envelope_waist is not None:
            number("envelope_waist", self.envelope_waist, "(0, inf)",
                   ConfigError)

    def validate(self) -> None:
        """Check the grid against the alphabet; raise with every problem found."""
        problems: list[str] = []
        geom = self.geometry
        step = 2.0 * geom.grid_extent / geom.grid_samples
        cell_span = self.alphabet.cell_radius * np.sqrt(3.0)
        if cell_span / step < 15.0:
            problems.append(
                f"grid step {step:.3e} m resolves a cell of width "
                f"{cell_span:.3e} m with fewer than 15 samples; raise "
                f"grid_samples or shrink grid_extent")
        if geom.aperture_waist / step < 4.0:
            problems.append(
                f"aperture waist {geom.aperture_waist:.3e} m spans fewer than "
                f"4 grid steps of {step:.3e} m")
        alphabet = self.build_alphabet()
        waist = self.resolve_envelope_waist(alphabet)
        if alphabet.envelope_radius + waist > geom.grid_extent:
            problems.append(
                f"cell pattern radius {alphabet.envelope_radius:.3e} m plus "
                f"envelope waist {waist:.3e} m exceeds the grid half-extent "
                f"{geom.grid_extent:.3e} m")
        if problems:
            raise ConfigError("; ".join(problems))

    def resolve_envelope_waist(self, alphabet: HexAlphabet | None = None) -> float:
        """The envelope waist the model uses: ``envelope_waist`` if set,
        else the one calibrated for the alphabet."""
        return self.build_model(alphabet).envelope_waist

    def build_alphabet(self) -> HexAlphabet:
        return build_hex_alphabet(self.alphabet.rings, self.alphabet.cell_radius)

    def build_model(self, alphabet: HexAlphabet | None = None) -> GaussianModel:
        alphabet = alphabet or self.build_alphabet()
        return GaussianModel(alphabet=alphabet, geometry=self.geometry,
                             envelope_waist=self.envelope_waist)

    def to_dict(self) -> dict:
        data = {name: asdict(getattr(self, name)) for name in _SECTIONS}
        data["envelope_waist"] = self.envelope_waist
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = set(_SECTIONS) | {"envelope_waist"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown configuration sections: "
                              f"{', '.join(sorted(unknown))}")
        kwargs = {}
        for name, section_cls in _SECTIONS.items():
            section = data.get(name, {})
            if not isinstance(section, dict):
                raise ConfigError(f"section {name!r} must be an object")
            bad = set(section) - {f.name for f in fields(section_cls)}
            if bad:
                raise ConfigError(
                    f"unknown keys in section {name!r}: {', '.join(sorted(bad))}")
            try:
                kwargs[name] = section_cls(**section)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"invalid section {name!r}: {exc}") from exc
        return cls(**kwargs, envelope_waist=data.get("envelope_waist"))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a JSON object")
        return cls.from_dict(data)

    def save(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ExperimentConfig":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_json(fh.read())

    def override(self, **kwargs) -> "ExperimentConfig":
        """Return a copy with session/adversary scalars replaced.

        Accepts any ``SessionParams`` or ``AdversarySpec`` field, such as
        ``rounds``, ``seed``, ``eta`` or ``strategy``, for command-line
        overrides; a ``None`` value leaves its field as it is.
        """
        session = {f.name for f in fields(SessionParams)}
        adversary = {f.name for f in fields(AdversarySpec)}
        unknown = set(kwargs) - session - adversary
        if unknown:
            raise ConfigError(f"unknown overrides: {', '.join(sorted(unknown))}")
        given = {k: v for k, v in kwargs.items() if v is not None}
        try:
            return replace(self, session=replace(
                self.session, **{k: given[k] for k in session & set(given)}),
                adversary=replace(self.adversary, **{
                    k: given[k] for k in adversary & set(given)}))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
