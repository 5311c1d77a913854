"""Experiment configuration: defaults, JSON round-trip, cross-validation.

A configuration is a nested set of frozen parameter blocks.  Construction
validates each block's own ranges; :meth:`ExperimentConfig.validate` checks
the blocks against each other (grid resolution versus cell size, envelope
versus grid extent) and reports every violation at once.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .adversary import AdversarySpec
from .alphabet import HexAlphabet, build_hex_alphabet, calibrate_envelope
from .model import GaussianModel
from .optics import Geometry, GeometryError
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
        # Not isinstance: bool is an int subclass, and True is no count.
        if type(self.rings) is not int or self.rings < 0:
            raise ConfigError(f"rings must be a non-negative integer, "
                              f"got {self.rings!r}")
        if isinstance(self.cell_radius, bool) or not (
                self.cell_radius > 0 and np.isfinite(self.cell_radius)):
            raise ConfigError(
                f"cell_radius must be positive, got {self.cell_radius!r}")


@dataclass(frozen=True)
class SessionParams:
    """Round count, seeding and classical post-processing choices."""

    rounds: int = 100_000
    seed: int = 1
    sample_fraction: float = 0.1
    source: str = "model"
    keep_log: bool = True

    def __post_init__(self) -> None:
        for name in ("rounds", "seed"):
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                raise ConfigError(f"{name} must be a non-negative integer, "
                                  f"got {value!r}")
        if isinstance(self.sample_fraction, bool) or not (
                0.0 < self.sample_fraction <= 1.0):
            raise ConfigError(f"sample_fraction must be in (0, 1], "
                              f"got {self.sample_fraction!r}")
        if not isinstance(self.keep_log, bool):
            raise ConfigError(f"keep_log must be a boolean, "
                              f"got {self.keep_log!r}")
        if self.source not in ("model", "uniform"):
            raise ConfigError(f"source must be 'model' or 'uniform', "
                              f"got {self.source!r}")


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

    def validate(self) -> None:
        """Check cross-block consistency; raise with every problem found."""
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
        if self.envelope_waist is not None and not (
                self.envelope_waist > 0 and np.isfinite(self.envelope_waist)):
            problems.append(
                f"envelope_waist override must be positive, "
                f"got {self.envelope_waist!r}")
        if problems:
            raise ConfigError("; ".join(problems))

    def resolve_envelope_waist(self, alphabet: HexAlphabet | None = None) -> float:
        if self.envelope_waist is not None:
            return float(self.envelope_waist)
        return calibrate_envelope(alphabet or self.build_alphabet())

    def build_alphabet(self) -> HexAlphabet:
        return build_hex_alphabet(self.alphabet.rings, self.alphabet.cell_radius)

    def build_model(self, alphabet: HexAlphabet | None = None) -> GaussianModel:
        alphabet = alphabet or self.build_alphabet()
        return GaussianModel(alphabet=alphabet, geometry=self.geometry,
                             envelope_waist=self.resolve_envelope_waist(alphabet))

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
            defaults = {f.name: f.default for f in fields(section_cls)}
            bad = set(section) - set(defaults)
            if bad:
                raise ConfigError(
                    f"unknown keys in section {name!r}: {', '.join(sorted(bad))}")
            # JSON true/false is accepted only where the default is a bool.
            flags = [key for key, value in section.items()
                     if isinstance(value, bool)
                     and not isinstance(defaults[key], bool)]
            if flags:
                raise ConfigError(
                    f"invalid section {name!r}: {', '.join(sorted(flags))} "
                    f"must not be a boolean")
            try:
                kwargs[name] = section_cls(**section)
            except (TypeError, ValueError, GeometryError) as exc:
                raise ConfigError(f"invalid section {name!r}: {exc}") from exc
        waist = data.get("envelope_waist")
        if isinstance(waist, bool):
            raise ConfigError("envelope_waist must not be a boolean")
        kwargs["envelope_waist"] = None if waist is None else float(waist)
        return cls(**kwargs)

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

        Accepts ``rounds``, ``seed``, ``eta``, ``strategy``,
        ``evidence_threshold`` and ``source`` for command-line overrides.
        """
        cfg = self
        session_keys = {k: v for k, v in kwargs.items()
                        if k in ("rounds", "seed", "sample_fraction",
                                 "source", "keep_log") and v is not None}
        adv_keys = {k: v for k, v in kwargs.items()
                    if k in ("eta", "strategy", "evidence_threshold")
                    and v is not None}
        leftovers = set(kwargs) - set(session_keys) - set(adv_keys) - {
            k for k, v in kwargs.items() if v is None}
        if leftovers:
            raise ConfigError(f"unknown overrides: {', '.join(sorted(leftovers))}")
        if session_keys:
            cfg = replace(cfg, session=replace(cfg.session, **session_keys))
        if adv_keys:
            try:
                cfg = replace(cfg, adversary=replace(cfg.adversary, **adv_keys))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        return cfg
