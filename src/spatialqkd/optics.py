"""Paraxial scalar optics for confocal lens cascades.

Fields are square complex sample grids indexed as ``samples[ix, iy]`` with
``x = (ix - n/2) * step`` and the same convention on the second axis.  A
single lens of focal length ``f`` placed confocally (object and image planes
one focal length away on either side) maps a field to its optical Fourier
transform, evaluated at spatial frequency ``q = k * rho / f``.  Any two
confocal lenses ``f1, f2`` form a telescope of magnification ``-f2 / f1``.

The discrete transform convention used throughout keeps power exactly
conserved: a lens step multiplies the centered FFT by ``step**2 / (lam * f)``
and rescales the grid half-extent to ``lam * f * n / (4 * extent)``.  The
centered DFT applied twice is ``n**2`` times the point inversion on the
sample lattice, so the plane after any lens is the input or its one
transform, inverted or not, times a real factor.  A chain thus costs one
transform and one plane, the transform's, which then takes the output; as
the containment check's border frame is symmetric about the grid origin,
only those two planes need checking, each read once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from ._checks import count, number
from ._csv import BLOCK, row_blocks, write_csv

__all__ = [
    "Basis",
    "BasisConfig",
    "ALL_CONFIGS",
    "BASIS_BY_CODE",
    "Geometry",
    "ApertureSpec",
    "OpticalField",
    "IntensityMap",
    "GeometryError",
    "SamplingError",
    "grid_coords",
    "hexagon_mask",
    "make_aperture_field",
    "propagate_chain",
    "point_inverted",
    "arm_chain",
    "full_chain",
    "analytic_amplitude",
    "detection_probability_map",
]


class GeometryError(ValueError):
    """Raised when apparatus parameters are inconsistent with the grid."""


class SamplingError(RuntimeError):
    """Raised when a propagated field is not resolved by the sample grid."""


class Basis(str, Enum):
    """Measurement basis: imaging arm (I) or Fourier arm (F)."""

    I = "I"
    F = "F"


@dataclass(frozen=True)
class BasisConfig:
    """Pair of basis choices, Alice's preparation and Bob's measurement."""

    alice: Basis
    bob: Basis

    @property
    def label(self) -> str:
        return self.alice.value + self.bob.value

    @property
    def matched(self) -> bool:
        return self.alice == self.bob

    @classmethod
    def from_label(cls, label: str) -> "BasisConfig":
        if len(label) != 2 or any(c not in ("I", "F") for c in label):
            raise ValueError(f"unknown basis configuration {label!r}")
        return cls(Basis(label[0]), Basis(label[1]))


#: The four preparation/measurement configurations, matched pairs first.
ALL_CONFIGS: tuple[BasisConfig, ...] = (
    BasisConfig(Basis.F, Basis.F),
    BasisConfig(Basis.I, Basis.I),
    BasisConfig(Basis.I, Basis.F),
    BasisConfig(Basis.F, Basis.I),
)

#: Integer encoding of the bases used by the vectorized session engine.
#: Code 0 is the imaging basis, code 1 the Fourier basis; the matched
#: detection-plane center then carries the sign ``2 * code - 1``.
BASIS_BY_CODE: tuple[Basis, Basis] = (Basis.I, Basis.F)


@dataclass(frozen=True)
class Geometry:
    """Apparatus description: wavelength, focal lengths, source and grid.

    Parameters
    ----------
    wavelength : float
        Vacuum wavelength in meters.
    imaging_focal : float
        Focal length ``f`` of each lens in a two-lens imaging arm.  The
        single-lens Fourier arm uses ``2 f`` so that both arms have the same
        physical length ``4 f``.
    channel_focal : float
        Focal length of the two relay lenses in the shared channel.
    aperture_waist : float
        Gaussian waist of the source aperture mode, in meters.
    grid_samples : int
        Samples per axis of the square grid (even).
    grid_extent : float
        Half-width of the grid along each axis, in meters.
    """

    wavelength: float = 514e-9
    imaging_focal: float = 100e-3
    channel_focal: float = 150e-3
    aperture_waist: float = 100e-6
    grid_samples: int = 512
    grid_extent: float = 4e-3

    def __post_init__(self) -> None:
        for name in ("wavelength", "imaging_focal", "channel_focal",
                     "aperture_waist", "grid_extent"):
            number(name, getattr(self, name), "(0, inf)", GeometryError)
        count("grid_samples", self.grid_samples, 16, GeometryError)
        if self.grid_samples % 2:
            raise GeometryError(
                f"grid_samples must be even, got {self.grid_samples}")

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength

    @property
    def fourier_focal(self) -> float:
        """Focal length of the single-lens arm, twice the imaging focal."""
        return 2.0 * self.imaging_focal


@dataclass(frozen=True)
class ApertureSpec:
    """Source aperture: a Gaussian mode of waist ``size`` displaced to
    ``center``.  ``shape`` must be ``"gaussian"``."""

    shape: str = "gaussian"
    size: float = 100e-6
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.shape != "gaussian":
            raise GeometryError(
                f"aperture shape must be 'gaussian', got {self.shape!r}")
        number("size", self.size, "(0, inf)", GeometryError)
        try:
            x, y = self.center
        except (TypeError, ValueError):
            raise GeometryError(f"aperture center must be a pair (x, y), got "
                                f"{self.center!r}") from None
        object.__setattr__(self, "center", (
            number("center x", x, "(-inf, inf)", GeometryError),
            number("center y", y, "(-inf, inf)", GeometryError)))


def grid_coords(n: int, extent: float) -> np.ndarray:
    """Sample coordinates of one axis: ``(i - n/2) * step`` for i in 0..n-1."""
    step = 2.0 * extent / n
    return (np.arange(n) - n // 2) * step


@dataclass(frozen=True, eq=False)
class OpticalField:
    """Complex field samples on a centered square grid of given half-extent."""

    samples: np.ndarray
    extent: float
    wavelength: float

    def __post_init__(self) -> None:
        a = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise GeometryError(f"field samples must be square, got shape {a.shape}")
        if a.shape[0] % 2:
            raise GeometryError("field grid must have an even number of samples")
        number("extent", self.extent, "(0, inf)", GeometryError)
        number("wavelength", self.wavelength, "(0, inf)", GeometryError)
        # A finite sum of squares needs every sample finite; only a sum that
        # overflows or meets a non-finite sample takes the elementwise test.
        if not np.isfinite(_sum_sq(a)) and not np.isfinite(a).all():
            raise GeometryError("field samples contain non-finite values")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def step(self) -> float:
        return 2.0 * self.extent / self.n

    @property
    def power(self) -> float:
        return _sum_sq(self.samples) * self.step ** 2

    def coords(self) -> np.ndarray:
        return grid_coords(self.n, self.extent)

    def intensity(self) -> np.ndarray:
        return np.abs(self.samples) ** 2


def _sum_sq(a: np.ndarray) -> float:
    """``sum(|a|**2)`` by one ``vdot``, which copies ``a`` only when it is
    not contiguous.  It is finite only if every sample is, but may also be
    inf or nan for finite samples whose squares overflow."""
    a = a.ravel()
    return float(np.vdot(a, a).real)


def _checked_power(power: float, empty: str,
                   overflow: str = "cannot normalize a field whose power "
                                   "overflows") -> float:
    """``power`` if it is positive and finite.  Raises ``empty`` for a zero
    power and ``overflow`` for one that overflows, rather than scale a
    plane to zero."""
    if power <= 0:
        raise GeometryError(empty)
    if not np.isfinite(power):
        raise GeometryError(overflow)
    return power


def _separable_field(gx: np.ndarray, gy: np.ndarray, extent: float,
                     wavelength: float,
                     empty: str = "cannot normalize a zero-power field",
                     ) -> OpticalField:
    """The field ``outer(gx, gy)`` at unit power, written in one pass into
    a plane allocated once.

    Its power factorises as ``sum|gx|**2 * sum|gy|**2 * step**2``, so the
    scale ``1 / sqrt(power)`` is applied to ``gx`` in 1-D.  The samples
    differ from normalising the 2-D product by a few ulp of the peak."""
    power = _checked_power(
        _sum_sq(gx) * _sum_sq(gy) * (2.0 * extent / gx.size) ** 2, empty)
    amp = np.empty((gx.size, gy.size), dtype=np.complex128)
    np.multiply((gx * (1.0 / np.sqrt(power)))[:, None], gy, out=amp)
    return OpticalField(amp, extent, wavelength)


@dataclass(frozen=True, eq=False)
class IntensityMap:
    """Probability density over the detection plane; integrates to one."""

    values: np.ndarray
    extent: float

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise GeometryError(f"map values must be square, got shape {v.shape}")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise GeometryError("map values must be finite and non-negative")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def step(self) -> float:
        return 2.0 * self.extent / self.n

    def coords(self) -> np.ndarray:
        return grid_coords(self.n, self.extent)

    def integral(self) -> float:
        return float(np.sum(self.values) * self.step ** 2)

    def to_csv(self, path: str | os.PathLike) -> None:
        """Write rows ``row,col,value`` where row indexes x and col indexes y."""
        n, flat = self.n, self.values.ravel()
        # The text of each index 0 .. n - 1, gathered rather than rendered.
        index = np.array([b"%d" % i for i in range(n)])
        # Rows and columns of pixels 0 .. BLOCK + n - 1; a block starting at
        # row r0, column c0 reads them from c0 on and adds r0 to the rows.
        rows, cols = np.divmod(np.arange(BLOCK + n), n)
        cols = index[cols]

        def fields(k: np.ndarray):
            r0, c0 = divmod(int(k[0]), n)
            return (index[rows[c0:c0 + k.size] + r0], cols[c0:c0 + k.size],
                    flat[k])

        write_csv(path, ("row", "col", "value"), "%s,%s,%.12e\n",
                  (fields(k) for k in row_blocks(flat.size)))

    def to_pgm(self, path: str | os.PathLike) -> None:
        """Write an 8-bit binary PGM image, linearly scaled to the map peak."""
        peak = float(self.values.max())
        scale = 255.0 / peak if peak > 0 else 0.0
        # Transpose so image rows run along y, then flip so +y is up.
        pixels = np.flipud(np.rint(self.values.T * scale).astype(np.uint8))
        with open(path, "wb") as fh:
            fh.write(f"P5\n{self.n} {self.n}\n255\n".encode("ascii"))
            fh.write(pixels.tobytes())


def hexagon_mask(x: np.ndarray, y: np.ndarray, center, circumradius: float,
                 rtol: float = 1e-12) -> np.ndarray:
    """Membership test for a pointy-top hexagon of given center-to-vertex size.

    A point belongs to the hexagon when its projection on each of the three
    edge normals (at 0, 60 and 120 degrees) stays within the inradius
    ``circumradius * sqrt(3) / 2``.  Boundary points count as inside.
    """
    dx = np.asarray(x, dtype=np.float64) - center[0]
    dy = np.asarray(y, dtype=np.float64) - center[1]
    inradius = circumradius * (np.sqrt(3.0) / 2.0) * (1.0 + rtol)
    half = np.sqrt(3.0) / 2.0
    # The first term has the full broadcast shape, so ``x`` and ``y`` may be
    # a column and a row of coordinates.
    inside = np.abs(0.5 * dx + half * dy) <= inradius
    inside &= np.abs(-0.5 * dx + half * dy) <= inradius
    inside &= np.abs(dx) <= inradius
    return inside


def make_aperture_field(spec: ApertureSpec, geom: Geometry) -> OpticalField:
    """Sample the aperture mode on the geometry grid, normalized to unit power.

    Raises :class:`GeometryError` when the aperture is too large for the grid
    (size above a quarter of the half-extent) or falls outside it.
    """
    if spec.size > geom.grid_extent / 4.0:
        raise GeometryError(
            f"aperture size {spec.size:g} exceeds a quarter of the grid "
            f"half-extent {geom.grid_extent:g}")
    cx, cy = spec.center
    if max(abs(cx), abs(cy)) + spec.size > geom.grid_extent:
        raise GeometryError(
            f"aperture at {spec.center} with size {spec.size:g} leaves the grid "
            f"(half-extent {geom.grid_extent:g})")
    c = grid_coords(geom.grid_samples, geom.grid_extent)
    step = 2.0 * geom.grid_extent / geom.grid_samples
    empty = (f"aperture of size {spec.size:g} covers no grid samples "
             f"(grid step {step:g})")
    # Separable: the outer product of one 1-D exponential per axis.
    return _separable_field(np.exp(-(c - cx) ** 2 / spec.size ** 2),
                            np.exp(-(c - cy) ** 2 / spec.size ** 2),
                            geom.grid_extent, geom.wavelength, empty)


def _lens_step(field: OpticalField, focal: float) -> OpticalField:
    """One confocal lens: optical Fourier transform onto a rescaled grid.

    Reads ``field`` and owns one plane, the output.  For even ``n`` both
    ``ifftshift`` and ``fftshift`` swap opposite quadrants: the input's are
    copied swapped into the plane, which is transformed and scaled in place,
    and its quadrants are then swapped back through one quadrant of scratch.
    A ufunc between two quadrants would buffer; plain copies do not."""
    src, h = field.samples, field.n // 2
    out = np.empty_like(src)
    out[:h, :h], out[h:, h:] = src[h:, h:], src[:h, :h]
    out[:h, h:], out[h:, :h] = src[h:, :h], src[:h, h:]
    np.fft.fft2(out, out=out)
    out *= field.step ** 2 / (field.wavelength * focal)
    quadrant = out[:h, :h].copy()
    out[:h, :h], out[h:, h:] = out[h:, h:], quadrant
    quadrant[...] = out[:h, h:]
    out[:h, h:], out[h:, :h] = out[h:, :h], quadrant
    new_extent = field.wavelength * focal * field.n / (4.0 * field.extent)
    return OpticalField(out, new_extent, field.wavelength)


_BORDER_FRACTION = 0.05
_BORDER_POWER_TOL = 1e-6


def _check_contained(field: OpticalField, where: str) -> None:
    """Refuse a field with power in the border frame.  Its inner window,
    ``[b + 1, n - b)`` on both axes, is symmetric about the origin ``n/2``,
    so inverting or scaling a field keeps its border fraction.

    Reads the plane once with no full-size temporary: the total power is
    one ``vdot``, and the border power the sum over the frame's four
    strips, about a fifth of the plane at the default 512²."""
    s, n = field.samples, field.n
    border = max(1, int(round(_BORDER_FRACTION * n)))
    total = _sum_sq(s)
    if total <= 0:
        raise SamplingError(f"zero-power field {where}")
    inner = slice(border + 1, n - border)
    frac = sum(_sum_sq(strip) for strip in (
        s[:border + 1], s[n - border:], s[inner, :border + 1],
        s[inner, n - border:])) / total
    if frac > _BORDER_POWER_TOL:
        raise SamplingError(
            f"field power reaches the grid border {where}: fraction {frac:.3e} "
            f"of total lies in the outer {_BORDER_FRACTION:.0%} frame "
            f"(half-extent {field.extent:.4e} m, {n} samples); enlarge the "
            f"grid extent or refine the sampling")


def propagate_chain(field: OpticalField, focal_lengths) -> OpticalField:
    """Propagate a field through confocal lenses of the given focal lengths.

    Each lens applies one optical Fourier transform with grid rescaling, but
    only the first is computed: the plane after lens ``j + 1`` is the one
    before lens ``j``, point-inverted and scaled by ``f_j / f_(j+1)``.  Every
    plane thus shares the border fraction of the input or of that transform,
    so only those two are checked; power near the grid border in either
    raises :class:`SamplingError` naming it.

    A chain costs one transform and one plane, the lens step's: once it is
    checked, an even chain writes the inverted or scaled input over it.
    """
    focal_lengths = tuple(number("focal length", f, "(0, inf)", GeometryError)
                          for f in focal_lengths)
    _check_contained(field, "at the chain input")
    if not focal_lengths:
        return field
    k, f0 = len(focal_lengths), focal_lengths[0]
    first = _lens_step(field, f0)
    _check_contained(first, f"after lens 1 of {k} (focal length {f0:g} m)")
    extent = field.extent
    for f in focal_lengths:
        extent = field.wavelength * f * field.n / (4.0 * extent)
    plane = first.samples
    # An even chain has at least one ratio, so the input never stays as is.
    out = plane if k % 2 else field.samples
    if k // 2 % 2:
        out = _inverted(out, plane)
    for j in range(k % 2 + 2, k + 1, 2):
        ratio = focal_lengths[j - 2] / focal_lengths[j - 1]
        out = np.multiply(out, ratio, out=plane)
    return OpticalField(plane, extent, field.wavelength)


def _inverted(samples: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Point inversion about index ``n/2``, written into ``out``: index
    ``i`` goes to ``(n - i) mod n`` on both axes, so row and column 0 stay
    and the rest is reversed.  ``out`` may be ``samples`` itself."""
    out[0, 0] = samples[0, 0]
    out[0, 1:] = samples[0, :0:-1]
    out[1:, 0] = samples[:0:-1, 0]
    out[1:, 1:] = samples[:0:-1, :0:-1]
    return out


def point_inverted(field: OpticalField) -> OpticalField:
    """Point inversion about the grid origin, exact on the sample lattice."""
    return OpticalField(_inverted(field.samples, np.empty_like(field.samples)),
                        field.extent, field.wavelength)


def arm_chain(basis: Basis, geom: Geometry) -> tuple[float, ...]:
    """Focal lengths of one station's arm: two equal lenses to image, one of
    twice their focal length to Fourier transform."""
    if basis == Basis.I:
        return (geom.imaging_focal, geom.imaging_focal)
    return (geom.fourier_focal,)


def full_chain(config: BasisConfig, geom: Geometry) -> tuple[float, ...]:
    """Focal lengths a photon traverses: Alice's arm, the two-lens channel
    relay, Bob's arm."""
    return (arm_chain(config.alice, geom)
            + (geom.channel_focal, geom.channel_focal)
            + arm_chain(config.bob, geom))


def analytic_amplitude(config: BasisConfig, spec: ApertureSpec,
                       geom: Geometry) -> OpticalField:
    """Closed-form detection-plane amplitude for a displaced aperture state.

    Matched configurations reproduce the aperture mode: upright for two
    Fourier arms, point-inverted for two imaging arms.  Crossed
    configurations give the aperture's Fourier transform evaluated at
    ``q = k rho / f_F``, with ``f_F`` the Fourier-arm focal length, here
    in closed form (including the tilt phase from the displacement).

    Returns a unit-power field on the same grid that ``propagate_chain`` over
    :func:`full_chain` would produce.
    """
    if config.matched:
        if config.alice == Basis.I:
            cx, cy = spec.center
            spec = replace(spec, center=(-cx, -cy))
        return make_aperture_field(spec, geom)
    f_f = geom.fourier_focal
    out_extent = geom.wavelength * f_f * geom.grid_samples / (4.0 * geom.grid_extent)
    q = geom.wavenumber * grid_coords(geom.grid_samples, out_extent) / f_f
    w = spec.size
    cx, cy = spec.center
    # Separable: each axis carries its Gaussian factor and its tilt phase.
    return _separable_field(np.exp(-(w ** 2 / 4.0) * q ** 2 - 1j * q * cx),
                            np.exp(-(w ** 2 / 4.0) * q ** 2 - 1j * q * cy),
                            out_extent, geom.wavelength)


def detection_probability_map(field: OpticalField) -> IntensityMap:
    """Pointwise squared modulus as a detection probability density.

    Refuses a field of zero power, or one whose power overflows."""
    intensity = field.intensity()
    intensity /= _checked_power(
        float(np.sum(intensity) * field.step ** 2),
        "cannot form a probability map from a zero field",
        "cannot form a probability map from a field whose power overflows")
    return IntensityMap(intensity, field.extent)
