"""Calibrated Gaussian model of the detection-plane statistics.

In a matched configuration the detection plane shows the displaced aperture
mode: a Gaussian of the aperture waist centered on the sent character's cell
(point-inverted when both parties use the imaging basis).  In a crossed
configuration the plane shows a single broad envelope carrying no character
information; its waist is calibrated so that a fixed fraction (99 percent by
default) of the intensity falls inside the circle circumscribing the cell
pattern.  Cell probabilities are Gaussian measures of hexagons, evaluated
with an exact edge decomposition; positions are drawn from the same
densities, which keeps Monte Carlo runs and the quadrature independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from ._checks import number
from .alphabet import HexAlphabet, ProbabilityMap, calibrate_envelope
from .optics import Basis, BasisConfig, Geometry, IntensityMap, grid_coords

__all__ = [
    "GaussianModel",
    "hex_vertices",
    "gaussian_polygon_integral",
]

_GL_NODES = 32
#: Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, 1], computed
#: once rather than on every integral.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_NODES)
_GL_T, _GL_WT = 0.5 * (_GL_X + 1.0), 0.5 * _GL_W


def hex_vertices(centers: np.ndarray, circumradius: float) -> np.ndarray:
    """Vertices of pointy-top hexagons, counterclockwise, shape (m, 6, 2)."""
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    angles = np.deg2rad(30.0 + 60.0 * np.arange(6))
    offsets = circumradius * np.column_stack([np.cos(angles), np.sin(angles)])
    return centers[:, None, :] + offsets[None, :, :]


def gaussian_polygon_integral(center, waist: float,
                              polygons: np.ndarray) -> np.ndarray:
    """Mass of an isotropic Gaussian intensity profile over polygons.

    The profile is ``exp(-2 r**2 / waist**2)`` normalized to unit integral,
    i.e. a bivariate normal with sigma = waist / 2 per axis.  Polygons are
    given counterclockwise with shape (m, nv, 2).  The double integral is
    reduced to line integrals along the edges,

        integral = sum_edges (y2 - y1) * int_0^1 Phi(x(t)) phi(y(t)) dt,

    with Phi the normal distribution function and phi its density, and each
    edge integral evaluated by fixed-order Gauss-Legendre quadrature.  Exact
    to near machine precision for the smooth integrand.
    """
    polys = np.asarray(polygons, dtype=np.float64)
    if polys.ndim == 2:
        polys = polys[None]
    sigma = waist / 2.0
    p1 = (polys - np.asarray(center, dtype=np.float64)) / sigma
    p2 = np.roll(p1, -1, axis=1)
    x = p1[..., 0, None] + (p2[..., 0] - p1[..., 0])[..., None] * _GL_T
    y = p1[..., 1, None] + (p2[..., 1] - p1[..., 1])[..., None] * _GL_T
    cdf_x = 0.5 * (1.0 + special.erf(x / np.sqrt(2.0)))
    pdf_y = np.exp(-0.5 * y * y) / np.sqrt(2.0 * np.pi)
    edge = (p2[..., 1] - p1[..., 1]) * np.sum(cdf_x * pdf_y * _GL_WT, axis=-1)
    return edge.sum(axis=-1)


@dataclass(eq=False)
class GaussianModel:
    """Detection statistics for one alphabet and apparatus geometry.

    Parameters
    ----------
    alphabet : HexAlphabet
        Source characters; also the detection region unless ``region`` says
        otherwise.
    geometry : Geometry
        Apparatus description; supplies the aperture waist.
    envelope_waist : float, optional
        Waist of the crossed-configuration envelope.  Defaults to the
        calibrated value for the alphabet.
    region : HexAlphabet, optional
        Detection cells to bin over when they differ from the source
        alphabet (for example a wider region used to audit leakage).
    """

    alphabet: HexAlphabet
    geometry: Geometry = field(default_factory=Geometry)
    envelope_waist: float | None = None
    region: HexAlphabet | None = None

    def __post_init__(self) -> None:
        if self.envelope_waist is None:
            self.envelope_waist = calibrate_envelope(self.alphabet)
        number("envelope_waist", self.envelope_waist, "(0, inf)")
        if self.region is None:
            self.region = self.alphabet
        if abs(self.region.cell_radius - self.alphabet.cell_radius) \
                > 1e-12 * self.alphabet.cell_radius:
            raise ValueError("detection region must use the alphabet cell size")
        self._table: ProbabilityMap | None = None

    @property
    def aperture_waist(self) -> float:
        return self.geometry.aperture_waist

    def sample_plane(self, noise: np.ndarray, prep_code: np.ndarray,
                     idx: np.ndarray, meas_code: np.ndarray) -> np.ndarray:
        """Detection-plane positions in the decoder frame, shape (m, 2).

        ``noise`` holds (m, 2) standard-normal draws the caller has made;
        ``prep_code`` and ``meas_code`` are the basis codes of the preparing
        and the measuring station and ``idx`` the prepared character.

        The callers' draw order fixes the transcripts: ``attack_batch`` draws
        tap decisions, attack bases, then this noise; ``_measure_batch``
        draws this noise, jitter, background decisions, background cells,
        then loss.
        """
        matched = prep_code == meas_code
        sign = (2 * meas_code.astype(np.int64) - 1).astype(np.float64)
        centers = np.where(matched[:, None],
                           sign[:, None] * self.alphabet.centers[idx], 0.0)
        sigma = np.where(matched, self.aperture_waist, self.envelope_waist) / 2.0
        return sign[:, None] * (centers + sigma[:, None] * noise)

    def _envelope_masses(self) -> np.ndarray:
        """Mass of the crossed-configuration envelope in each region cell."""
        polys = hex_vertices(self.region.centers, self.region.cell_radius)
        return gaussian_polygon_integral((0.0, 0.0), self.envelope_waist, polys)

    def probability_table(self) -> ProbabilityMap:
        """Cell probabilities for all configurations and source characters.

        Computed once per model by hexagon quadrature and cached: the FF and
        II blocks and the one envelope row that crossed configurations share.
        """
        if self._table is not None:
            return self._table
        region = self.region
        polys = hex_vertices(region.centers, region.cell_radius)
        ff = np.empty((self.alphabet.d, region.d))
        ii = np.empty_like(ff)
        for k, center in enumerate(self.alphabet.centers):
            ff[k] = gaussian_polygon_integral(center, self.aperture_waist, polys)
            ii[k] = gaussian_polygon_integral(-center, self.aperture_waist, polys)
        self._table = ProbabilityMap(cell_labels=region.labels,
                                     cell_centers=region.centers,
                                     source_labels=self.alphabet.labels,
                                     matched={"FF": ff, "II": ii},
                                     envelope=self._envelope_masses())
        return self._table

    def source(self) -> np.ndarray:
        """Character probabilities induced by the crossed-basis envelope.

        The envelope's mass in each cell, clipped at zero and renormalized
        over the cells: the distribution crossed-basis detections follow,
        whichever character was sent.  Costs one quadrature row; the table
        is neither built nor cached.
        """
        if self.region.labels != self.alphabet.labels:
            raise ValueError(
                "source distribution requires the detection region to be "
                "the source alphabet")
        env = np.clip(self._envelope_masses(), 0.0, None)
        # Crossed detections average the IF and FI rows over the d sent
        # characters.  Every such row is this one and 0.5 * (m + m) == m, so
        # that is one mean over d broadcast copies.  The mean is not bit-equal
        # to the row, and the fixed-seed transcripts were made with it
        # (``expected_keep_fraction`` is d * min P), so it stays.
        mixed = np.broadcast_to(env, (self.alphabet.d, env.size)).mean(axis=0)
        total = mixed.sum()
        if total <= 0:
            raise ValueError("envelope carries no probability over the alphabet")
        return mixed / total

    def intensity_grid(self, config: BasisConfig,
                       source_index: int) -> IntensityMap:
        """Detection density rendered on the apparatus grid."""
        geom = self.geometry
        if config.matched:
            # The imaging pair shows the cell point-inverted.
            mean = self.alphabet.centers[source_index]
            if config.alice == Basis.I:
                mean = -mean
            sigma = self.aperture_waist / 2.0
        else:
            mean = (0.0, 0.0)
            sigma = self.envelope_waist / 2.0
        c = grid_coords(geom.grid_samples, geom.grid_extent)
        gx = np.exp(-0.5 * ((c - mean[0]) / sigma) ** 2)
        gy = np.exp(-0.5 * ((c - mean[1]) / sigma) ** 2)
        density = np.outer(gx, gy) / (2.0 * np.pi * sigma ** 2)
        return IntensityMap(density, geom.grid_extent)
