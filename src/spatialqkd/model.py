"""Calibrated Gaussian model of the detection-plane statistics.

In a matched configuration the detection plane shows the displaced aperture
mode: a Gaussian of the aperture waist centered on the sent character's cell
(point-inverted when both parties use the imaging basis).  In a crossed
configuration the plane shows a single broad envelope carrying no character
information; its waist is calibrated so that 99 percent of the intensity
falls inside the circle circumscribing the cell pattern, unless the
experiment sets ``envelope_waist``.  Cell probabilities are Gaussian
measures of hexagons, evaluated with an exact edge decomposition; positions
are drawn from the same densities, which keeps Monte Carlo runs and the
quadrature independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import special
from scipy.spatial import cKDTree

from ._checks import number
from .alphabet import (_HALF_SQRT3, _SLICE, HexAlphabet, ProbabilityMap,
                       _lattice_sites, calibrate_envelope)
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
#: Most Gaussian mass a matched row leaves out: the cells beyond
#: ``_cutoff`` of the Gaussian's center, which are left at exactly zero.
_TAIL = 1e-25


def _cutoff(waist: float, circumradius: float) -> float:
    """Center distance within which a cell's mass is integrated.

    Every point of a cell whose center lies farther away is at least
    ``sigma * sqrt(2 ln(1 / _TAIL))`` from the Gaussian's center, with
    ``sigma = waist / 2``, and the bivariate normal's mass beyond that
    radius is ``_TAIL``.
    """
    return circumradius + 0.5 * waist * np.sqrt(-2.0 * np.log(_TAIL))


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
    to near machine precision for the smooth integrand.  Cache-sized slices
    of polygons are integrated in turn; no result depends on the slicing.
    """
    polys = np.asarray(polygons, dtype=np.float64)
    sigma = waist / 2.0
    out = np.empty(polys.shape[0])
    step = max(1, _SLICE // (polys.shape[1] * _GL_NODES))
    for s in range(0, polys.shape[0], step):
        p1 = (polys[s:s + step] - np.asarray(center, dtype=np.float64)) / sigma
        p2 = np.roll(p1, -1, axis=1)
        x = p1[..., 0, None] + (p2[..., 0] - p1[..., 0])[..., None] * _GL_T
        y = p1[..., 1, None] + (p2[..., 1] - p1[..., 1])[..., None] * _GL_T
        cdf_x = 0.5 * (1.0 + special.erf(x / np.sqrt(2.0)))
        pdf_y = np.exp(-0.5 * y * y) / np.sqrt(2.0 * np.pi)
        edge = (p2[..., 1] - p1[..., 1]) * np.sum(cdf_x * pdf_y * _GL_WT, axis=-1)
        out[s:s + step] = edge.sum(axis=-1)
    return out


@dataclass(eq=False)
class GaussianModel:
    """Detection statistics for one alphabet and apparatus geometry.

    Parameters
    ----------
    alphabet : HexAlphabet
        Source characters, and the detection cells unless
        ``probability_table`` is given another region.
    geometry : Geometry
        Apparatus description; supplies the aperture waist.
    envelope_waist : float, optional
        Waist of the crossed-configuration envelope.  Defaults to the
        calibrated value for the alphabet.
    """

    alphabet: HexAlphabet
    geometry: Geometry = field(default_factory=Geometry)
    envelope_waist: float | None = None

    def __post_init__(self) -> None:
        if self.envelope_waist is None:
            self.envelope_waist = calibrate_envelope(self.alphabet)
        self.envelope_waist = number("envelope_waist", self.envelope_waist,
                                     "(0, inf)")

    @property
    def aperture_waist(self) -> float:
        return self.geometry.aperture_waist

    @cached_property
    def _padded_centers(self) -> np.ndarray:  # row d: the crossed-basis mean
        return np.vstack([self.alphabet.centers, np.zeros(2)])

    def sample_plane(self, noise: np.ndarray, prep_code: np.ndarray,
                     idx: np.ndarray, meas_code: np.ndarray) -> np.ndarray:
        """Detection-plane positions in the decoder frame, shape (m, 2).

        ``noise`` holds (m, 2) standard-normal draws the caller has made, in
        the order the :mod:`spatialqkd.protocol` docstring lists;
        ``prep_code`` and ``meas_code`` are the basis codes of the preparing
        and the measuring station and ``idx`` the prepared character.
        """
        # ``c + (sign * sigma) * noise``, ``c`` the sent center or zero, is
        # bit-equal to ``sign * (sign * c + sigma * noise)``: negation is
        # exact and rounding symmetric.  Scales by ``2 * prep + meas``.
        ap, env = self.aperture_waist / 2.0, self.envelope_waist / 2.0
        scale = np.array([-ap, env, -env, ap])
        rows = np.where(prep_code == meas_code, idx, self.alphabet.d)
        pos = scale.take(2 * prep_code + meas_code)[:, None] * noise
        pos += self._padded_centers.take(rows, axis=0)
        return pos

    def _decode_slices(self, noise: np.ndarray, prep_code: np.ndarray,
                       idx: np.ndarray, meas_code: np.ndarray,
                       jitter_sigma: float = 0.0, jitter: np.ndarray | None = None):
        """``(s, positions, cells, inside)`` per slice ``s`` of ``_SLICE``
        rounds: ``sample_plane`` plus ``jitter_sigma`` times the jitter draws,
        and their ``nearest_cell``.  The caller made the draws at full batch
        size, so the slices leave the transcript as it was."""
        jscale = np.array([-jitter_sigma, jitter_sigma])
        for start in range(0, noise.shape[0], _SLICE):
            s = slice(start, start + _SLICE)
            pos = self.sample_plane(noise[s], prep_code[s], idx[s], meas_code[s])
            if jitter_sigma:  # flipped with the arm, like the position
                pos += jscale.take(meas_code[s])[:, None] * jitter[s]
            yield (s, pos, *self.alphabet.nearest_cell(pos))

    def _envelope_masses(self, region: HexAlphabet) -> np.ndarray:
        """Mass of the crossed-configuration envelope in each region cell.

        One quadrature of every region cell: the envelope is as wide as the
        pattern, so no cell is skipped.
        """
        polys = hex_vertices(region.centers, region.cell_radius)
        return gaussian_polygon_integral((0.0, 0.0), self.envelope_waist, polys)

    def _neighbour_masses(self, centers: np.ndarray, region: HexAlphabet):
        """``(rows, cols, masses)``: the aperture Gaussian centered on
        ``centers[row]`` integrated over region cell ``col``, for every pair
        of centers within ``_cutoff`` of each other, as the region's k-d
        tree finds them.

        On a lattice a pair's mass depends only on the lattice offset of the
        cell from the Gaussian's center, so when every center and every
        region cell is a lattice site each distinct offset is integrated
        once, the stencil.  A center within ``_LATTICE_RTOL`` (1e-11) of the
        spacing of a lattice site counts as that site, so its masses are
        those at the exact lattice offsets.  Otherwise each pair is
        integrated.  Either way the cost is O(d) in the pairs, never
        O(d**2).
        """
        radius = region.cell_radius
        pairs = cKDTree(centers).sparse_distance_matrix(
            region._tree, _cutoff(self.aperture_waist, radius),
            output_type="ndarray")
        rows, cols = pairs["i"], pairs["j"]
        src = _lattice_sites(centers, region.spacing)
        dst = _lattice_sites(region.centers, region.spacing)
        if src is None or dst is None:
            polys = hex_vertices(region.centers[cols] - centers[rows], radius)
            return rows, cols, gaussian_polygon_integral(
                (0.0, 0.0), self.aperture_waist, polys)
        # Key each pair by its offset (dq, dr) in a small box; the keys in
        # use are the stencil.  A bincount needs no sort; at d = 1261,
        # np.unique on complex keys or on (dq, dr) rows took 8 and 60 times
        # as long (2-core Xeon, numpy 2.4).
        dq = (dst[0][cols] - src[0][rows]).astype(np.intp)
        dr = (dst[1][cols] - src[1][rows]).astype(np.intp)
        q0, r0 = dq.min(initial=0), dr.min(initial=0)
        span = dr.max(initial=0) - r0 + 1
        key = (dq - q0) * span + (dr - r0)
        used = np.bincount(key) > 0
        q, r = np.divmod(np.flatnonzero(used), span)
        q, r, s = q + q0, r + r0, region.spacing
        sites = np.column_stack([s * (q + 0.5 * r), _HALF_SQRT3 * s * r])
        masses = gaussian_polygon_integral((0.0, 0.0), self.aperture_waist,
                                           hex_vertices(sites, radius))
        return rows, cols, masses[np.cumsum(used)[key] - 1]

    def probability_table(self,
                          region: HexAlphabet | None = None) -> ProbabilityMap:
        """Cell probabilities for all configurations and source characters.

        ``region`` holds the detection cells, the alphabet by default; a
        wider region audits leakage.  It must use the alphabet's cell size.
        Built afresh on each call: the FF and II blocks and the one
        envelope row that crossed configurations share.  FF[k, j] is the
        aperture Gaussian centered on character k integrated over cell j,
        and II[k, j] the same centered on -k.  Only cells within
        ``_cutoff`` of the center are integrated, so each row leaves out at
        most ``_TAIL`` (1e-25) of mass, and the others are exactly 0.  On a
        lattice both blocks are filled from one stencil of about 19
        hexagons at the default geometry, plus the envelope's one row.

        Centers within ``_LATTICE_RTOL`` (1e-11) of the spacing of a lattice
        site are snapped to it.  Moving a Gaussian by ``e`` changes its mass
        in a hexagon by at most ``e`` times the perimeter times the peak
        density, so a snapped entry differs from the quadrature at the
        given centers by at most ``(e_k + e_j) * 6 a / (2 pi sigma**2)``,
        with ``e_k`` and ``e_j`` the two centers' distances to their sites
        and ``a`` the cell circumradius.
        """
        d, c = self.alphabet.d, self.alphabet.centers
        region = self.alphabet if region is None else region
        if abs(region.cell_radius - self.alphabet.cell_radius) \
                > 1e-12 * self.alphabet.cell_radius:
            raise ValueError("detection region must use the alphabet cell size")
        envelope = self._envelope_masses(region)
        rows, cols, masses = self._neighbour_masses(np.vstack([c, -c]), region)
        blocks = np.zeros((2 * d, region.d))
        blocks[rows, cols] = masses
        del rows, cols, masses  # the pair arrays go before the map checks
        return ProbabilityMap(cell_labels=region.labels,
                              cell_centers=region.centers,
                              source_labels=self.alphabet.labels,
                              matched={"FF": blocks[:d], "II": blocks[d:]},
                              envelope=envelope, _owned=True)

    def source(self) -> np.ndarray:
        """Character probabilities induced by the crossed-basis envelope.

        The envelope's mass in each cell, clipped at zero and renormalized
        over the cells: the distribution crossed-basis detections follow,
        whichever character was sent.  Costs one quadrature row; the table
        is not built.
        """
        env = np.clip(self._envelope_masses(self.alphabet), 0.0, None)
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
