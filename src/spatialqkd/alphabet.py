"""Hexagonal detection alphabets and binned probability maps.

Characters live at the sites of a triangular lattice; each character owns the
pointy-top hexagonal Voronoi cell of its site.  With center-to-vertex
distance ``a`` the lattice spacing is ``a * sqrt(3)`` and the cells tile the
plane without gaps, so nearest-site lookup and hexagon membership agree.
"""

from __future__ import annotations

import json
import mmap
import os
import string
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from ._checks import count, number
from ._csv import row_blocks, text_table, write_csv
from .optics import (ALL_CONFIGS, BasisConfig, IntensityMap, grid_coords,
                     hexagon_mask)

__all__ = [
    "HexAlphabet",
    "ProbabilityMap",
    "RiskyCell",
    "build_hex_alphabet",
    "build_packed_alphabet",
    "calibrate_envelope",
    "bin_probabilities",
    "leakage_check",
    "prune_alphabet",
    "save_alphabet",
    "load_alphabet",
]

_LABEL_CHARS = string.digits + string.ascii_uppercase + string.ascii_lowercase
_RESIDUAL = "(residual)"  # cell char of the outside-all-cells CSV row

#: Distances to two centers that agree within this fraction of the lattice
#: spacing are a tie, resolved to the lowest index (the tolerance of
#: ``hexagon_mask``).
_TIE_RTOL = 1e-12
#: Centers within this fraction of the spacing of a lattice site count as on
#: the lattice.  Far below ``_RHOMBUS_MARGIN``, so a point the rhombus table
#: clears is nearest to its cell's center.
_LATTICE_RTOL = 1e-11
_HALF_SQRT3 = np.sqrt(3.0) / 2.0
#: Sub-cells per side of the rhombus table: ``2 ** _RHOMBUS_BITS``.
_RHOMBUS_BITS = 8
_RHOMBUS_K = 1 << _RHOMBUS_BITS
#: Clearance, in spacings, of a coded sub-cell from its hexagon's edges.
_RHOMBUS_MARGIN = 1e-6
#: Largest coordinate, in meters, ``nearest_cell`` accepts: far below the
#: 1.3e154 m at which the k-d tree's squared distances overflow.
_MAX_COORD = 1e100
#: Points per cache-sized ``nearest_cell`` call of grids and session slices.
_SLICE = 1 << 13
#: Fraction of the crossed-basis envelope inside the pattern's circle.
_CONTAINMENT = 0.99
#: Sub-points per side of the subgrid that splits a boundary pixel.
_SUBSAMPLES = 8


def _spiral_labels(count: int) -> tuple[str, ...]:
    """Single-character labels for the first 62 cells, ``#index`` afterwards."""
    return tuple(_LABEL_CHARS[i] if i < len(_LABEL_CHARS) else f"#{i}"
                 for i in range(count))


def _ring_offsets(ring: int, spacing: float) -> np.ndarray:
    """Lattice sites of one hexagonal ring, walked counterclockwise from
    ``ring * u``: one cumulative sum adds the walk's steps in its order."""
    if ring == 0:
        return np.zeros((1, 2))
    u = np.array([spacing, 0.0])
    v = np.array([0.5 * spacing, 0.5 * np.sqrt(3.0) * spacing])
    sides = np.array([v - u, -u, -v, u - v, u, v])
    walk = np.concatenate([[ring * u], np.repeat(sides, ring, axis=0)[:-1]])
    return np.cumsum(walk, axis=0)


def _lattice_sites(centers: np.ndarray,
                   spacing: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Axial coordinates ``(q, r)`` of each center's lattice site, as floats,
    or None when a center lies more than ``_LATTICE_RTOL`` of the spacing
    from every site of the lattice anchored at the origin.

    The lattice has basis ``u = (s, 0)`` and ``v = (s / 2, s * sqrt(3) / 2)``
    with ``s`` the spacing.  Rounding ``q`` and ``r`` on their own finds the
    site of a center that close to one; a center farther from every site is
    farther from the rounded one too.
    """
    r = centers[:, 1] / (_HALF_SQRT3 * spacing)
    q = np.rint(centers[:, 0] / spacing - 0.5 * r)
    r = np.rint(r)
    off = np.hypot(spacing * (q + 0.5 * r) - centers[:, 0],
                   _HALF_SQRT3 * spacing * r - centers[:, 1])
    return None if off.max() > _LATTICE_RTOL * spacing else (q, r)


def _rhombus_table() -> np.ndarray:
    """Corner code of each sub-cell of the unit rhombus ``[0, 1)**2`` in
    axial coordinates, ``K = _RHOMBUS_K`` sub-cells a side, flat and
    read-only: entry ``i * K + j`` is sub-cell ``[i, i + 1] x [j, j + 1]``
    over ``K``.

    Every point of the rhombus is nearest one of its corners, the lattice
    sites ``(dq, dr)`` with ``dq, dr`` in {0, 1}.  A sub-cell whose four
    vertices lie inside the hexagon of corner ``(dq, dr)`` by
    ``_RHOMBUS_MARGIN`` spacings lies inside it whole (both are convex) and
    gets code ``dq + 2 * dr``.  The others, a band of 1.43 % of the
    sub-cells along the cell edges, get 4.
    """
    t = np.arange(_RHOMBUS_K + 1) / _RHOMBUS_K
    q, r = np.meshgrid(t, t, indexing="ij")
    code = np.full((_RHOMBUS_K, _RHOMBUS_K), 4, np.int8)
    for c in range(4):
        qc, rc = q - (c & 1), r - (c >> 1)  # the offset from corner c
        ok = hexagon_mask(qc + 0.5 * rc, _HALF_SQRT3 * rc, (0.0, 0.0),
                          1.0 / np.sqrt(3.0), rtol=-2.0 * _RHOMBUS_MARGIN)
        code[ok[:-1, :-1] & ok[1:, :-1] & ok[:-1, 1:] & ok[1:, 1:]] = c
    code = code.ravel()
    code.flags.writeable = False
    return code


_RHOMBUS = _rhombus_table()


@dataclass(frozen=True, eq=False)
class HexAlphabet:
    """A set of hexagonal cells with string labels.

    Parameters
    ----------
    cell_radius : float
        Center-to-vertex distance of each cell, in meters.
    centers : ndarray of shape (d, 2)
        Cell centers.
    labels : list or tuple of str
        One per cell, unique, non-empty printable ASCII (no control
        character), no comma or quote, and not ``(residual)``.
    """

    cell_radius: float
    centers: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        c = np.atleast_2d(np.asarray(self.centers, dtype=np.float64))
        object.__setattr__(self, "centers", c)
        if not isinstance(self.labels, (list, tuple)):  # a str would split
            raise ValueError(f"labels must be a list or tuple, got {self.labels!r}")
        object.__setattr__(self, "labels", tuple(self.labels))
        bad = [s for s in self.labels if not (
            isinstance(s, str) and s and s.isascii() and s.isprintable()
            and "," not in s and '"' not in s and s != _RESIDUAL)]
        if bad:
            raise ValueError("labels must be non-empty printable ASCII strings "
                             f"other than {_RESIDUAL} with no comma or double "
                             f"quote, got {bad[0]!r}")
        number("cell_radius", self.cell_radius, "(0, inf)")
        if c.ndim != 2 or c.shape[1] != 2 or c.shape[0] < 1:
            raise ValueError(f"centers must have shape (d, 2), got {c.shape}")
        if len(self.labels) != c.shape[0]:
            raise ValueError(
                f"{len(self.labels)} labels for {c.shape[0]} centers")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("alphabet labels must be unique")
        if not np.all(np.isfinite(c)):
            raise ValueError("cell centers must be finite")
        tree = cKDTree(c)
        # Two cells overlap exactly when their centers' offset lies strictly
        # inside the hexagon of circumradius 2a, on whose edges lattice
        # neighbours sit.  Two closer than one spacing (its inradius) are
        # refused first, so that at most 7 lie within 2a of each and the
        # pairs stay O(d) however dense the input.
        if tree.query(c, k=2)[0][:, 1].min() < self.spacing * (1.0 - 1e-9):
            raise ValueError("cell hexagons overlap")
        pairs = tree.query_pairs(2.0 * self.cell_radius, output_type="ndarray")
        offset = (c.take(pairs[:, 1], axis=0) - c.take(pairs[:, 0], axis=0)).T
        if hexagon_mask(*offset, (0.0, 0.0), 2.0 * self.cell_radius,
                        rtol=-1e-9).any():
            raise ValueError("cell hexagons overlap")
        object.__setattr__(self, "_tree", tree)
        # One grid partition, ``(key, pixel_ids, boundary, sub_ids)``; see
        # ``_grid_partition``.
        object.__setattr__(self, "_partition", None)

    @cached_property
    def _lattice(self) -> tuple[np.ndarray, float, float] | None:
        """``(corners, q0, r0)`` for the rhombus lookup of ``nearest_cell``,
        built at the first decode, so an alphabet that decodes nothing never
        pays for it.

        ``corners[q - q0, r - r0, c]`` is the index of the cell at lattice
        site ``(q + (c & 1), r + (c >> 1))`` for a corner code ``c`` below 4,
        -1 for no cell, and -1 for the band code 4.  The sites it reads have
        a border of -1 one site wide around the pattern.  None when a center
        is off the lattice anchored at the origin, or when the centers are
        too sparse for a dense table (a compact pattern fills about three
        quarters of it).
        """
        sites = _lattice_sites(self.centers, self.spacing)
        if sites is None:
            return None
        q, r = sites
        q0, r0 = q.min() - 1.0, r.min() - 1.0
        w, h = int(q.max() - q0) + 2, int(r.max() - r0) + 2
        if w * h > 16 * self.d + 4096:
            return None
        table = np.full((w, h), -1, dtype=np.intp)
        table[(q - q0).astype(np.intp), (r - r0).astype(np.intp)] = \
            np.arange(self.d)
        corners = np.full((w - 1, h - 1, 5), -1, dtype=np.intp)
        for c in range(4):
            dq, dr = c & 1, c >> 1
            corners[:, :, c] = table[dq:w - 1 + dq, dr:h - 1 + dr]
        return corners, q0, r0

    @property
    def d(self) -> int:
        return self.centers.shape[0]

    @property
    def spacing(self) -> float:
        return self.cell_radius * np.sqrt(3.0)

    @property
    def cell_area(self) -> float:
        return 1.5 * np.sqrt(3.0) * self.cell_radius ** 2

    @property
    def envelope_radius(self) -> float:
        """Radius of the circle circumscribing the whole cell pattern."""
        return float(np.hypot(self.centers[:, 0], self.centers[:, 1]).max()
                     + self.cell_radius)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown character {label!r}") from None

    def inverse_index(self, index: int) -> int:
        """Index of the cell at the point-reflected center, if present."""
        target = -self.centers[index]
        dist = np.hypot(*(self.centers - target).T)
        j = int(np.argmin(dist))
        if dist[j] > 1e-9 * self.spacing:
            raise ValueError(
                f"alphabet has no cell opposite {self.labels[index]!r}")
        return j

    def nearest_cell(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest cell index for each point and whether the point lies inside it.

        Returns ``(indices, inside)``.  Distances that agree within 1e-12
        of the lattice spacing are a tie, resolved to the lowest index.
        Raises ``ValueError`` unless ``points`` is one point of shape
        ``(2,)`` or an array of shape ``(m, 2)`` and every coordinate is
        finite and at most 1e100 m in magnitude.

        A point inside the pattern costs O(1): its sub-cell of the unit
        rhombus of the lattice is looked up in one table shared by all
        alphabets, and the cell at the sub-cell's corner in one small table
        of the alphabet's own.  The other points cost O(log d) each, in a
        k-d tree query over the centers: points outside the pattern or in a
        pruned hole (which still have a nearest cell), points in the band of
        sub-cells along the cell edges (1.43 % of the rhombus), and every
        point of an alphabet whose centers are off the lattice.  Only these
        get the hexagon membership test: a point the table clears is inside
        its cell by a margin of 1e-6 spacings, far beyond rounding.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must have shape (2,) or (m, 2), got "
                             f"{np.shape(points)}")
        if pts.size and not np.abs(pts).max() <= _MAX_COORD:  # NaN fails too
            raise ValueError("points must be finite, with coordinates of at "
                             f"most {_MAX_COORD:g} m in magnitude")
        idx, inside = (self._lattice_nearest(pts) if self._lattice is not None
                       else (np.empty(len(pts), np.intp), np.zeros(len(pts), bool)))
        rest = np.flatnonzero(~inside)
        idx[rest] = near = self._tree_nearest(pts[rest])
        inside[rest] = hexagon_mask(*pts[rest].T, self.centers.take(near, axis=0).T,
                                    self.cell_radius)
        return idx, inside

    def _lattice_nearest(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell of each point by the rhombus lookup, and whether it is
        certain: -1 and False in the band, off the table and at a site with
        no cell.

        The axial coordinates ``(q, r)`` times ``K`` are floored to
        integers, whose high bits give the rhombus origin and whose low
        ``_RHOMBUS_BITS`` bits the sub-cell.  No fraction ``q - floor(q)``
        is formed, so none can round up to 1.  Rounding moves a point by a
        few ulps at most, into a neighbouring sub-cell at worst, and
        ``_RHOMBUS_MARGIN`` covers that.  A coordinate off the table is
        clipped to the first or last sub-cell along its axis, whose corners
        on that axis lie in the border: -1.
        """
        corners, q0, r0 = self._lattice
        w, h = corners.shape[:2]
        k = _RHOMBUS_K
        r = pts[:, 1] * (k / (_HALF_SQRT3 * self.spacing))
        q = pts[:, 0] * (k / self.spacing)
        q -= 0.5 * r
        q -= k * q0
        r -= k * r0
        np.clip(q, 0.0, k * w - 1.0, out=q)
        np.clip(r, 0.0, k * h - 1.0, out=r)
        qi, ri = q.astype(np.intp), r.astype(np.intp)  # floors, as q, r >= 0
        sub = qi & (k - 1)
        sub <<= _RHOMBUS_BITS
        sub |= ri & (k - 1)
        qi >>= _RHOMBUS_BITS
        ri >>= _RHOMBUS_BITS
        qi *= 5 * h
        ri *= 5
        qi += ri
        qi += _RHOMBUS.take(sub)
        idx = corners.take(qi)
        return idx, idx >= 0

    def _tree_nearest(self, pts: np.ndarray) -> np.ndarray:
        """Nearest center by k-d tree, with ties to the lowest index."""
        dist, idx = self._tree.query(pts, k=2)
        nearest = idx[:, 0]
        tol = _TIE_RTOL * self.spacing
        tied = np.flatnonzero(dist[:, 1] - dist[:, 0] <= tol)
        if tied.size:
            groups = self._tree.query_ball_point(pts[tied], dist[tied, 0] + tol)
            nearest[tied] = [min(group) for group in groups]
        return nearest

    def to_dict(self) -> dict:
        return {
            "cell_radius": self.cell_radius,
            "labels": list(self.labels),
            "centers": [[float(x), float(y)] for x, y in self.centers],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HexAlphabet":
        return cls(cell_radius=data["cell_radius"],
                   centers=np.asarray(data["centers"], dtype=np.float64),
                   labels=data["labels"])


def build_hex_alphabet(rings: int = 3, cell_radius: float = 200e-6) -> HexAlphabet:
    """Alphabet of all cells within ``rings`` complete rings around the center.

    The size is ``d = 1 + 3 * rings * (rings + 1)``; labels run through
    digits, uppercase then lowercase letters in spiral order from the center.
    """
    count("rings", rings, 0)
    spacing = cell_radius * np.sqrt(3.0)
    centers = np.concatenate([_ring_offsets(ring, spacing)
                              for ring in range(rings + 1)])
    return HexAlphabet(cell_radius=cell_radius, centers=centers,
                       labels=_spiral_labels(len(centers)))


def build_packed_alphabet(envelope_radius: float,
                          cell_radius: float) -> HexAlphabet:
    """Largest alphabet whose cells fit inside a circle of given radius.

    Walks lattice rings in spiral order and keeps every cell contained in the
    circle (center distance plus cell_radius within the radius, with a small
    relative tolerance).  Falls back to the single central cell when not even
    that fits, so the result is never empty.
    """
    number("envelope_radius", envelope_radius, "(0, inf)")
    number("cell_radius", cell_radius, "(0, inf)")
    spacing = cell_radius * np.sqrt(3.0)
    max_ring = int(np.ceil(envelope_radius / spacing)) + 1
    kept = []
    for ring in range(max_ring + 1):
        sites = _ring_offsets(ring, spacing)
        reach = np.hypot(*sites.T) + cell_radius
        kept.append(sites[reach <= envelope_radius * (1.0 + 1e-9)])
    centers = np.concatenate(kept)
    if not len(centers):
        centers = np.zeros((1, 2))
    return HexAlphabet(cell_radius=cell_radius, centers=centers,
                       labels=_spiral_labels(len(centers)))


def calibrate_envelope(alphabet: HexAlphabet) -> float:
    """Gaussian waist putting 99 percent of the intensity inside the pattern.

    Solves ``1 - exp(-2 R**2 / w**2) = 0.99`` for ``w``, where ``R`` is the
    radius of the circle circumscribing the cell pattern.
    ``ExperimentConfig.envelope_waist`` overrides the result.
    """
    radius = alphabet.envelope_radius
    return float(radius * np.sqrt(2.0 / -np.log1p(-_CONTAINMENT)))


@dataclass(frozen=True, eq=False)
class ProbabilityMap:
    """Binned detection probabilities for every configuration and source char.

    Built from the ``matched`` FF and II blocks and the one ``envelope`` row
    that crossed configurations show whatever was sent.
    ``probs[config_label]`` has shape ``(n_sources, n_cells)``; entry
    ``[s, c]`` is the probability that a photon prepared as source character
    ``s`` lands in detection cell ``c``.  ``residual[config_label][s]`` is
    the probability of landing outside every cell.  All are dense and
    read-only, so ``probs[config_label][s]`` is a full row, and IF and FI
    are one broadcast of the envelope row.  Entries the builder left out are
    exactly 0 (``GaussianModel.probability_table`` leaves out the cells
    beyond its cutoff).  The detection region may cover more cells than the
    source alphabet.  The given arrays are copied, unless ``_owned`` hands
    them over to be clipped in place.
    """

    cell_labels: tuple[str, ...]
    cell_centers: np.ndarray
    source_labels: tuple[str, ...]
    matched: InitVar[dict[str, np.ndarray]]
    envelope: InitVar[np.ndarray]
    _owned: InitVar[bool] = False
    probs: dict[str, np.ndarray] = field(init=False)
    residual: dict[str, np.ndarray] = field(init=False)

    def __post_init__(self, matched, envelope, _owned) -> None:
        object.__setattr__(self, "cell_labels", tuple(self.cell_labels))
        object.__setattr__(self, "source_labels", tuple(self.source_labels))
        centers = np.asarray(self.cell_centers, dtype=np.float64)
        object.__setattr__(self, "cell_centers", centers)
        nc, ns = len(self.cell_labels), len(self.source_labels)
        if centers.shape != (nc, 2):
            raise ValueError(f"expected {nc} cell centers, got {centers.shape}")
        if set(matched) != {"FF", "II"}:
            raise ValueError(f"matched must hold FF and II, got {sorted(matched)}")
        probs, residual = {}, {}
        given = {"FF": matched["FF"], "II": matched["II"], "envelope": envelope}
        for key, p in given.items():
            p = np.asarray(p, dtype=np.float64)
            shape = (nc,) if key == "envelope" else (ns, nc)
            if p.shape != shape:
                raise ValueError(f"{key} must have shape {shape}, got {p.shape}")
            p = p.reshape(-1, nc)
            if p.min() < -1e-12:  # no d x d mask
                raise ValueError(f"negative probabilities in {key}")
            r = 1.0 - p.sum(axis=1)
            if np.any(r < -1e-12):
                raise ValueError(f"{key} has a row summing above 1")
            # Read-only views; the envelope's one row gets zero stride.
            p = np.clip(p, 0.0, None, out=p if _owned else None)
            probs[key] = np.broadcast_to(p, (ns, nc))
            residual[key] = np.broadcast_to(np.clip(r, 0.0, None), (ns,))
        probs["IF"] = probs["FI"] = probs.pop("envelope")
        residual["IF"] = residual["FI"] = residual.pop("envelope")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "residual", residual)

    def column(self, config, source_label: str) -> tuple[np.ndarray, float]:
        """Cell probabilities and residual for one configuration and source."""
        key = config.label if isinstance(config, BasisConfig) else str(config)
        try:
            s = self.source_labels.index(source_label)
        except ValueError:
            raise KeyError(f"unknown source character {source_label!r}") from None
        return self.probs[key][s].copy(), float(self.residual[key][s])

    def to_csv(self, path: str | os.PathLike) -> None:
        """Rows ``config,sent_char,cell_char,probability``; the row with
        cell char ``(residual)`` holds the outside-all-cells probability."""
        cells = text_table(self.cell_labels + (_RESIDUAL,))
        sources = text_table(self.source_labels)
        nc = len(self.cell_labels)

        # Row k of a configuration: source k // (nc + 1), then its cells and
        # the residual.
        def fields(cfg: BasisConfig, k: np.ndarray):
            s, c = np.divmod(k, nc + 1)
            value = np.where(c < nc, self.probs[cfg.label][s, np.minimum(c, nc - 1)],
                             self.residual[cfg.label][s])
            return (np.full(k.size, cfg.label.encode()), sources[s], cells[c],
                    value)

        write_csv(path, ("config", "sent_char", "cell_char", "probability"),
                  "%s,%s,%s,%.12e\n",
                  (fields(cfg, k) for cfg in ALL_CONFIGS
                   for k in row_blocks(sources.size * (nc + 1))))


def _classify_points(points: np.ndarray, alphabet: HexAlphabet) -> np.ndarray:
    """Cell index per point, -1 outside all cells, in slices of ``_SLICE``."""
    out = np.empty(points.shape[0], dtype=np.int64)
    for start in range(0, points.shape[0], _SLICE):
        sl = slice(start, start + _SLICE)
        idx, inside = alphabet.nearest_cell(points[sl])
        out[sl] = np.where(inside, idx, -1)
    return out


def _off_heap(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a`` in an anonymous memory map of its own.

    For arrays that outlive the scratch arrays built beside them.  A malloc
    block left among freed scratch pins that space as a hole in the heap,
    and whether later arrays fit the hole depends on the heap's layout, so
    the peak memory of later operations can vary from run to run of the
    same code.  Kept on the heap, the grid partition raised the peak of
    propagating and binning 512 x 512 fields, the benchmark's
    optics_crosscheck peak_mem_mb, from 104.29 to 110.28 MB on a 2-core
    Xeon: 6.0 MB, in 4 of 4 alternating pairs of runs.  About 1.8 MB of
    that is the partition itself, which the shared map keeps out of the
    benchmark's anonymous-RSS reading.
    """
    out = np.frombuffer(mmap.mmap(-1, max(a.nbytes, 1)), dtype=a.dtype,
                        count=a.size).reshape(a.shape)
    out[...] = a
    out.flags.writeable = False
    return out


def _grid_partition(alphabet: HexAlphabet, n: int,
                    extent: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell of every pixel and boundary sub-point of one grid, cached.

    Returns ``(pixel_ids, boundary, sub_ids)``: ``pixel_ids`` holds one bin
    per pixel in flat order, the cell index plus one (bin 0 for outside all
    cells, bin ``d + 1`` for a boundary pixel); ``boundary`` the flat indices
    of the boundary pixels; ``sub_ids`` the bins of their 8 x 8 sub-points,
    pixel by pixel.  The alphabet keeps the last partition it computed, so a
    new grid replaces it, and keeps it read-only and off the malloc heap
    (see ``_off_heap``).
    """
    key = (n, extent)
    cached = alphabet._partition
    if cached is not None and cached[0] == key:
        return cached[1:]
    c = grid_coords(n, extent)
    step = 2.0 * extent / n
    x, y = np.meshgrid(c, c, indexing="ij")
    pts = np.column_stack([x.ravel(), y.ravel()])
    ids = _classify_points(pts, alphabet).reshape(n, n)

    boundary = np.zeros((n, n), dtype=bool)
    boundary[:-1, :] |= ids[:-1, :] != ids[1:, :]
    boundary[1:, :] |= ids[1:, :] != ids[:-1, :]
    boundary[:, :-1] |= ids[:, :-1] != ids[:, 1:]
    boundary[:, 1:] |= ids[:, 1:] != ids[:, :-1]

    pixel_ids = (ids + 1).astype(np.int32).ravel()
    flat = np.flatnonzero(boundary)
    pixel_ids[flat] = alphabet.d + 1
    bi, bj = np.divmod(flat, n)
    offsets = ((np.arange(_SUBSAMPLES) + 0.5) / _SUBSAMPLES - 0.5) * step
    ox, oy = np.meshgrid(offsets, offsets, indexing="ij")
    sub = np.column_stack([
        (c[bi][:, None] + ox.ravel()[None, :]).ravel(),
        (c[bj][:, None] + oy.ravel()[None, :]).ravel(),
    ])
    sub_ids = (_classify_points(sub, alphabet) + 1).astype(np.int32)
    parts = tuple(_off_heap(a) for a in (pixel_ids, flat, sub_ids))
    object.__setattr__(alphabet, "_partition", (key, *parts))
    return parts


def bin_probabilities(imap: IntensityMap,
                      alphabet: HexAlphabet) -> tuple[np.ndarray, float]:
    """Integrate a detection density over each cell of the alphabet.

    Interior pixels are assigned whole to their cell by the midpoint rule;
    pixels on a cell boundary are split by an 8 x 8 subgrid.  Returns
    per-cell probabilities and the residual outside all cells; together
    they add up to the map integral.

    Which cell each pixel and sub-point falls in depends on the grid alone.
    The first call for a grid (``n``, ``extent``) decodes ``n**2`` pixels
    plus 64 points per boundary pixel, and the alphabet keeps that one
    partition.  Later calls on the same grid are O(n**2) array passes over
    the map.
    """
    pixel_ids, boundary, sub_ids = _grid_partition(
        alphabet, imap.n, imap.extent)
    mass = (imap.values * imap.step ** 2).ravel()
    # Bin d + 1 collects the boundary pixels and is dropped; their mass goes
    # in again through the sub-points, in the same order as per pixel.
    acc = np.zeros(alphabet.d + 2)
    np.add.at(acc, pixel_ids, mass)
    weights = np.repeat(mass[boundary] / _SUBSAMPLES ** 2, _SUBSAMPLES ** 2)
    np.add.at(acc, sub_ids, weights)
    return acc[1:-1], float(acc[0])


@dataclass(frozen=True)
class RiskyCell:
    """A detection cell whose two-basis support is one-sided.

    ``reason`` is ``no_matched_support`` when the cell sees conjugate-basis
    intensity but essentially no matched-basis intensity (a detection there
    reveals basis information), or ``no_conjugate_support`` for the opposite
    imbalance.
    """

    label: str
    center: tuple[float, float]
    reason: str
    matched_support: float
    conjugate_support: float


def leakage_check(maps: ProbabilityMap, eps: float = 1e-4) -> list[RiskyCell]:
    """Flag detection cells supported in only one of the two bases.

    For each cell the matched support is the largest FF or II probability
    over source characters, the conjugate support the envelope's
    probability, which IF and FI share whatever was sent.  Cells with one
    support at or above ``eps`` and the other below are returned; a sound
    alphabet yields an empty list.
    """
    number("eps", eps, "(0, inf)")
    matched = np.maximum(maps.probs["FF"].max(axis=0), maps.probs["II"].max(axis=0))
    conj = maps.probs["IF"][0]
    flagged = []
    for j, label in enumerate(maps.cell_labels):
        if conj[j] >= eps and matched[j] < eps:
            reason = "no_matched_support"
        elif matched[j] >= eps and conj[j] < eps:
            reason = "no_conjugate_support"
        else:
            continue
        flagged.append(RiskyCell(label=label,
                                 center=(float(maps.cell_centers[j, 0]),
                                         float(maps.cell_centers[j, 1])),
                                 reason=reason,
                                 matched_support=float(matched[j]),
                                 conjugate_support=float(conj[j])))
    return flagged


def prune_alphabet(alphabet: HexAlphabet, labels) -> HexAlphabet:
    """Remove the given characters and their point-reflected partners.

    Keeping the alphabet closed under point reflection preserves the
    imaging-basis decode symmetry.  ``labels`` is a list or tuple; raises if
    a label is unknown or if nothing would remain.
    """
    if not isinstance(labels, (list, tuple)):  # a str would split
        raise ValueError(f"labels must be a list or tuple, got {labels!r}")
    drop = set()
    for label in labels:
        i = alphabet.index_of(label)
        drop.add(i)
        drop.add(alphabet.inverse_index(i))
    keep = [i for i in range(alphabet.d) if i not in drop]
    if not keep:
        raise ValueError("pruning would remove every character")
    return HexAlphabet(cell_radius=alphabet.cell_radius,
                       centers=alphabet.centers[keep],
                       labels=tuple(alphabet.labels[i] for i in keep))


def save_alphabet(alphabet: HexAlphabet, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(alphabet.to_dict(), fh, indent=2)
        fh.write("\n")


def load_alphabet(path: str | os.PathLike) -> HexAlphabet:
    with open(path, "r", encoding="ascii") as fh:
        return HexAlphabet.from_dict(json.load(fh))
