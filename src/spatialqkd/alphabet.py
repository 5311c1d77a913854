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

import numpy as np
from scipy.spatial import cKDTree

from ._checks import count, number
from ._csv import row_blocks, write_csv
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
#: Points nearer than this fraction of the spacing to an edge of their
#: lattice cell are left to the tree, which applies the tie rule exactly.
_EDGE_RTOL = 1e-9
#: Centers within this fraction of the spacing of a lattice site count as on
#: the lattice.  Far below ``_EDGE_RTOL``, so a point clear of its cell's
#: edges by that margin is nearest to the cell's center.
_LATTICE_RTOL = 1e-11
_HALF_SQRT3 = np.sqrt(3.0) / 2.0
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


def _cube_round(x: np.ndarray, y: np.ndarray,
                spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Axial coordinates ``(q, r)`` of the nearest lattice site, as floats.

    The lattice has basis ``u = (s, 0)`` and ``v = (s / 2, s * sqrt(3) / 2)``
    with ``s`` the spacing.  Each cube coordinate ``(q, r, -q - r)`` is
    rounded, and the one that moved most is recomputed from the other two.
    """
    r = y / (_HALF_SQRT3 * spacing)
    q = x / spacing - 0.5 * r
    t = -q - r
    rq, rr, rt = np.rint(q), np.rint(r), np.rint(t)
    dq, dr, dt = np.abs(rq - q), np.abs(rr - r), np.abs(rt - t)
    fix_q = (dq > dr) & (dq > dt)
    fix_r = ~fix_q & (dr > dt)
    return (np.where(fix_q, -rr - rt, rq), np.where(fix_r, -rq - rt, rr))


def _lattice_sites(centers: np.ndarray,
                   spacing: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Axial coordinates ``(q, r)`` of each center's lattice site, as floats,
    or None when a center lies more than ``_LATTICE_RTOL`` of the spacing
    from every site of the lattice anchored at the origin."""
    q, r = _cube_round(centers[:, 0], centers[:, 1], spacing)
    off = np.hypot(spacing * (q + 0.5 * r) - centers[:, 0],
                   _HALF_SQRT3 * spacing * r - centers[:, 1])
    return None if off.max() > _LATTICE_RTOL * spacing else (q, r)


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
    rings : int or None
        Number of complete rings when the alphabet was built that way;
        ``d`` is then ``1 + 3 * rings * (rings + 1)``.
    """

    cell_radius: float
    centers: np.ndarray
    labels: tuple[str, ...]
    rings: int | None = None

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
        if self.rings is not None:
            count("rings", self.rings, 0)
            if c.shape[0] != 1 + 3 * self.rings * (self.rings + 1):
                raise ValueError(f"rings={self.rings} disagrees with d={c.shape[0]}")
        tree = cKDTree(c)
        if c.shape[0] > 1 and (tree.query(c, k=2)[0][:, 1].min()
                               < self.spacing * (1.0 - 1e-9)):
            raise ValueError("cell centers closer than one lattice spacing")
        object.__setattr__(self, "_tree", tree)
        object.__setattr__(self, "_lattice", self._lattice_table())
        # One grid partition, ``(key, pixel_ids, boundary, sub_ids)``; see
        # ``_grid_partition``.
        object.__setattr__(self, "_partition", None)

    def _lattice_table(self) -> tuple[np.ndarray, float, float] | None:
        """``(table, q0, r0)`` with ``table[q - q0, r - r0]`` the index of the
        cell at lattice site ``(q, r)``, -1 for no cell; a border of -1 lies
        around the pattern.  None when a center is off the lattice anchored
        at the origin, or when the centers are too sparse for a dense table
        (a compact pattern fills about three quarters of it)."""
        sites = _lattice_sites(self.centers, self.spacing)
        if sites is None:
            return None
        q, r = sites
        q0, r0 = q.min() - 1.0, r.min() - 1.0
        shape = (int(q.max() - q0) + 2, int(r.max() - r0) + 2)
        if shape[0] * shape[1] > 16 * self.d + 4096:
            return None
        table = np.full(shape, -1, dtype=np.intp)
        table[(q - q0).astype(np.intp), (r - r0).astype(np.intp)] = \
            np.arange(self.d)
        return table, q0, r0

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

        A point inside the pattern costs O(1): it is rounded to the lattice
        and its site looked up in a table.  The other points cost O(log d)
        each, in a k-d tree query over the centers: points outside the
        pattern or in a pruned hole (which still have a nearest cell),
        points within 1e-9 spacings of a cell edge, and every point of an
        alphabet whose centers are off the lattice.  Only these get the
        hexagon membership test: a point the table clears is inside its
        cell by a margin of 1e-9 spacings, far beyond rounding.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        idx, inside = (self._lattice_nearest(pts) if self._lattice is not None
                       else (np.empty(len(pts), np.intp), np.zeros(len(pts), bool)))
        rest = np.flatnonzero(~inside)
        idx[rest] = near = self._tree_nearest(pts[rest])
        inside[rest] = hexagon_mask(*pts[rest].T, self.centers.take(near, axis=0).T,
                                    self.cell_radius)
        return idx, inside

    def _lattice_nearest(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell at each point's nearest lattice site (-1 for none), and
        whether that cell is certain: a cell exists and the point is clear
        of its edges by ``_EDGE_RTOL`` of the spacing."""
        table, q0, r0 = self._lattice
        q, r = _cube_round(pts[:, 0], pts[:, 1], self.spacing)
        qi = np.clip(q - q0, 0, table.shape[0] - 1).astype(np.intp)
        ri = np.clip(r - r0, 0, table.shape[1] - 1).astype(np.intp)
        idx = table.take(qi * table.shape[1] + ri)
        clear = (idx >= 0) & hexagon_mask(
            *pts.T, self.centers.take(idx, axis=0).T, self.cell_radius,
            -2 * _EDGE_RTOL)
        return idx, clear

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
            "rings": self.rings,
            "labels": list(self.labels),
            "centers": [[float(x), float(y)] for x, y in self.centers],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HexAlphabet":
        return cls(cell_radius=data["cell_radius"],
                   centers=np.asarray(data["centers"], dtype=np.float64),
                   labels=data["labels"],
                   rings=data.get("rings"))


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
                       labels=_spiral_labels(len(centers)), rings=rings)


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
                       labels=_spiral_labels(len(centers)), rings=None)


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
        cells = np.array(self.cell_labels + (_RESIDUAL,), dtype="S")
        sources = np.array(self.source_labels, dtype="S")
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
    propagating and binning 512 x 512 fields by 7.7 MB in 2 of 30 runs.
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
                       labels=tuple(alphabet.labels[i] for i in keep),
                       rings=None)


def save_alphabet(alphabet: HexAlphabet, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(alphabet.to_dict(), fh, indent=2)
        fh.write("\n")


def load_alphabet(path: str | os.PathLike) -> HexAlphabet:
    with open(path, "r", encoding="ascii") as fh:
        return HexAlphabet.from_dict(json.load(fh))
