"""Independent brute-force references used to check the package numerics.

Everything here deliberately avoids the package's quadrature and binning
code paths: hexagon membership is a direct half-plane test and integrals are
midpoint Riemann sums on a dense subgrid.
"""

import numpy as np

SQRT3 = np.sqrt(3.0)


def hex_contains(points: np.ndarray, center, circumradius: float) -> np.ndarray:
    dx = points[..., 0] - center[0]
    dy = points[..., 1] - center[1]
    inr = circumradius * SQRT3 / 2.0 * (1.0 + 1e-12)
    return ((np.abs(dx) <= inr)
            & (np.abs(0.5 * dx + (SQRT3 / 2.0) * dy) <= inr)
            & (np.abs(-0.5 * dx + (SQRT3 / 2.0) * dy) <= inr))


def gaussian_mass_in_hex(cell_center, gauss_center, waist: float,
                         circumradius: float, nsub: int = 500) -> float:
    """Midpoint-rule mass of a unit Gaussian intensity over one hexagon."""
    half = circumradius
    xs = cell_center[0] + (np.arange(nsub) + 0.5) / nsub * 2 * half - half
    ys = cell_center[1] + (np.arange(nsub) + 0.5) / nsub * 2 * half - half
    x, y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([x, y], axis=-1)
    inside = hex_contains(pts, cell_center, circumradius)
    rsq = (x - gauss_center[0]) ** 2 + (y - gauss_center[1]) ** 2
    density = 2.0 / (np.pi * waist ** 2) * np.exp(-2.0 * rsq / waist ** 2)
    area = (2 * half / nsub) ** 2
    return float((density * inside).sum() * area)


def envelope_probs_bruteforce(centers: np.ndarray, circumradius: float,
                              waist: float, nsub: int = 400) -> np.ndarray:
    """Renormalized envelope mass per cell by midpoint sums."""
    raw = np.array([gaussian_mass_in_hex(c, (0.0, 0.0), waist, circumradius,
                                         nsub) for c in centers])
    return raw / raw.sum()


def gaussian_mass_in_hex_scanline(cell_center, gauss_center, waist: float,
                                  circumradius: float,
                                  nsub: int = 2000) -> float:
    """Scanline reference: exact erf integral along x, midpoint rule in y.

    The hexagon (flat sides facing +-x) has a piecewise-linear half-width
    in y, so integrating each of the three kink-free bands separately keeps
    the midpoint rule smooth and fast-converging.
    """
    from scipy.special import erf

    a = circumradius
    sigma = waist / 2.0
    cx, cy = cell_center
    gx, gy = gauss_center
    total = 0.0
    for lo, hi in ((-a, -a / 2), (-a / 2, a / 2), (a / 2, a)):
        ys = lo + (np.arange(nsub) + 0.5) * (hi - lo) / nsub
        width = (hi - lo) / nsub
        half = np.where(np.abs(ys) <= a / 2, SQRT3 / 2.0 * a,
                        SQRT3 * np.clip(a - np.abs(ys), 0.0, None))
        zr = (cx + half - gx) / (sigma * np.sqrt(2.0))
        zl = (cx - half - gx) / (sigma * np.sqrt(2.0))
        px = 0.5 * (erf(zr) - erf(zl))
        py = np.exp(-((ys + cy - gy) ** 2) / (2.0 * sigma ** 2)) \
            / (sigma * np.sqrt(2.0 * np.pi))
        total += float((px * py).sum()) * width
    return total


def nearest_center_bruteforce(points: np.ndarray, centers: np.ndarray,
                              spacing: float, rtol: float = 1e-12) -> np.ndarray:
    """Index of the nearest center from the full distance matrix.

    Centers whose distance is within ``rtol * spacing`` of the smallest are
    tied; the lowest tied index wins.
    """
    dist = np.hypot(points[:, None, 0] - centers[None, :, 0],
                    points[:, None, 1] - centers[None, :, 1])
    tied = dist <= dist.min(axis=1, keepdims=True) + rtol * spacing
    return np.argmax(tied, axis=1)
