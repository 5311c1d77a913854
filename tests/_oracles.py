"""Independent brute-force references used to check the package numerics.

Everything here deliberately avoids the package's quadrature and binning
code paths: hexagon membership is a direct half-plane test and integrals are
midpoint Riemann sums on a dense subgrid.  The binning reference decodes
with ``nearest_cell`` but recomputes the whole grid on every call, the
field references build full 2-D meshgrids, and the lens-chain reference
computes one centered FFT per lens.  The mutual information is computed
from the full joint distribution with both marginals, where the package has
only its closed form.
"""

import numpy as np
from scipy import special

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


def crossed_source_reference(maps) -> np.ndarray:
    """Character probabilities read off a table's crossed configurations:
    the IF and FI rows averaged over source characters, then renormalized
    over the cells."""
    mixed = 0.5 * (maps.probs["IF"].mean(axis=0) + maps.probs["FI"].mean(axis=0))
    return mixed / mixed.sum()


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


def bin_probabilities_reference(imap, alphabet, subsamples: int = 8):
    """Per-call grid binning: classify every pixel, then split boundary
    pixels by a ``subsamples x subsamples`` subgrid, for one map.

    Cells come from ``alphabet.nearest_cell``; nothing is cached, so each
    call decodes the whole grid.  Returns per-cell masses and the residual.
    """
    def classify(points):
        idx, inside = alphabet.nearest_cell(points)
        return np.where(inside, idx, -1)

    n, step = imap.n, imap.step
    c = imap.coords()
    x, y = np.meshgrid(c, c, indexing="ij")
    ids = classify(np.column_stack([x.ravel(), y.ravel()])).reshape(n, n)
    mass = imap.values * step ** 2

    boundary = np.zeros((n, n), dtype=bool)
    boundary[:-1, :] |= ids[:-1, :] != ids[1:, :]
    boundary[1:, :] |= ids[1:, :] != ids[:-1, :]
    boundary[:, :-1] |= ids[:, :-1] != ids[:, 1:]
    boundary[:, 1:] |= ids[:, 1:] != ids[:, :-1]

    acc = np.zeros(alphabet.d + 1)
    keep = ~boundary
    np.add.at(acc, ids[keep] + 1, mass[keep])

    bi, bj = np.nonzero(boundary)
    if bi.size:
        offsets = ((np.arange(subsamples) + 0.5) / subsamples - 0.5) * step
        ox, oy = np.meshgrid(offsets, offsets, indexing="ij")
        sub = np.column_stack([
            (c[bi][:, None] + ox.ravel()[None, :]).ravel(),
            (c[bj][:, None] + oy.ravel()[None, :]).ravel(),
        ])
        sub_ids = classify(sub)
        weights = np.repeat(mass[bi, bj] / subsamples ** 2, subsamples ** 2)
        np.add.at(acc, sub_ids + 1, weights)
    return acc[1:], float(acc[0])


def gaussian_aperture_2d(coords: np.ndarray, waist: float, center) -> np.ndarray:
    """Unnormalized Gaussian aperture amplitude from the full 2-D meshgrid."""
    x, y = np.meshgrid(coords, coords, indexing="ij")
    return np.exp(-((x - center[0]) ** 2 + (y - center[1]) ** 2) / waist ** 2)


def crossed_gaussian_2d(coords: np.ndarray, k: float, focal: float,
                        waist: float, center) -> np.ndarray:
    """Unnormalized crossed-basis amplitude of a displaced Gaussian aperture,
    ``exp(-w**2 |q|**2 / 4) exp(-i q . c)`` at ``q = k rho / focal``, from
    the full 2-D meshgrid."""
    x, y = np.meshgrid(coords, coords, indexing="ij")
    qx, qy = k * x / focal, k * y / focal
    return (np.exp(-(waist ** 2 / 4.0) * (qx ** 2 + qy ** 2))
            * np.exp(-1j * (qx * center[0] + qy * center[1])))


def airy_amplitude_2d(coords: np.ndarray, k: float, focal: float,
                      radius: float) -> np.ndarray:
    """Unnormalized crossed-basis modulus of a circular aperture of given
    radius, the Airy pattern ``|2 J1(q a) / (q a)|`` at ``q = k rho / focal``,
    from the full 2-D meshgrid."""
    x, y = np.meshgrid(coords, coords, indexing="ij")
    qa = k * np.hypot(x, y) / focal * radius
    safe = np.where(qa > 0, qa, 1.0)
    return np.abs(np.where(qa > 0, 2.0 * special.j1(safe) / safe, 1.0))


def lens_by_lens(field, focal_lengths):
    """A field propagated through confocal lenses one transform per lens:
    the centered FFT scaled by ``step**2 / (lam * f)`` onto a grid of
    half-extent ``lam * f * n / (4 * extent)``, with no containment checks."""
    from spatialqkd.optics import OpticalField

    out = field
    for f in focal_lengths:
        ft = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(out.samples)))
        out = OpticalField(ft * (out.step ** 2 / (out.wavelength * f)),
                           out.wavelength * f * out.n / (4.0 * out.extent),
                           out.wavelength)
    return out


def csv_text_reference(header, blocks) -> str:
    """CSV text built field by field: each block is a tuple of columns of
    field strings, and each row is their comma join."""
    lines = [",".join(header) + "\n"]
    for columns in blocks:
        lines += [",".join(row) + "\n" for row in zip(*columns)]
    return "".join(lines)


def mutual_information_exact(p, errors) -> float:
    """Exact mutual information, in bits, of the joint in which character
    ``k`` stays intact with probability ``1 - E_k`` and otherwise lands on
    ``j != k`` with probability proportional to ``P_j``."""
    p = np.asarray(p, dtype=np.float64)
    e = np.broadcast_to(np.asarray(errors, dtype=np.float64), p.shape)
    if p.size == 1:
        return 0.0
    joint = np.outer(p * e / (1.0 - p), p)
    np.fill_diagonal(joint, p * (1.0 - e))
    denom = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    mask = joint > 0
    terms = special.xlogy(joint[mask], joint[mask] / denom[mask])
    return float(terms.sum() / np.log(2.0))


def sample_plane_reference(model, noise, prep_code, idx, meas_code):
    """Detection-plane positions by the direct formula: the mean, ``sign``
    times the sent cell's center when matched and zero when crossed, plus
    the noise times the matched or envelope sigma, all flipped by ``sign``,
    the measuring arm's frame."""
    matched = prep_code == meas_code
    sign = (2 * meas_code.astype(np.int64) - 1).astype(np.float64)
    centers = np.where(matched[:, None],
                       sign[:, None] * model.alphabet.centers[idx], 0.0)
    sigma = np.where(matched, model.aperture_waist, model.envelope_waist) / 2.0
    return sign[:, None] * (centers + sigma[:, None] * noise)
