"""Independent brute-force references used to check the package numerics.

Everything here deliberately avoids the package's quadrature and binning
code paths: hexagon membership is a direct half-plane test and integrals are
midpoint Riemann sums on a dense subgrid.  The binning reference decodes
with ``nearest_cell`` but recomputes the whole grid on every call, the
field references build full 2-D meshgrids, and the lens-chain reference
computes one centered FFT per lens.  The unit-field, chain and map
references repeat the optics layer's arithmetic with plain allocating
expressions, where the package scales and transforms planes in place.  The
mutual information is computed from the full joint distribution with both
marginals, where the package has only its closed form.  The session
reference runs each round in plain Python and decodes by the full distance
matrix.  The dense probability table does use the package's hexagon
quadrature, since that is checked above, but integrates every (source, cell)
pair, where the package skips the cells beyond its cutoff and integrates
each lattice offset once.  The direct polygon integral evaluates the normal
distribution and density at every node of every edge, where the package
evaluates each distinct coordinate row of a polygon set once.  The lattice
centres are walked site by site, where the package takes one cumulative sum
per ring.  The sifted intercept-resend error reads the package's
probability table but derives each branch's weight from detection, where
the package draws rounds.
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


def probability_table_dense(model, region=None):
    """The model's probability table with every FF and II entry integrated:
    one quadrature row per source character and block, over every cell of
    ``region`` (the alphabet by default)."""
    from spatialqkd.alphabet import ProbabilityMap
    from spatialqkd.model import gaussian_polygon_integral, hex_vertices

    region = model.alphabet if region is None else region
    polys = hex_vertices(region.centers, region.cell_radius)
    ff = np.empty((model.alphabet.d, region.d))
    ii = np.empty_like(ff)
    for k, center in enumerate(model.alphabet.centers):
        ff[k] = gaussian_polygon_integral(center, model.aperture_waist, polys)
        ii[k] = gaussian_polygon_integral(-center, model.aperture_waist, polys)
    return ProbabilityMap(cell_labels=region.labels, cell_centers=region.centers,
                          source_labels=model.alphabet.labels,
                          matched={"FF": ff, "II": ii},
                          envelope=model._envelope_masses(region),
                          _owned=True)


def polygon_integral_direct(center, waist: float,
                            polygons: np.ndarray) -> np.ndarray:
    """Gaussian mass over each polygon by the edge decomposition, every
    edge node evaluated in turn, in slices of 8192 node values."""
    x_gl, w_gl = np.polynomial.legendre.leggauss(32)
    t_gl, wt_gl = 0.5 * (x_gl + 1.0), 0.5 * w_gl
    polys = np.asarray(polygons, dtype=np.float64)
    sigma = waist / 2.0
    out = np.empty(polys.shape[0])
    step = max(1, 8192 // (polys.shape[1] * 32))
    for s in range(0, polys.shape[0], step):
        p1 = (polys[s:s + step] - np.asarray(center, dtype=np.float64)) / sigma
        p2 = np.roll(p1, -1, axis=1)
        x = p1[..., 0, None] + (p2[..., 0] - p1[..., 0])[..., None] * t_gl
        y = p1[..., 1, None] + (p2[..., 1] - p1[..., 1])[..., None] * t_gl
        cdf_x = 0.5 * (1.0 + special.erf(x / np.sqrt(2.0)))
        pdf_y = np.exp(-0.5 * y * y) / np.sqrt(2.0 * np.pi)
        edge = (p2[..., 1] - p1[..., 1]) * np.sum(cdf_x * pdf_y * wt_gl, axis=-1)
        out[s:s + step] = edge.sum(axis=-1)
    return out


def ring_sites_reference(ring: int, spacing: float) -> np.ndarray:
    """One hexagonal ring's sites, walked counterclockwise from ``ring * u``
    one step at a time."""
    if ring == 0:
        return np.zeros((1, 2))
    u = np.array([spacing, 0.0])
    v = np.array([0.5 * spacing, 0.5 * SQRT3 * spacing])
    dirs = [u, v, v - u, -u, -v, u - v]
    pos = ring * u
    sites = []
    for side in range(6):
        step = dirs[(side + 2) % 6]
        for _ in range(ring):
            sites.append(pos.copy())
            pos = pos + step
    return np.array(sites)


def packed_centers_reference(envelope_radius: float,
                             cell_radius: float) -> np.ndarray:
    """The packed alphabet's centres, site by site: every lattice site in
    spiral order whose cell fits the circle, or the centre alone."""
    spacing = cell_radius * SQRT3
    kept = [site for ring in range(int(np.ceil(envelope_radius / spacing)) + 2)
            for site in ring_sites_reference(ring, spacing)
            if np.hypot(*site) + cell_radius <= envelope_radius * (1.0 + 1e-9)]
    return np.array(kept) if kept else np.zeros((1, 2))


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


def unit_field_reference(amp, extent, wavelength):
    """``amp`` at unit power: a complex copy, ``|amp|**2`` summed, and one
    division into a new array."""
    from spatialqkd.optics import GeometryError, OpticalField

    amp = np.asarray(amp, dtype=np.complex128)
    power = float(np.sum(np.abs(amp) ** 2) * (2.0 * extent / amp.shape[0]) ** 2)
    if power <= 0:
        raise GeometryError("cannot normalize a zero-power field")
    return OpticalField(amp / np.sqrt(power), extent, wavelength)


def chain_reference(field, focal_lengths):
    """``propagate_chain``'s one-transform output, each plane a new array:
    ``lens_by_lens`` over the first lens, then the point inversion and the
    ratios ``f_j / f_(j+1)``.  No containment checks."""
    from spatialqkd.optics import OpticalField

    k = len(focal_lengths)
    if not k:
        return field
    first = lens_by_lens(field, focal_lengths[:1])
    extent = field.extent
    for f in focal_lengths:
        extent = field.wavelength * f * field.n / (4.0 * extent)
    out = (first if k % 2 else field).samples
    if k // 2 % 2:
        out = np.roll(np.flip(out, axis=(0, 1)), 1, axis=(0, 1))
    for j in range(k % 2 + 2, k + 1, 2):
        out = out * (focal_lengths[j - 2] / focal_lengths[j - 1])
    return OpticalField(out, extent, field.wavelength)


def probability_map_values_reference(field) -> np.ndarray:
    """``|samples|**2`` divided by its integral, each step a new array."""
    intensity = np.abs(field.samples) ** 2
    return intensity / float(np.sum(intensity) * field.step ** 2)


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


def intercept_resend_sifted_error(model, probs, eta) -> np.ndarray:
    """Per-character sifted error under intercept-resend, weighting each
    branch by Bob's detection probability, which sifting conditions on.

    From ``probability_table()``: ``D_k`` is the FF row sum, ``e_k`` the
    FF row's off-diagonal share and ``D_env`` the envelope row sum.  The II
    block is the point inversion of FF and is decoded in the un-inverted
    frame, so one rate serves both matched blocks.  An untapped photon
    (weight ``1 - eta``) errs with ``e_k``, one resent in the sender's basis
    (``eta / 2``) with about ``2 e_k``, and one resent in the other basis
    (``eta / 2``) lands in the envelope and errs with ``1 - P_k``, the
    paper's closed form.
    """
    table = model.probability_table()
    ff = table.probs["FF"]
    d_k = ff.sum(axis=1)
    e_k = 1.0 - np.diagonal(ff) / d_k
    d_env = float(table.probs["IF"][0].sum())
    num = ((1.0 - eta) * d_k * e_k + eta / 2 * d_k * 2.0 * e_k
           + eta / 2 * d_env * (1.0 - probs))
    return num / ((1.0 - eta) * d_k + eta / 2 * d_k + eta / 2 * d_env)


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


def _decode_bruteforce(points, alphabet, chunk: int = 4096):
    """Nearest cell of each point by :func:`nearest_center_bruteforce` and
    whether the point lies in it by :func:`hex_contains`, as lists."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    near = np.concatenate([np.zeros(0, np.intp)] + [
        nearest_center_bruteforce(points[i:i + chunk], alphabet.centers,
                                  alphabet.spacing)
        for i in range(0, len(points), chunk)])
    inside = hex_contains(points, alphabet.centers[near].T, alphabet.cell_radius)
    return near.tolist(), inside.tolist()


def off_lattice(alphabet):
    """``alphabet`` with every center a third of a spacing off its lattice
    site, so that decoding goes through the k-d tree."""
    from spatialqkd.alphabet import HexAlphabet

    return HexAlphabet.from_dict(
        {**alphabet.to_dict(),
         "centers": (alphabet.centers + (alphabet.spacing / 3.0, 0.0)).tolist()})


def estimate_full_mask(rng, config_code, sent, received, d, sample_fraction):
    """The sampled error counts over full-length masks of the sifted rows:
    ``(counts, wrong, average, sample_size, low_confidence, keep)``, the
    first two keyed by configuration label."""
    from spatialqkd.protocol import MIN_SAMPLES_PER_CHAR

    ns = sent.shape[0]
    k = min(ns, int(round(sample_fraction * ns))) if ns else 0
    if ns and sample_fraction > 0:
        k = max(k, 1)
    sample = np.zeros(ns, dtype=bool)
    if k:
        sample[rng.choice(ns, size=k, replace=False)] = True
    counts, wrong, low = {}, {}, k == 0
    for code, key in ((1, "FF"), (0, "II")):
        mask = sample & (config_code == code)
        counts[key] = np.bincount(sent[mask], minlength=d)
        wrong[key] = np.bincount(sent[mask & (sent != received)], minlength=d)
        low = low or bool((counts[key] < MIN_SAMPLES_PER_CHAR).any())
    total = sum(int(w.sum()) for w in wrong.values())
    return (counts, wrong, total / k if k else float("nan"), k, low, ~sample)


def attack_draws(rng, m):
    """The attacker's draws for ``m`` rounds, in the order the ``protocol``
    docstring lists: tap uniforms, basis codes and (m, 2) position noise."""
    return (rng.random(m), rng.integers(0, 2, m).astype(np.int8),
            rng.standard_normal((m, 2)))


def measure_draws(rng, m, d):
    """All five of the receiver's draws for ``m`` rounds over ``d`` cells, in
    the order the ``protocol`` docstring lists, whatever the noise reads."""
    return (rng.standard_normal((m, 2)), rng.standard_normal((m, 2)),
            rng.random(m), rng.integers(0, d, m), rng.random(m))


def session_reference(config):
    """A session run round by round in plain Python, from the docstrings.

    Each batch makes the generator calls the ``protocol`` docstring lists,
    in order and at full batch size.  The characters come from numpy's own
    ``rng.choice(d, size=m, p=P)``, on purpose, so the engine's guide-table
    draw is checked against the values that call returns.  Each round then
    takes the position ``sign * (c + sigma * noise)`` of
    :func:`sample_plane_reference` (plus ``sign`` times the jitter), the
    nearest centre by brute force and the hexagon test, the attacker's
    scalar evidence scores, and background before loss.  Sifting, the
    error-estimation sample and the flattening follow.  Returns the eight
    round columns (as the log's dtypes), the ``stats.json`` text and the two
    keys.
    """
    import json
    import math

    from spatialqkd.protocol import (_ESTIMATE_STREAM, _FLATTEN_STREAM,
                                     MIN_SAMPLES_PER_CHAR, STREAM_CHUNK)

    alphabet = config.build_alphabet()
    model = config.build_model(alphabet)
    d, labels, centers = alphabet.d, alphabet.labels, alphabet.centers.tolist()
    probs = model.source()
    adv, noise = config.adversary, config.noise
    n, seed = config.session.rounds, config.session.seed
    sig_ap, sig_env = model.aperture_waist / 2.0, model.envelope_waist / 2.0
    area = float(alphabet.cell_area)
    beta = d * noise.background_prob / (1.0 + d * noise.background_prob)
    suppress = (adv.strategy == "suppress_on_evidence"
                and adv.evidence_threshold > 0)

    def position(nx, ny, prep, cell, meas):
        sign = 2.0 * meas - 1.0
        cx, cy = ((sign * centers[cell][0], sign * centers[cell][1])
                  if prep == meas else (0.0, 0.0))
        sigma = sig_ap if prep == meas else sig_env
        return sign * (cx + sigma * nx), sign * (cy + sigma * ny)

    def density(r2, sigma):
        return (area * math.exp(-0.5 * r2 / sigma ** 2)
                / (2.0 * math.pi * sigma ** 2))

    cols = {name: [] for name in ("alice_basis", "bob_basis", "sent",
                                  "received", "attacked", "eve_basis",
                                  "eve_measured", "eve_dropped")}
    for batch, start in enumerate(range(0, n, STREAM_CHUNK)):
        m = min(STREAM_CHUNK, n - start)
        rng = np.random.default_rng([seed, batch])
        a_basis = rng.integers(0, 2, m).tolist()
        a_idx = rng.choice(d, size=m, p=probs).tolist()
        if adv.active:
            tapped = (rng.random(m) < adv.eta).tolist()
            e_basis = rng.integers(0, 2, m).tolist()
            e_noise = rng.standard_normal((m, 2)).tolist()
            e_pos = [position(*e_noise[i], a_basis[i], a_idx[i], e_basis[i])
                     for i in range(m)]
            e_idx, _ = _decode_bruteforce(e_pos, alphabet)
        else:
            tapped, e_basis, e_idx = [False] * m, [0] * m, [-1] * m
        b_basis = rng.integers(0, 2, m).tolist()
        b_noise = rng.standard_normal((m, 2)).tolist()
        jitter = rng.standard_normal((m, 2)).tolist()
        bg_u, bg_cell = rng.random(m).tolist(), rng.integers(0, d, m).tolist()
        loss_u = rng.random(m).tolist()

        dropped, b_pos = [], []
        for i in range(m):
            drop = False
            if tapped[i] and suppress:
                x, y = e_pos[i]
                rx, ry = x - centers[e_idx[i]][0], y - centers[e_idx[i]][1]
                same = density(rx * rx + ry * ry, sig_ap)
                crossed = density(x * x + y * y, sig_env)
                eps = adv.evidence_threshold
                drop = same < eps and crossed >= eps
            dropped.append(drop)
            prep, cell = ((e_basis[i], e_idx[i]) if tapped[i]
                          else (a_basis[i], a_idx[i]))
            x, y = position(*b_noise[i], prep, cell, b_basis[i])
            sign = 2.0 * b_basis[i] - 1.0
            if noise.jitter_sigma:
                x += sign * (noise.jitter_sigma * jitter[i][0])
                y += sign * (noise.jitter_sigma * jitter[i][1])
            b_pos.append((x, y))
        near, inside = _decode_bruteforce(b_pos, alphabet)
        received = []
        for i in range(m):
            out = near[i] if inside[i] and not dropped[i] else -1
            if bg_u[i] < beta:
                out = bg_cell[i]
            if loss_u[i] < noise.loss_prob:
                out = -1
            received.append(out)
        for name, values in (("alice_basis", a_basis), ("bob_basis", b_basis),
                             ("sent", a_idx), ("received", received),
                             ("attacked", tapped), ("eve_basis", e_basis),
                             ("eve_measured", e_idx), ("eve_dropped", dropped)):
            cols[name] += values

    rounds = range(n)
    sifted = [i for i in rounds if cols["alice_basis"][i] == cols["bob_basis"][i]
              and cols["received"][i] >= 0]
    ns = len(sifted)
    fraction = config.session.sample_fraction
    k = max(min(ns, int(round(fraction * ns))), 1) if ns else 0
    est_rng = np.random.default_rng([seed, _ESTIMATE_STREAM])
    chosen = set(est_rng.choice(ns, size=k, replace=False).tolist()) if k else set()
    per_char, counts, wrong, low = {}, {}, 0, k == 0
    for code, key in ((1, "FF"), (0, "II")):
        n_c, w_c = [0] * d, [0] * d
        for j in chosen:
            i = sifted[j]
            if cols["alice_basis"][i] == code:
                n_c[cols["sent"][i]] += 1
                w_c[cols["sent"][i]] += cols["sent"][i] != cols["received"][i]
        per_char[key] = {lab: w / c if c else None
                         for lab, w, c in zip(labels, w_c, n_c)}
        counts[key] = dict(zip(labels, n_c))
        low = low or min(n_c) < MIN_SAMPLES_PER_CHAR
        wrong += sum(w_c)

    rest = [sifted[j] for j in range(ns) if j not in chosen]
    tape = np.random.default_rng([seed, _FLATTEN_STREAM]).random(len(rest)).tolist()
    p = probs.tolist()
    p_min = min(p)
    keys = [[labels[c] for c, u in zip((cols[col][i] for i in rest), tape)
             if u < p_min / p[c]] for col in ("sent", "received")]

    attacked = [i for i in rounds if cols["attacked"][i]]
    hits = [cols["eve_measured"][i] for i in attacked
            if cols["eve_basis"][i] == cols["alice_basis"][i]]
    eve_bits = 0.0
    if hits:
        freq = np.bincount(hits, minlength=d).astype(np.float64)
        freq = freq[freq > 0] / len(hits)
        eve_bits = len(hits) / len(attacked) * float(-(freq * np.log2(freq)).sum())
    detected = sum(r >= 0 for r in cols["received"])
    stats = {
        "rounds": n, "alphabet_size": d, "seed": seed,
        "strategy": adv.strategy, "eta": adv.eta, "detected": detected,
        "loss_rate": 1.0 - detected / n if n else 0.0, "sifted": ns,
        "sifted_fraction": ns / detected if detected else 0.0,
        "sent_histogram": {lab: cols["sent"].count(j)
                           for j, lab in enumerate(labels)},
        "error": {"average": wrong / k if k else None, "sample_size": k,
                  "low_confidence": low, "per_char": per_char,
                  "counts": counts},
        "eve": {"attacked": len(attacked),
                "dropped": sum(cols["eve_dropped"]),
                "matched_basis": len(hits),
                "info_bits_per_photon": eve_bits},
        "key": {"alice_length": len(keys[0]), "bob_length": len(keys[1]),
                "keep_fraction": len(keys[0]) / len(rest) if rest else 0.0,
                "expected_keep_fraction": float(d * probs.min())},
    }
    dtypes = {"alice_basis": np.int8, "bob_basis": np.int8, "eve_basis": np.int8,
              "attacked": bool, "eve_dropped": bool}
    columns = {name: np.array(values, dtype=dtypes.get(name, np.int64))
               for name, values in cols.items()}
    return columns, json.dumps(stats, indent=2, sort_keys=True), keys[0], keys[1]
