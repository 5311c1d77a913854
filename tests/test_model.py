import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spatialqkd import model as model_module
from spatialqkd.alphabet import (HexAlphabet, build_hex_alphabet,
                                 calibrate_envelope, prune_alphabet)
from spatialqkd.model import (GaussianModel, _cutoff, gaussian_polygon_integral,
                              hex_vertices)
from spatialqkd.optics import ALL_CONFIGS, BasisConfig, Geometry

from _oracles import (crossed_source_reference, envelope_probs_bruteforce,
                      gaussian_mass_in_hex, gaussian_mass_in_hex_scanline,
                      probability_table_dense, sample_plane_reference)
from test_transcripts import _OFF_LATTICE

_MODELS = {d: GaussianModel(build_hex_alphabet(rings, 200e-6))
           for d, rings in ((37, 3), (331, 10))}


#: Detection region of the ``wide`` case, wider than its alphabet.
_WIDE_REGION = build_hex_alphabet(3, 200e-6)
#: Fresh models for the stencil table checks, by case.
_TABLE_CASES = {
    "d7": lambda: GaussianModel(build_hex_alphabet(1, 200e-6)),
    "d37": lambda: GaussianModel(build_hex_alphabet(3, 200e-6)),
    "d331": lambda: GaussianModel(build_hex_alphabet(10, 200e-6)),
    "wide": lambda: GaussianModel(build_hex_alphabet(1, 200e-6)),
    "pruned": lambda: GaussianModel(
        prune_alphabet(build_hex_alphabet(3, 200e-6), ["1", "A", "Q"])),
    "off_lattice": lambda: GaussianModel(_OFF_LATTICE),
    "waist60": lambda: GaussianModel(build_hex_alphabet(3, 200e-6),
                                     Geometry(aperture_waist=60e-6)),
    "waist300": lambda: GaussianModel(build_hex_alphabet(3, 200e-6),
                                      Geometry(aperture_waist=300e-6)),
}


def _stencil_size(reach: float, spacing: float) -> int:
    """Lattice sites within ``reach`` of the origin."""
    n = 2 * int(reach / spacing) + 2
    q, r = np.meshgrid(np.arange(-n, n + 1), np.arange(-n, n + 1))
    return int(np.sum(np.hypot(spacing * (q + 0.5 * r),
                               np.sqrt(3.0) / 2.0 * spacing * r) <= reach))


def _counted_build(model: GaussianModel, monkeypatch,
                   region=None) -> tuple[object, int]:
    """The model's table over ``region`` and the number of polygons
    integrated for it."""
    polygons = []
    integral = model_module.gaussian_polygon_integral

    def counting(center, waist, polys):
        polygons.append(len(polys))
        return integral(center, waist, polys)

    monkeypatch.setattr(model_module, "gaussian_polygon_integral", counting)
    table = model.probability_table(region)
    monkeypatch.undo()
    return table, sum(polygons)
#: Zero of both signs, subnormal, huge and ordinary noise values.
_NOISE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300,
                     1.7e308, -1.7e308]),
    st.floats(min_value=-8.0, max_value=8.0))


class TestPolygonIntegral:
    def test_against_midpoint_oracle(self, alphabet37):
        """Coarse cross-check against a 2-D midpoint sum with half-plane
        membership; accuracy is limited by the jagged boundary pixels."""
        a = alphabet37.cell_radius
        polys = hex_vertices(alphabet37.centers[:8], a)
        exact = gaussian_polygon_integral((0.0, 0.0), 100e-6, polys)
        brute = [gaussian_mass_in_hex(c, (0.0, 0.0), 100e-6, a, nsub=1500)
                 for c in alphabet37.centers[:8]]
        assert np.max(np.abs(exact - np.array(brute))) < 2e-5

    def test_against_scanline_oracle(self, alphabet37):
        """Tight cross-check against an independent scanline integral."""
        a = alphabet37.cell_radius
        polys = hex_vertices(alphabet37.centers[:8], a)
        for gauss_center, waist in (((0.0, 0.0), 100e-6),
                                    ((150e-6, -80e-6), 100e-6),
                                    ((0.0, 0.0), 816.6655653793778e-6)):
            exact = gaussian_polygon_integral(gauss_center, waist, polys)
            scan = [gaussian_mass_in_hex_scanline(c, gauss_center, waist, a)
                    for c in alphabet37.centers[:8]]
            assert np.max(np.abs(exact - np.array(scan))) < 1e-7

    @given(shift=st.tuples(
        st.floats(min_value=-1e-3, max_value=1e-3),
        st.floats(min_value=-1e-3, max_value=1e-3)))
    def test_translation_invariance(self, alphabet37, shift):
        a = alphabet37.cell_radius
        shift = np.asarray(shift)
        base = hex_vertices(alphabet37.centers[:3], a)
        moved = base + shift
        ref = gaussian_polygon_integral((0.0, 0.0), 300e-6, base)
        got = gaussian_polygon_integral(shift, 300e-6, moved)
        assert np.allclose(got, ref, atol=1e-12)

    def test_whole_plane_partition(self, alphabet37):
        """Cell masses plus the leak outside the pattern account for all of
        the envelope."""
        waist = calibrate_envelope(alphabet37)
        polys = hex_vertices(alphabet37.centers, alphabet37.cell_radius)
        masses = gaussian_polygon_integral((0.0, 0.0), waist, polys)
        scan = sum(gaussian_mass_in_hex_scanline(c, (0.0, 0.0), waist,
                                                 alphabet37.cell_radius)
                   for c in alphabet37.centers)
        assert masses.sum() == pytest.approx(scan, abs=1e-8)
        assert masses.sum() == pytest.approx(0.9724547, abs=1e-6)
        assert np.all(masses > 0)


class TestEnvelopeDistribution:
    def test_matches_bruteforce(self, alphabet37):
        waist = calibrate_envelope(alphabet37)
        probs = GaussianModel(alphabet37).source()
        brute = envelope_probs_bruteforce(alphabet37.centers,
                                          alphabet37.cell_radius, waist)
        assert np.max(np.abs(probs - brute)) < 1e-5

    def test_frozen_values(self, probs37):
        assert probs37[0] == pytest.approx(0.097081, abs=2e-5)
        assert probs37.min() == pytest.approx(0.0044461, abs=2e-6)
        assert probs37.sum() == pytest.approx(1.0, abs=1e-12)

    def test_sixfold_symmetry(self, probs37, alphabet37):
        radii = np.round(np.hypot(*alphabet37.centers.T), 12)
        for r in np.unique(radii):
            group = probs37[radii == r]
            assert np.allclose(group, group[0], rtol=1e-10)

    def test_waist_override(self, alphabet37):
        wide = GaussianModel(alphabet37, envelope_waist=5e-3).source()
        assert np.ptp(wide) < 0.01  # nearly flat
        for waist in (True, 0.0, np.nan, np.inf, 10 ** 400):
            with pytest.raises(ValueError, match="envelope_waist"):
                GaussianModel(alphabet37, envelope_waist=waist)


class TestGaussianModel:
    def test_defaults(self, model37, geometry):
        assert model37.envelope_waist == pytest.approx(
            calibrate_envelope(model37.alphabet))
        assert model37.aperture_waist == geometry.aperture_waist

    def test_sample_positions_moments(self, model37, alphabet37):
        """Matched photons land on the sent cell in the decoder frame for
        both arms: the imaging pair's point inversion is undone."""
        n = 200_000
        sigma = model37.aperture_waist / 2
        tol = 5 * sigma / np.sqrt(n)
        noise = np.random.default_rng(7).standard_normal((n, 2))
        idx = np.full(n, 3)
        for code in (0, 1):
            basis = np.full(n, code, dtype=np.int8)
            pts = model37.sample_plane(noise, basis, idx, basis)
            assert pts.shape == (n, 2)
            assert np.allclose(pts.mean(axis=0), alphabet37.centers[3],
                               atol=tol)
            assert np.allclose(pts.std(axis=0), sigma, rtol=0.02)

    @given(d=st.sampled_from(sorted(_MODELS)), data=st.data())
    def test_sample_plane_matches_direct_formula(self, d, data):
        """Bit for bit, for random basis codes and cells and noise of every
        magnitude (signed zeros compare equal)."""
        model = _MODELS[d]
        m = data.draw(st.integers(min_value=1, max_value=24))
        noise = np.array(data.draw(st.lists(_NOISE, min_size=2 * m,
                                            max_size=2 * m))).reshape(m, 2)
        codes = st.lists(st.integers(0, 1), min_size=m, max_size=m)
        prep = np.array(data.draw(codes), dtype=np.int8)
        meas = np.array(data.draw(codes), dtype=np.int8)
        idx = np.array(data.draw(st.lists(st.integers(0, d - 1), min_size=m,
                                          max_size=m)))
        assert np.array_equal(model.sample_plane(noise, prep, idx, meas),
                              sample_plane_reference(model, noise, prep, idx,
                                                     meas))

    def test_sample_plane_all_code_pairs(self):
        """Every (prep, meas) pair on ordinary noise, both alphabets."""
        rng = np.random.default_rng(3)
        for d, model in _MODELS.items():
            m = 4 * d
            noise = rng.standard_normal((m, 2))
            prep = np.tile(np.array([0, 0, 1, 1], np.int8), d)
            meas = np.tile(np.array([0, 1, 0, 1], np.int8), d)
            idx = np.repeat(np.arange(d), 4)
            assert np.array_equal(model.sample_plane(noise, prep, idx, meas),
                                  sample_plane_reference(model, noise, prep,
                                                         idx, meas))

    def test_sample_positions_crossed_center(self, model37):
        n = 100_000
        noise = np.random.default_rng(8).standard_normal((n, 2))
        pts = model37.sample_plane(noise, np.ones(n, np.int8), np.full(n, 3),
                                   np.zeros(n, np.int8))
        sigma = model37.envelope_waist / 2
        assert np.allclose(pts.mean(axis=0), 0.0, atol=5 * sigma / np.sqrt(n))
        assert np.allclose(pts.std(axis=0), sigma, rtol=0.02)

    def test_probability_table_structure(self, model37, alphabet37):
        table = model37.probability_table()
        assert table.probs["FF"].shape == (37, 37)
        for k in range(37):
            inv = np.array([alphabet37.inverse_index(j) for j in range(37)])
            assert np.allclose(table.probs["II"][k], table.probs["FF"][k][inv])
        assert np.allclose(table.probs["IF"], table.probs["FI"])
        for label in ("FF", "II", "IF", "FI"):
            total = table.probs[label].sum(axis=1) + table.residual[label]
            assert np.allclose(total, 1.0, atol=1e-9)

    def test_table_stores_one_envelope_row(self, model37):
        table = model37.probability_table()
        assert np.shares_memory(table.probs["IF"], table.probs["FI"])
        assert table.probs["IF"].strides[0] == 0
        assert table.residual["IF"].strides[0] == 0
        for arrays in (table.probs, table.residual):
            assert sorted(arrays) == ["FF", "FI", "IF", "II"]
            for key, array in arrays.items():
                assert not array.flags.writeable, key

    def test_matched_diagonal(self, model37):
        table = model37.probability_table()
        diag = np.diag(table.probs["FF"])
        assert np.all(diag > 0.99)
        assert diag.min() == pytest.approx(0.9984573, abs=1e-5)

    @pytest.mark.parametrize("rings", [3, 10])
    def test_source_needs_no_table(self, rings, geometry, monkeypatch):
        model = GaussianModel(alphabet=build_hex_alphabet(rings, 200e-6),
                              geometry=geometry)

        def no_table(*args):
            raise AssertionError("source() integrated the matched blocks")

        monkeypatch.setattr(GaussianModel, "_neighbour_masses", no_table)
        src = model.source()
        monkeypatch.undo()
        assert np.array_equal(src, crossed_source_reference(
            model.probability_table()))

    def test_source_unchanged_by_wide_table(self, alphabet37, geometry):
        """A table over a wider region leaves the model's own cells as the
        source: ``source()`` equals that of a model that built no table."""
        model = GaussianModel(alphabet=build_hex_alphabet(1, 200e-6),
                              geometry=geometry)
        table = model.probability_table(alphabet37)
        assert table.cell_labels == alphabet37.labels
        fresh = GaussianModel(alphabet=build_hex_alphabet(1, 200e-6),
                              geometry=geometry)
        assert np.array_equal(model.source(), fresh.source())

    def test_region_cell_size_must_match(self, alphabet37, geometry):
        model = GaussianModel(alphabet=build_hex_alphabet(1, 150e-6),
                              geometry=geometry)
        with pytest.raises(ValueError, match="cell size"):
            model.probability_table(alphabet37)

    def test_intensity_grid_normalization(self, model37):
        for label in ("FF", "IF"):
            imap = model37.intensity_grid(BasisConfig.from_label(label), 0)
            assert imap.integral() == pytest.approx(1.0, abs=1e-6)

    def test_intensity_grid_peak_location(self, model37, alphabet37,
                                          geometry):
        """Matched maps peak on the sent cell (point-inverted for the imaging
        pair) with the aperture waist; crossed maps are the envelope, at the
        origin with its waist."""
        n = geometry.grid_samples
        step = 2 * geometry.grid_extent / n
        for label, sign in (("FF", 1), ("II", -1), ("IF", 0), ("FI", 0)):
            config = BasisConfig.from_label(label)
            imap = model37.intensity_grid(config, 1)
            idx = np.unravel_index(np.argmax(imap.values), imap.values.shape)
            coord = (np.array(idx) - n // 2) * step
            mean = sign * alphabet37.centers[1]
            assert np.allclose(coord, mean, atol=step)
            waist = geometry.aperture_waist if config.matched \
                else model37.envelope_waist
            c = imap.coords()
            mass = imap.values * step ** 2
            var_x = np.sum(mass.sum(axis=1) * (c - mean[0]) ** 2)
            var_y = np.sum(mass.sum(axis=0) * (c - mean[1]) ** 2)
            assert var_x == pytest.approx((waist / 2) ** 2, rel=1e-3)
            assert var_y == pytest.approx((waist / 2) ** 2, rel=1e-3)


class TestStencilTable:
    @pytest.mark.parametrize("case", sorted(_TABLE_CASES))
    def test_matches_dense_oracle(self, case, monkeypatch):
        """The cut-off table equals the dense one within rounding, holds a
        mass for exactly the pairs within the cutoff and 0 elsewhere, and
        integrates one polygon per pair, or per offset on a lattice."""
        model = _TABLE_CASES[case]()
        region = _WIDE_REGION if case == "wide" else model.alphabet
        table, polygons = _counted_build(model, monkeypatch, region)
        dense = probability_table_dense(model, region)
        for key in ALL_CONFIGS:
            got, want = table.probs[key.label], dense.probs[key.label]
            assert np.abs(got - want).max() <= 1e-15, key
            assert np.abs(table.residual[key.label]
                          - dense.residual[key.label]).max() <= 1e-14, key

        sigma = model.aperture_waist / 2.0
        reach = _cutoff(model.aperture_waist, region.cell_radius)
        # A dropped cell lies wholly beyond reach - a of the center, and a
        # bivariate normal's mass beyond radius t is exp(-t**2 / 2 sigma**2).
        assert np.exp(-0.5 * ((reach - region.cell_radius) / sigma) ** 2) \
            <= 1e-25 * (1.0 + 1e-9)
        c = model.alphabet.centers
        gauss = np.vstack([c, -c])
        rows, cols, masses = model._neighbour_masses(gauss, region)
        near = np.zeros((gauss.shape[0], region.d), dtype=bool)
        near[rows, cols] = True
        assert near.sum() == rows.size == masses.size  # no pair twice
        dist = np.hypot(*(gauss[:, None, :] - region.centers[None]).T).T
        assert np.array_equal(near, dist <= reach)
        blocks = np.vstack([table.probs["FF"], table.probs["II"]])
        assert np.all(blocks[~near] == 0.0)
        matched = polygons - region.d  # the envelope row is one per cell
        if case == "off_lattice":
            assert region._lattice is None and matched == rows.size
        else:
            assert matched <= _stencil_size(reach, region.spacing)

    @pytest.mark.parametrize("waist", [100e-6, 300e-6])
    def test_near_lattice_centers_snap(self, waist, monkeypatch):
        """A d = 37 alphabet moved 1e-12 spacings off the lattice is within
        ``_LATTICE_RTOL`` of it, so the stencil integrates the exact lattice
        offsets.  A uniform move leaves the FF offsets and moves the II ones
        by twice the move, and each entry stays within that times the
        hexagon's perimeter times the Gaussian's peak density of the dense
        quadrature at the moved centers."""
        base = build_hex_alphabet(3, 200e-6)
        move = 1e-12 * base.spacing
        shifted = HexAlphabet(cell_radius=base.cell_radius,
                              centers=base.centers + move * np.array([0.6, 0.8]),
                              labels=base.labels)
        model = GaussianModel(shifted, Geometry(aperture_waist=waist))
        table, polygons = _counted_build(model, monkeypatch)
        reach = _cutoff(waist, base.cell_radius)
        assert polygons - base.d <= _stencil_size(reach, base.spacing)
        dense = probability_table_dense(model)
        sigma, a = waist / 2.0, base.cell_radius
        bound = 2.0 * move * 6.0 * a / (2.0 * np.pi * sigma ** 2)
        assert np.abs(table.probs["FF"] - dense.probs["FF"]).max() <= 1e-15
        assert np.abs(table.probs["II"] - dense.probs["II"]).max() <= bound

    def test_default_stencil_size(self, geometry, alphabet37):
        reach = _cutoff(geometry.aperture_waist, alphabet37.cell_radius)
        assert _stencil_size(reach, alphabet37.spacing) == 19

    def test_build_is_linear_in_d(self, monkeypatch):
        """At d = 1261 the build integrates the stencil and the envelope
        row, and peaks within a tenth above the bytes the table holds."""
        model = GaussianModel(build_hex_alphabet(20, 200e-6))
        region = model.alphabet
        tracemalloc.start()
        try:
            table, polygons = _counted_build(model, monkeypatch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        reach = _cutoff(model.aperture_waist, region.cell_radius)
        assert polygons <= _stencil_size(reach, region.spacing) + region.d
        held = (table.probs["FF"].nbytes + table.probs["II"].nbytes
                + table.probs["IF"][0].nbytes + table.residual["FF"].nbytes
                + table.residual["II"].nbytes + table.residual["IF"][:1].nbytes)
        assert peak <= 1.1 * held
