import numpy as np
import pytest
from hypothesis import given, strategies as st

from spatialqkd.alphabet import build_hex_alphabet, calibrate_envelope
from spatialqkd.model import (GaussianModel, gaussian_polygon_integral,
                              hex_vertices)
from spatialqkd.optics import ALL_CONFIGS, BasisConfig, Geometry

from _oracles import (crossed_source_reference, envelope_probs_bruteforce,
                      gaussian_mass_in_hex, gaussian_mass_in_hex_scanline,
                      sample_plane_reference)

_MODELS = {d: GaussianModel(build_hex_alphabet(rings, 200e-6))
           for d, rings in ((37, 3), (331, 10))}
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

    def test_table_is_cached(self, model37):
        assert model37.probability_table() is model37.probability_table()

    @pytest.mark.parametrize("rings", [3, 10])
    def test_source_needs_no_table(self, rings, geometry):
        model = GaussianModel(alphabet=build_hex_alphabet(rings, 200e-6),
                              geometry=geometry)
        src = model.source()
        assert model._table is None
        assert np.array_equal(src, crossed_source_reference(
            model.probability_table()))

    def test_source_requires_full_region(self, alphabet37, geometry):
        inner = build_hex_alphabet(1, 200e-6)
        model = GaussianModel(alphabet=inner, geometry=geometry,
                              region=alphabet37)
        with pytest.raises(ValueError):
            model.source()

    def test_region_cell_size_must_match(self, alphabet37, geometry):
        other = build_hex_alphabet(1, 150e-6)
        with pytest.raises(ValueError):
            GaussianModel(alphabet=other, geometry=geometry,
                          region=alphabet37)

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
