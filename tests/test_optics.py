import numpy as np
import pytest

from spatialqkd.optics import (ALL_CONFIGS, ApertureSpec, Basis, BasisConfig,
                               Geometry, GeometryError, IntensityMap,
                               OpticalField, SamplingError, analytic_amplitude,
                               arm_chain, detection_probability_map,
                               full_chain, grid_coords, hexagon_mask,
                               make_aperture_field, point_inverted,
                               propagate_chain)

from _oracles import (airy_amplitude_2d, crossed_gaussian_2d,
                      gaussian_aperture_2d)


@pytest.fixture()
def geom():
    return Geometry()


def gaussian_field(geom, waist, center=(0.0, 0.0)):
    return make_aperture_field(ApertureSpec("gaussian", waist, center), geom)


class TestBasisConfig:
    def test_labels(self):
        assert [c.label for c in ALL_CONFIGS] == ["FF", "II", "IF", "FI"]

    def test_matched(self):
        assert BasisConfig.from_label("FF").matched
        assert not BasisConfig.from_label("IF").matched

    def test_from_label_rejects_junk(self):
        for bad in ("XX", "F", "FFI", "fi"):
            with pytest.raises(ValueError):
                BasisConfig.from_label(bad)


class TestGeometry:
    def test_derived_quantities(self, geom):
        assert geom.fourier_focal == pytest.approx(2 * geom.imaging_focal)
        assert geom.wavenumber == pytest.approx(2 * np.pi / geom.wavelength)
        expected = 2 * geom.fourier_focal / (geom.wavenumber * geom.aperture_waist)
        assert geom.conjugate_waist == pytest.approx(expected)

    def test_rejects_bad_values(self):
        with pytest.raises(GeometryError):
            Geometry(wavelength=-1.0)
        with pytest.raises(GeometryError):
            Geometry(grid_samples=511)
        with pytest.raises(GeometryError):
            Geometry(grid_extent=0.0)


class TestChains:
    def test_builders(self, geom):
        assert arm_chain(Basis.I, geom) == (0.1, 0.1)
        assert arm_chain(Basis.F, geom) == (0.2,)
        assert full_chain(BasisConfig.from_label("IF"), geom) == (
            0.1, 0.1, 0.15, 0.15, 0.2)

    def test_focal_lengths_checked(self, geom):
        field = gaussian_field(geom, 100e-6)
        for bad in (-0.1, 0.0, np.nan, True):
            with pytest.raises(GeometryError, match="focal length"):
                propagate_chain(field, (0.2, bad))


class TestApertures:
    def test_unit_power(self, geom):
        for shape, size in (("gaussian", 100e-6), ("circular", 150e-6),
                            ("hexagonal", 200e-6)):
            field = make_aperture_field(ApertureSpec(shape, size), geom)
            assert field.power == pytest.approx(1.0, abs=1e-12)

    def test_too_large_rejected(self, geom):
        with pytest.raises(GeometryError):
            make_aperture_field(ApertureSpec("gaussian", 1.5e-3), geom)

    def test_off_grid_center_rejected(self, geom):
        with pytest.raises(GeometryError):
            make_aperture_field(
                ApertureSpec("gaussian", 100e-6, (3.95e-3, 0.0)), geom)

    def test_empty_indicator_rejected(self, geom):
        # Radius far below the grid step, centered between samples.
        off = geom.grid_extent / geom.grid_samples
        with pytest.raises(GeometryError):
            make_aperture_field(ApertureSpec("circular", 1e-6, (off, off)), geom)

    def test_unknown_shape_rejected(self):
        with pytest.raises(GeometryError):
            ApertureSpec("triangle", 1e-4)
        with pytest.raises(GeometryError, match="boolean"):
            ApertureSpec("gaussian", True)


class TestTransforms:
    def test_lens_power_and_extent(self, geom):
        field = gaussian_field(geom, 100e-6)
        out = propagate_chain(field, arm_chain(Basis.F, geom))
        assert out.power == pytest.approx(1.0, rel=1e-12)
        expected = geom.wavelength * geom.fourier_focal * field.n / (4 * field.extent)
        assert out.extent == pytest.approx(expected)

    def test_single_lens_removes_displacement(self, geom):
        """The transform modulus is a centered Gaussian whatever the offset."""
        outs = []
        for center in ((0.0, 0.0), (600e-6, -400e-6)):
            field = gaussian_field(geom, 100e-6, center)
            out = propagate_chain(field, arm_chain(Basis.F, geom))
            outs.append(np.abs(out.samples))
        peak = outs[0].max()
        assert np.max(np.abs(outs[0] - outs[1])) / peak < 1e-6
        # waist of the transform: 2 f / (k w), measured from second moments
        out = propagate_chain(gaussian_field(geom, 100e-6),
                              arm_chain(Basis.F, geom))
        x, _ = out.meshgrid()
        var = float((x ** 2 * out.intensity()).sum() / out.intensity().sum())
        waist = 2 * np.sqrt(var)  # intensity sigma is waist / 2 per axis
        assert waist == pytest.approx(geom.conjugate_waist, rel=1e-3)

    def test_telescope_is_point_inversion(self, geom):
        base = gaussian_field(geom, 120e-6, (500e-6, 300e-6))
        extra = gaussian_field(geom, 90e-6, (-300e-6, 200e-6))
        field = OpticalField(base.samples + 0.3j * extra.samples,
                             base.extent, base.wavelength).normalized()
        out = propagate_chain(field, arm_chain(Basis.I, geom))
        assert out.extent == pytest.approx(field.extent)
        inverted = point_inverted(field)
        assert np.max(np.abs(out.samples - inverted.samples)) < 1e-9

    def test_point_inverted_involution(self, geom):
        field = gaussian_field(geom, 150e-6, (400e-6, 100e-6))
        twice = point_inverted(point_inverted(field))
        assert np.array_equal(twice.samples, field.samples)

    def test_undersampled_field_raises(self, geom):
        # A near-delta aperture transforms to a nearly flat spectrum that
        # cannot stay away from the grid border.
        field = gaussian_field(geom, 8e-6)
        with pytest.raises(SamplingError):
            propagate_chain(field, arm_chain(Basis.F, geom))


class TestAnalyticEquivalence:
    @pytest.mark.parametrize("label", ["FF", "II", "IF", "FI"])
    def test_cascade_matches_closed_form(self, geom, label):
        config = BasisConfig.from_label(label)
        spec = ApertureSpec("gaussian", 100e-6, (346.4e-6, 600e-6))
        out = propagate_chain(make_aperture_field(spec, geom),
                              full_chain(config, geom))
        ref = analytic_amplitude(config, spec, geom)
        assert out.extent == pytest.approx(ref.extent, rel=1e-12)
        num = np.abs(out.samples) / np.sqrt(out.power)
        ana = np.abs(ref.samples)
        assert np.linalg.norm(num - ana) / np.linalg.norm(ana) < 1e-3

    def test_fallback_transform_matches_closed_form(self, geom):
        """One Fourier arm, the lens step that every non-Gaussian aperture
        takes, agrees with the closed form on the same grid."""
        config = BasisConfig.from_label("IF")
        spec = ApertureSpec("gaussian", 100e-6, (346.4e-6, 0.0))
        closed = analytic_amplitude(config, spec, geom)
        fallback = propagate_chain(make_aperture_field(spec, geom),
                                   arm_chain(Basis.F, geom))
        assert fallback.extent == pytest.approx(closed.extent, rel=1e-12)
        assert fallback.power == pytest.approx(1.0, rel=1e-12)
        diff = np.abs(fallback.samples) - np.abs(closed.samples)
        assert np.linalg.norm(diff) / np.linalg.norm(np.abs(closed.samples)) < 1e-3

    @pytest.mark.parametrize("radius", [150e-6, 400e-6])
    def test_circular_crossed_fallback_is_airy(self, geom, radius):
        """The discrete-transform branch, taken by every non-Gaussian
        aperture, gives the Airy pattern on the closed form's grid."""
        spec = ApertureSpec("circular", radius, (346.4e-6, 0.0))
        m_if, m_fi = (analytic_amplitude(BasisConfig.from_label(label), spec,
                                         geom) for label in ("IF", "FI"))
        gaussian = analytic_amplitude(BasisConfig.from_label("IF"),
                                      ApertureSpec("gaussian", 100e-6), geom)
        assert m_if.power == pytest.approx(1.0, abs=1e-12)
        assert m_if.extent == pytest.approx(gaussian.extent, rel=1e-12)
        assert np.max(np.abs(np.abs(m_if.samples) - np.abs(m_fi.samples))) < 1e-12
        ref = airy_amplitude_2d(m_if.coords(), geom.wavenumber,
                                geom.fourier_focal, radius)
        ref = ref / np.sqrt(np.sum(ref ** 2) * m_if.step ** 2)
        # The pixelated disc differs from the ideal one: the relative L2 gap
        # measured 0.055-0.096 for radii of 150-400 um, centred or not, on
        # the default grid.
        gap = np.linalg.norm(np.abs(m_if.samples) - ref) / np.linalg.norm(ref)
        assert gap < 0.15

    def test_separable_fields_match_2d_formula(self, geom):
        spec = ApertureSpec("gaussian", 100e-6, (346.4e-6, -600e-6))

        def check(field, ref):
            ref = ref / np.sqrt(np.sum(np.abs(ref) ** 2) * field.step ** 2)
            peak = np.abs(ref).max()
            assert np.max(np.abs(field.samples - ref)) <= 1e-12 * peak

        aperture = make_aperture_field(spec, geom)
        check(aperture, gaussian_aperture_2d(aperture.coords(), spec.size,
                                             spec.center))
        for label in ("IF", "FI"):
            closed = analytic_amplitude(BasisConfig.from_label(label), spec,
                                        geom)
            check(closed, crossed_gaussian_2d(
                closed.coords(), geom.wavenumber, geom.fourier_focal,
                spec.size, spec.center))

    def test_hard_aperture_tails_are_caught(self, geom):
        """Sharp-edged apertures spread past the grid and must be refused."""
        spec = ApertureSpec("hexagonal", 200e-6, (346.4e-6, 0.0))
        with pytest.raises(SamplingError, match="after lens 1 of 5"):
            propagate_chain(make_aperture_field(spec, geom),
                            full_chain(BasisConfig.from_label("IF"), geom))

    def test_crossed_configs_share_modulus(self, geom):
        spec = ApertureSpec("gaussian", 100e-6, (200e-6, -346.4e-6))
        m_if = np.abs(analytic_amplitude(BasisConfig.from_label("IF"),
                                         spec, geom).samples)
        m_fi = np.abs(analytic_amplitude(BasisConfig.from_label("FI"),
                                         spec, geom).samples)
        assert np.max(np.abs(m_if - m_fi)) < 1e-12


class TestIntensityMap:
    def test_normalization(self, geom):
        field = gaussian_field(geom, 100e-6, (200e-6, 0.0))
        imap = detection_probability_map(field)
        assert imap.integral() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(GeometryError):
            IntensityMap(np.full((4, 4), -1.0), 1e-3)

    def test_csv_export(self, geom, tmp_path):
        field = gaussian_field(geom, 100e-6)
        imap = detection_probability_map(field)
        path = tmp_path / "map.csv"
        imap.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "row,col,value"
        assert len(lines) == 1 + imap.n ** 2

    def test_pgm_export(self, geom, tmp_path):
        field = gaussian_field(geom, 100e-6)
        imap = detection_probability_map(field)
        path = tmp_path / "map.pgm"
        imap.to_pgm(path)
        blob = path.read_bytes()
        header = f"P5\n{imap.n} {imap.n}\n255\n".encode()
        assert blob.startswith(header)
        assert len(blob) == len(header) + imap.n ** 2
        assert max(blob[len(header):]) == 255


class TestHexagonMask:
    def test_vertex_and_edge_points_inside(self):
        a = 200e-6
        inr = a * np.sqrt(3) / 2
        vertex = (a * np.cos(np.pi / 6), a * np.sin(np.pi / 6))
        assert hexagon_mask(np.array([vertex[0]]), np.array([vertex[1]]),
                            (0.0, 0.0), a)[0]
        assert hexagon_mask(np.array([inr]), np.array([0.0]), (0.0, 0.0), a)[0]
        assert not hexagon_mask(np.array([inr * 1.01]), np.array([0.0]),
                                (0.0, 0.0), a)[0]

    def test_grid_coords_centered(self):
        c = grid_coords(8, 4.0)
        assert c[4] == 0.0
        assert c[0] == -4.0
