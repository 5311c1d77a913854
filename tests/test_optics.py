import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatialqkd import optics
from spatialqkd.optics import (ALL_CONFIGS, ApertureSpec, Basis, BasisConfig,
                               Geometry, GeometryError, IntensityMap,
                               OpticalField, SamplingError, analytic_amplitude,
                               arm_chain, detection_probability_map,
                               full_chain, grid_coords, hexagon_mask,
                               make_aperture_field, point_inverted,
                               propagate_chain)

from _oracles import (airy_amplitude_2d, chain_reference, crossed_gaussian_2d,
                      gaussian_aperture_2d, lens_by_lens,
                      probability_map_values_reference, unit_field_reference)


@pytest.fixture()
def geom():
    return Geometry()


def gaussian_field(geom, waist, center=(0.0, 0.0)):
    return make_aperture_field(ApertureSpec("gaussian", waist, center), geom)


def asymmetric_field(geom):
    """A unit-power complex field with no symmetry about the grid origin."""
    base = gaussian_field(geom, 120e-6, (500e-6, 300e-6))
    extra = gaussian_field(geom, 90e-6, (-300e-6, 200e-6))
    return OpticalField(base.samples + 0.3j * extra.samples,
                        base.extent, base.wavelength).normalized()


#: Unequal focal lengths, so every telescope in a chain magnifies.
UNEQUAL_FOCALS = (0.1, 0.3, 0.2, 0.15, 0.25, 0.12)


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

    @pytest.mark.parametrize("center, match", [
        ((np.nan, 0.0), "center x"), ((0.0, np.inf), "center y"),
        ((-np.inf, 0.0), "center x"), ((True, False), "boolean"),
        ((np.bool_(False), 0.0), "boolean"), ((1e-4,), "pair"),
        ((1e-4, 0.0, 0.0), "pair"), (0.0, "pair"), (None, "pair"),
        ("ab", "center x"), (("1e-4", 0.0), "center x")],
        ids=["nan", "inf", "-inf", "bools", "np-bool", "one", "three",
             "scalar", "none", "str", "str-number"])
    def test_bad_center_refused(self, center, match):
        with pytest.raises(GeometryError, match=match):
            ApertureSpec("gaussian", 1e-4, center)

    def test_center_stored_as_floats(self):
        for center in ((np.float64(1e-4), np.float32(-2.5e-4)),
                       np.array([1e-4, -2.5e-4]), [1e-4, -2.5e-4], (0, -1)):
            spec = ApertureSpec("gaussian", 1e-4, center)
            assert type(spec.center) is tuple
            assert all(type(v) is float for v in spec.center)
            assert spec.center == tuple(float(v) for v in center)
        moved = ApertureSpec().displaced(np.array([3e-4, -1e-4]))
        assert moved.center == (3e-4, -1e-4)
        assert all(type(v) is float for v in moved.center)


class TestOpticalField:
    @pytest.mark.parametrize("wavelength", [np.nan, np.inf, 0.0, -5e-7, True])
    def test_wavelength_checked(self, wavelength):
        with pytest.raises(GeometryError, match="wavelength"):
            OpticalField(np.ones((4, 4)), 1e-3, wavelength)


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
        """Two transforms are one point inversion, the identity that lets
        ``propagate_chain`` compute a single transform per chain."""
        field = asymmetric_field(geom)
        out = lens_by_lens(field, arm_chain(Basis.I, geom))
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


class TestOneTransformPerChain:
    """``propagate_chain`` against one transform per lens."""

    @staticmethod
    def check(field, focal_lengths):
        out = propagate_chain(field, focal_lengths)
        ref = lens_by_lens(field, focal_lengths)
        assert out.extent == ref.extent
        assert out.power == pytest.approx(ref.power, rel=1e-12)
        gap = np.linalg.norm(out.samples - ref.samples)
        assert gap <= 1e-12 * np.linalg.norm(ref.samples)

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
    def test_full_chains(self, geom, config):
        spec = ApertureSpec("gaussian", 100e-6, (346.4e-6, 600e-6))
        self.check(make_aperture_field(spec, geom), full_chain(config, geom))

    @pytest.mark.parametrize("lenses", range(1, 7))
    def test_unequal_focal_lengths(self, geom, lenses):
        self.check(asymmetric_field(geom), UNEQUAL_FOCALS[:lenses])

    @pytest.mark.parametrize("lenses", range(7))
    def test_every_plane_checked_once(self, geom, monkeypatch, lenses):
        """Every plane's border fraction is checked once, through the two
        planes that carry it: the input, then the one transform.  The input
        is left as the caller passed it."""
        wheres, steps = [], []
        check, step = optics._check_contained, optics._lens_step

        def counted_check(field, where):
            wheres.append(where)
            check(field, where)

        def counted_step(field, focal):
            steps.append(focal)
            return step(field, focal)

        monkeypatch.setattr(optics, "_check_contained", counted_check)
        monkeypatch.setattr(optics, "_lens_step", counted_step)
        field = asymmetric_field(geom)
        before = field.samples.copy()
        chain = UNEQUAL_FOCALS[:lenses]
        out = propagate_chain(field, chain)
        assert wheres == ["at the chain input"] + [
            f"after lens 1 of {lenses} (focal length {f:g} m)"
            for f in chain[:1]]
        assert steps == list(chain[:1])
        assert np.array_equal(field.samples, before)
        if lenses:
            assert not np.shares_memory(out.samples, field.samples)
        else:
            assert out is field


def _border_fraction(field):
    """The fraction of power the containment check finds in its border
    frame, read from the error it raises when every fraction fails."""
    with mock.patch.object(optics, "_BORDER_POWER_TOL", -1.0):
        with pytest.raises(SamplingError) as err:
            optics._check_contained(field, "here")
    return float(re.search(r"fraction (\S+)", str(err.value)).group(1))


def _contained(field):
    try:
        optics._check_contained(field, "here")
    except SamplingError:
        return False
    return True


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), half=st.integers(8, 40),
       spill=st.sampled_from([0.0, 1e-5, 0.1, 1.0]),
       scale=st.floats(1e-3, 1e3))
def test_border_frame_is_origin_symmetric(seed, half, spill, scale):
    """A field, its point inversion and a positive multiple of it get the
    same border fraction and the same verdict."""
    rng = np.random.default_rng(seed)
    n = 2 * half
    samples = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    # Damp a frame two samples wider than the border by ``spill``, so the
    # verdict is clear-cut: contained for the two small values, not for the
    # two large ones.
    b = max(1, round(0.05 * n)) + 2
    damped = np.ones((n, n), dtype=bool)
    damped[b:n - b + 1, b:n - b + 1] = False
    samples[damped] *= spill
    field = OpticalField(samples, 1e-3, 5e-7)
    variants = (point_inverted(field),
                OpticalField(samples * scale, field.extent, field.wavelength))
    frac = _border_fraction(field)
    for other in variants:
        assert _border_fraction(other) == pytest.approx(frac, rel=1e-3,
                                                        abs=1e-13)
        assert _contained(other) == _contained(field) == (spill < 0.1)


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


APERTURES = (("gaussian", 100e-6), ("circular", 150e-6),
             ("hexagonal", 200e-6))
APERTURE_IDS = [shape for shape, _ in APERTURES]

#: ``UNEQUAL_FOCALS`` chains of 0 to 6 lenses and the four full chains.
CHAINS = ([UNEQUAL_FOCALS[:k] for k in range(7)]
          + [full_chain(c, Geometry()) for c in ALL_CONFIGS])
CHAIN_IDS = [f"unequal{k}" for k in range(7)] + [c.label for c in ALL_CONFIGS]


def _spec(shape, size):
    return ApertureSpec(shape, size, (346.4e-6, -600e-6))


def _same_bits(out, ref):
    """Equal extents and wavelengths, and samples equal bit for bit (signed
    zeros included)."""
    assert (out.extent, out.wavelength) == (ref.extent, ref.wavelength)
    assert out.samples.dtype == ref.samples.dtype == np.complex128
    assert np.array_equal(out.samples, ref.samples)
    assert out.samples.tobytes() == ref.samples.tobytes()


def _plain_optics():
    """The unit field and the lens step patched to their plain allocating
    forms: a call made inside this context is the reference."""
    return mock.patch.multiple(
        optics, _unit_field=unit_field_reference,
        _lens_step=lambda field, focal: lens_by_lens(field, (focal,)))


class TestInPlaceBitIdentity:
    """The optics layer scales, transforms and normalises its planes in
    place; every output equals the plain allocating expressions bit for
    bit."""

    @pytest.mark.parametrize("shape, size", APERTURES, ids=APERTURE_IDS)
    def test_aperture_field(self, geom, shape, size):
        out = make_aperture_field(_spec(shape, size), geom)
        with _plain_optics():
            ref = make_aperture_field(_spec(shape, size), geom)
        _same_bits(out, ref)

    @pytest.mark.parametrize("shape, size", APERTURES[1:], ids=APERTURE_IDS[1:])
    def test_sharp_masks_match_meshgrid(self, geom, shape, size):
        """The broadcast column-and-row masks equal the full-meshgrid ones."""
        spec = _spec(shape, size)
        x, y = np.meshgrid(*2 * [grid_coords(geom.grid_samples, geom.grid_extent)],
                           indexing="ij")
        cx, cy = spec.center
        mask = ((x - cx) ** 2 + (y - cy) ** 2 <= size ** 2 if shape == "circular"
                else hexagon_mask(x, y, spec.center, size))
        ref = unit_field_reference(mask.astype(np.float64), geom.grid_extent,
                                   geom.wavelength)
        _same_bits(make_aperture_field(spec, geom), ref)

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
    @pytest.mark.parametrize("shape, size", APERTURES, ids=APERTURE_IDS)
    def test_analytic_amplitude(self, geom, shape, size, config):
        out = analytic_amplitude(config, _spec(shape, size), geom)
        with _plain_optics():
            ref = analytic_amplitude(config, _spec(shape, size), geom)
        _same_bits(out, ref)

    @pytest.mark.parametrize("chain", CHAINS, ids=CHAIN_IDS)
    @pytest.mark.parametrize("shape, size", APERTURES, ids=APERTURE_IDS)
    def test_propagate_chain(self, geom, shape, size, chain):
        # Sharp-edged apertures spread past the border after a transform, so
        # the check is opened for them: this test is about the planes.
        field = make_aperture_field(_spec(shape, size), geom)
        with mock.patch.object(optics, "_BORDER_POWER_TOL", 1.0):
            out = propagate_chain(field, chain)
        _same_bits(out, chain_reference(field, chain))

    def test_normalized_and_map(self, geom):
        field = OpticalField(3.0 * asymmetric_field(geom).samples, 1e-3, 5e-7)
        _same_bits(field.normalized(), unit_field_reference(
            field.samples, field.extent, field.wavelength))
        imap = detection_probability_map(field)
        assert imap.values.tobytes() == probability_map_values_reference(
            field).tobytes()

    def test_refusal_message_unchanged(self, geom):
        field = make_aperture_field(_spec("hexagonal", 200e-6), geom)
        chain = full_chain(BasisConfig.from_label("IF"), geom)
        with pytest.raises(SamplingError) as err:
            propagate_chain(field, chain)
        with _plain_optics(), pytest.raises(SamplingError) as ref:
            propagate_chain(field, chain)
        assert "after lens 1 of 5" in str(err.value)
        assert str(err.value) == str(ref.value)

    @pytest.mark.parametrize("call, error, message", [
        (lambda f: f.normalized(), GeometryError,
         "cannot normalize a zero-power field"),
        (detection_probability_map, GeometryError,
         "cannot form a probability map from a zero field"),
        (lambda f: propagate_chain(f, (0.1,)), SamplingError,
         "zero-power field at the chain input")],
        ids=["normalized", "map", "chain"])
    def test_zero_power_refused(self, call, error, message):
        zero = OpticalField(np.zeros((16, 16)), 1e-3, 5e-7)
        with pytest.raises(error) as err:
            call(zero)
        assert str(err.value) == message


class TestCallerArrays:
    """No entry point writes into the field it is given, even where it
    works in place on planes of its own."""

    @staticmethod
    def check(geom, call):
        samples = asymmetric_field(geom).samples
        before = samples.copy()
        samples.setflags(write=False)
        field = OpticalField(samples, geom.grid_extent, geom.wavelength)
        call(field)
        assert field.samples is samples
        assert samples.tobytes() == before.tobytes()

    @pytest.mark.parametrize("call", [
        lambda f: f.normalized(), lambda f: f.intensity(), lambda f: f.power,
        point_inverted, lambda f: optics._lens_step(f, 0.2),
        lambda f: optics._check_contained(f, "here"),
        detection_probability_map],
        ids=["normalized", "intensity", "power", "point_inverted",
             "lens_step", "check_contained", "map"])
    def test_read_only_field(self, geom, call):
        self.check(geom, call)

    @pytest.mark.parametrize("chain", CHAINS, ids=CHAIN_IDS)
    def test_read_only_chain_input(self, geom, chain):
        self.check(geom, lambda f: propagate_chain(f, chain))


def _peak_planes(call, n):
    """``tracemalloc`` peak of one call above the memory traced before it,
    in ``n``-sample complex planes (4 MiB at 512²).  The result stays alive,
    so it counts; the FFT library's own scratch is not traced."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    del result
    return peak / (16 * n * n)


class TestAllocations:
    """Peak memory per call on the default 512² grid.  The plain allocating
    forms peaked at 2.63, 2.13, 3.0 and 1.06 planes."""

    def test_aperture_field(self, geom):
        spec = _spec("gaussian", 100e-6)
        # the float amplitude, the complex field and the finiteness mask
        assert _peak_planes(lambda: make_aperture_field(spec, geom),
                            geom.grid_samples) <= 1.7

    @pytest.mark.parametrize("shape, bound", [("circular", 2.2),
                                              ("hexagonal", 1.7)])
    def test_sharp_aperture_field(self, geom, shape, bound):
        """The mask is built from a column and a row of coordinates, not two
        meshgrids; the meshgrid forms peaked at 3.13 and 3.06 planes."""
        spec = _spec(shape, 150e-6)
        assert _peak_planes(lambda: make_aperture_field(spec, geom),
                            geom.grid_samples) <= bound

    def test_crossed_closed_form(self, geom):
        spec = _spec("gaussian", 100e-6)
        config = BasisConfig.from_label("IF")
        assert _peak_planes(lambda: analytic_amplitude(config, spec, geom),
                            geom.grid_samples) <= 1.55

    def test_propagate_chain(self, geom):
        field = make_aperture_field(_spec("gaussian", 100e-6), geom)
        chain = full_chain(BasisConfig.from_label("II"), geom)
        # the shifted copy transformed in place, the lens output and the
        # finiteness mask
        assert _peak_planes(lambda: propagate_chain(field, chain),
                            geom.grid_samples) <= 2.2

    def test_detection_probability_map(self, geom):
        field = make_aperture_field(_spec("gaussian", 100e-6), geom)
        assert _peak_planes(lambda: detection_probability_map(field),
                            geom.grid_samples) <= 0.6


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
