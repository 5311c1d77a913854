import re
import tracemalloc
from dataclasses import replace
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

from _oracles import (chain_reference, crossed_gaussian_2d,
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
    return unit_field_reference(base.samples + 0.3j * extra.samples,
                                base.extent, base.wavelength)


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
        field = make_aperture_field(ApertureSpec("gaussian", 100e-6), geom)
        assert field.power == pytest.approx(1.0, abs=1e-12)

    def test_too_large_rejected(self, geom):
        with pytest.raises(GeometryError):
            make_aperture_field(ApertureSpec("gaussian", 1.5e-3), geom)

    def test_off_grid_center_rejected(self, geom):
        with pytest.raises(GeometryError):
            make_aperture_field(
                ApertureSpec("gaussian", 100e-6, (3.95e-3, 0.0)), geom)

    def test_gaussian_underflow_rejected(self, geom):
        """A waist far below the grid step, centred between samples: every
        sample underflows to zero, and the field is refused."""
        off = geom.grid_extent / geom.grid_samples
        with pytest.raises(GeometryError) as err:
            make_aperture_field(ApertureSpec("gaussian", 1e-9, (off, off)),
                                geom)
        assert str(err.value) == ("aperture of size 1e-09 covers no grid "
                                  "samples (grid step 1.5625e-05)")

    def test_unknown_shape_rejected(self):
        """Apertures are Gaussian modes; a sharp-edged disc or hexagon is
        refused like any other shape."""
        for shape in ("triangle", "circular", "hexagonal"):
            with pytest.raises(GeometryError) as err:
                ApertureSpec(shape, 150e-6)
            assert str(err.value) == (
                f"aperture shape must be 'gaussian', got {shape!r}")
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
        moved = replace(ApertureSpec(), center=np.array([3e-4, -1e-4]))
        assert moved.center == (3e-4, -1e-4)
        assert all(type(v) is float for v in moved.center)


class TestOpticalField:
    @pytest.mark.parametrize("wavelength", [np.nan, np.inf, 0.0, -5e-7, True])
    def test_wavelength_checked(self, wavelength):
        with pytest.raises(GeometryError, match="wavelength"):
            OpticalField(np.ones((4, 4)), 1e-3, wavelength)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf,
                                       complex(0, np.nan), complex(0, -np.inf),
                                       complex(np.inf, np.nan)])
    def test_non_finite_refused(self, value):
        samples = np.ones((16, 16), dtype=np.complex128)
        samples[3, 11] = value
        with pytest.raises(GeometryError) as err:
            OpticalField(samples, 1e-3, 5e-7)
        assert str(err.value) == "field samples contain non-finite values"

    @pytest.mark.parametrize("build, message", [
        (lambda: OpticalField(np.ones((4, 6)), 1e-3, 5e-7),
         "field samples must be square, got shape (4, 6)"),
        (lambda: OpticalField(np.ones((5, 5)), 1e-3, 5e-7),
         "field grid must have an even number of samples"),
        (lambda: IntensityMap(np.ones((4, 6)), 1e-3),
         "map values must be square, got shape (4, 6)")],
        ids=["oblong", "odd", "oblong-map"])
    def test_grid_shape_refused(self, build, message):
        with pytest.raises(GeometryError) as err:
            build()
        assert str(err.value) == message

    def test_overflowing_power_accepted(self):
        """Finite samples whose sum of squares overflows fall back on the
        elementwise test, and pass it."""
        samples = np.full((16, 16), 1e200 - 3e199j)
        assert not np.isfinite(optics._sum_sq(samples))
        field = OpticalField(samples, 1e-3, 5e-7)
        assert field.samples is samples

    def test_transposed_samples_accepted(self, geom):
        """A field whose samples are a transposed view is accepted and
        propagates to the same bits as its C-ordered copy."""
        samples = asymmetric_field(geom).samples.T
        chain = full_chain(BasisConfig.from_label("II"), geom)
        out = propagate_chain(OpticalField(samples, geom.grid_extent,
                                           geom.wavelength), chain)
        ref = propagate_chain(OpticalField(samples.copy(), geom.grid_extent,
                                           geom.wavelength), chain)
        assert out.samples.tobytes() == ref.samples.tobytes()

    def test_overflowing_transform_refused(self):
        """A finite field whose transform overflows: the lens step's output
        is refused as non-finite, and the caller's field is left alone."""
        samples = np.zeros((16, 16), dtype=np.complex128)
        samples[2:15, 2:15] = 2e306
        field = OpticalField(samples, 1e-3, 5e-7)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(GeometryError) as err:
            propagate_chain(field, (0.1,))
        assert str(err.value) == "field samples contain non-finite values"
        assert np.all(samples[2:15, 2:15] == 2e306)


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
        # waist of the transform: 2 f_F / (k w), from second moments
        out = propagate_chain(gaussian_field(geom, 100e-6),
                              arm_chain(Basis.F, geom))
        x = out.coords()[:, None]
        var = float((x ** 2 * out.intensity()).sum() / out.intensity().sum())
        waist = 2 * np.sqrt(var)  # intensity sigma is waist / 2 per axis
        assert waist == pytest.approx(
            2 * geom.fourier_focal / (geom.wavenumber * 100e-6), rel=1e-3)

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


@pytest.mark.parametrize("frac, contained", [(0.99e-6, True), (1.01e-6, False)])
def test_border_tolerance(frac, contained):
    """A 16² field with a 13² inner window of ones and one border sample
    holding ``frac`` of the power: refused just above ``_BORDER_POWER_TOL``
    with the fraction in the message, accepted just below it."""
    samples = np.zeros((16, 16), dtype=np.complex128)
    samples[2:15, 2:15] = 1.0
    samples[0, 5] = np.sqrt(169.0 * frac / (1.0 - frac))
    field = OpticalField(samples, 1e-3, 5e-7)
    assert _contained(field) == contained
    if not contained:
        with pytest.raises(SamplingError) as err:
            optics._check_contained(field, "here")
        assert str(err.value) == (
            "field power reaches the grid border here: fraction 1.010e-06 of "
            "total lies in the outer 5% frame (half-extent 1.0000e-03 m, 16 "
            "samples); enlarge the grid extent or refine the sampling")


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
        """One Fourier arm, a single lens step, agrees with the closed form
        on the same grid."""
        config = BasisConfig.from_label("IF")
        spec = ApertureSpec("gaussian", 100e-6, (346.4e-6, 0.0))
        closed = analytic_amplitude(config, spec, geom)
        fallback = propagate_chain(make_aperture_field(spec, geom),
                                   arm_chain(Basis.F, geom))
        assert fallback.extent == pytest.approx(closed.extent, rel=1e-12)
        assert fallback.power == pytest.approx(1.0, rel=1e-12)
        diff = np.abs(fallback.samples) - np.abs(closed.samples)
        assert np.linalg.norm(diff) / np.linalg.norm(np.abs(closed.samples)) < 1e-3

    def test_separable_fields_match_2d_formula(self, geom):
        """Gaussian planes are built from their two 1-D factors, with the
        norm factorised; they stay within 16 eps of the peak of the plain
        2-D formula (3.0 eps measured, as for the 2-D normalisation) for
        every configuration."""
        for size, center in GAUSSIAN_SPECS:
            spec = ApertureSpec("gaussian", size, center)
            _near_2d_formula(make_aperture_field(spec, geom),
                             _gaussian_2d_reference(None, spec, geom))
            for config in ALL_CONFIGS:
                _near_2d_formula(analytic_amplitude(config, spec, geom),
                                 _gaussian_2d_reference(config, spec, geom))

    def test_crossed_configs_share_modulus(self, geom):
        spec = ApertureSpec("gaussian", 100e-6, (200e-6, -346.4e-6))
        m_if = np.abs(analytic_amplitude(BasisConfig.from_label("IF"),
                                         spec, geom).samples)
        m_fi = np.abs(analytic_amplitude(BasisConfig.from_label("FI"),
                                         spec, geom).samples)
        assert np.max(np.abs(m_if - m_fi)) < 1e-12


APERTURES = (("gaussian", 100e-6),)
APERTURE_IDS = [shape for shape, _ in APERTURES]
#: Chain inputs: the aperture field, and a disc and a hexagon whose sharp
#: edges spread their transforms to the grid border.
CHAIN_INPUTS = APERTURES + (("circular", 150e-6), ("hexagonal", 200e-6))
CHAIN_INPUT_IDS = [shape for shape, _ in CHAIN_INPUTS]

#: ``UNEQUAL_FOCALS`` chains of 0 to 6 lenses and the four full chains.
CHAINS = ([UNEQUAL_FOCALS[:k] for k in range(7)]
          + [full_chain(c, Geometry()) for c in ALL_CONFIGS])
CHAIN_IDS = [f"unequal{k}" for k in range(7)] + [c.label for c in ALL_CONFIGS]


_CENTER = (346.4e-6, -600e-6)


def _spec(shape, size):
    return ApertureSpec(shape, size, _CENTER)


def _chain_input(geom, shape, size):
    """The aperture field of ``_spec(shape, size)``, or for a ``circular``
    or ``hexagonal`` shape its 0/1 mask at unit power, built here since
    ``make_aperture_field`` builds Gaussian modes only."""
    if shape == "gaussian":
        return make_aperture_field(_spec(shape, size), geom)
    c = grid_coords(geom.grid_samples, geom.grid_extent)
    x, y = c[:, None], c[None, :]
    cx, cy = _CENTER
    mask = ((x - cx) ** 2 + (y - cy) ** 2 <= size ** 2 if shape == "circular"
            else hexagon_mask(x, y, _CENTER, size))
    return unit_field_reference(mask, geom.grid_extent, geom.wavelength)


def _same_bits(out, ref):
    """Equal extents and wavelengths, and samples equal bit for bit (signed
    zeros included)."""
    assert (out.extent, out.wavelength) == (ref.extent, ref.wavelength)
    assert out.samples.dtype == ref.samples.dtype == np.complex128
    assert np.array_equal(out.samples, ref.samples)
    assert out.samples.tobytes() == ref.samples.tobytes()


#: Waists and centres of Gaussian apertures: displaced, centred, and large
#: with a centre between samples on both axes.
GAUSSIAN_SPECS = ((100e-6, (346.4e-6, -600e-6)), (60e-6, (0.0, 0.0)),
                  (250e-6, (-820.3125e-6, 1.0078125e-3)))


def _gaussian_2d_reference(config, spec, geom):
    """``analytic_amplitude(config, spec, geom)`` for a Gaussian aperture,
    or ``make_aperture_field(spec, geom)`` for ``config`` None, from the
    full 2-D meshgrid formula normalised by ``unit_field_reference``."""
    n, (cx, cy) = geom.grid_samples, spec.center
    if config is None or config.matched:
        sign = -1.0 if config is not None and config.alice == Basis.I else 1.0
        extent = geom.grid_extent
        amp = gaussian_aperture_2d(grid_coords(n, extent), spec.size,
                                   (sign * cx, sign * cy))
    else:
        extent = (geom.wavelength * geom.fourier_focal * n
                  / (4.0 * geom.grid_extent))
        amp = crossed_gaussian_2d(grid_coords(n, extent), geom.wavenumber,
                                  geom.fourier_focal, spec.size, spec.center)
    return unit_field_reference(amp, extent, geom.wavelength)


def _near_2d_formula(out, ref):
    """Equal extents and wavelengths, and samples within 16 eps of the
    peak modulus of ``ref``."""
    assert (out.extent, out.wavelength) == (ref.extent, ref.wavelength)
    assert out.samples.dtype == np.complex128
    peak = np.abs(ref.samples).max()
    gap = np.max(np.abs(out.samples - ref.samples))
    assert gap <= 16 * np.finfo(np.float64).eps * peak


def _plain_optics():
    """The lens step patched to its plain allocating form: a call made
    inside this context is the reference."""
    return mock.patch.object(
        optics, "_lens_step", lambda field, focal: lens_by_lens(field, (focal,)))


class TestInPlaceBitIdentity:
    """The optics layer transforms and scales its chain planes in place;
    every chain and map equals the plain allocating expressions bit for
    bit.  Gaussian planes, built from their 1-D factors, are checked
    against the plain 2-D formula instead."""

    @pytest.mark.parametrize("shape, size", APERTURES, ids=APERTURE_IDS)
    def test_aperture_field(self, geom, shape, size):
        _near_2d_formula(make_aperture_field(_spec(shape, size), geom),
                         _gaussian_2d_reference(None, _spec(shape, size), geom))

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
    @pytest.mark.parametrize("shape, size", APERTURES, ids=APERTURE_IDS)
    def test_analytic_amplitude(self, geom, shape, size, config):
        _near_2d_formula(analytic_amplitude(config, _spec(shape, size), geom),
                         _gaussian_2d_reference(config, _spec(shape, size),
                                                geom))

    @pytest.mark.parametrize("chain", CHAINS, ids=CHAIN_IDS)
    @pytest.mark.parametrize("shape, size", CHAIN_INPUTS, ids=CHAIN_INPUT_IDS)
    def test_propagate_chain(self, geom, shape, size, chain):
        # Sharp-edged inputs spread past the border after a transform, so
        # the check is opened for them: this test is about the planes.
        field = _chain_input(geom, shape, size)
        with mock.patch.object(optics, "_BORDER_POWER_TOL", 1.0):
            out = propagate_chain(field, chain)
        _same_bits(out, chain_reference(field, chain))

    def test_probability_map(self, geom):
        field = OpticalField(3.0 * asymmetric_field(geom).samples, 1e-3, 5e-7)
        imap = detection_probability_map(field)
        assert imap.values.tobytes() == probability_map_values_reference(
            field).tobytes()

    def test_refusal_message_unchanged(self, geom):
        # A 5 um waist: its far field after lens 1 is wider than that grid.
        field = make_aperture_field(_spec("gaussian", 5e-6), geom)
        chain = full_chain(BasisConfig.from_label("IF"), geom)
        with pytest.raises(SamplingError) as err:
            propagate_chain(field, chain)
        with _plain_optics(), pytest.raises(SamplingError) as ref:
            propagate_chain(field, chain)
        assert "after lens 1 of 5" in str(err.value)
        assert str(err.value) == str(ref.value)

    @pytest.mark.parametrize("call, error, message", [
        (detection_probability_map, GeometryError,
         "cannot form a probability map from a zero field"),
        (lambda f: propagate_chain(f, (0.1,)), SamplingError,
         "zero-power field at the chain input")],
        ids=["map", "chain"])
    def test_zero_power_refused(self, call, error, message):
        zero = OpticalField(np.zeros((16, 16)), 1e-3, 5e-7)
        with pytest.raises(error) as err:
            call(zero)
        assert str(err.value) == message

    @pytest.mark.parametrize("call, message", [
        (detection_probability_map,
         "cannot form a probability map from a field whose power overflows")],
        ids=["map"])
    def test_overflowing_power_refused(self, call, message):
        """A finite field whose power sum overflows is refused, not scaled
        to a zero field or map; the sum warns of the overflow."""
        field = OpticalField(np.full((16, 16), 1e153), 1e-3, 5e-7)
        with np.errstate(over="ignore"), pytest.raises(GeometryError) as err:
            call(field)
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
        lambda f: f.intensity(), lambda f: f.power,
        point_inverted, lambda f: optics._lens_step(f, 0.2),
        lambda f: optics._check_contained(f, "here"),
        detection_probability_map],
        ids=["intensity", "power", "point_inverted",
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
        # the complex field, written once, and the multiply's buffers:
        # 1.05 measured
        assert _peak_planes(lambda: make_aperture_field(spec, geom),
                            geom.grid_samples) <= 1.15

    def test_crossed_closed_form(self, geom):
        spec = _spec("gaussian", 100e-6)
        config = BasisConfig.from_label("IF")
        # as for the aperture field: 1.07 measured
        assert _peak_planes(lambda: analytic_amplitude(config, spec, geom),
                            geom.grid_samples) <= 1.15

    def test_propagate_chain(self, geom):
        field = make_aperture_field(_spec("gaussian", 100e-6), geom)
        chain = full_chain(BasisConfig.from_label("II"), geom)
        # the lens step's plane, which ends as the output, and its quadrant
        # of scratch: 1.25 measured, plus 0.05 of margin
        assert _peak_planes(lambda: propagate_chain(field, chain),
                            geom.grid_samples) <= 1.3

    def test_lens_step(self, geom):
        field = make_aperture_field(_spec("gaussian", 100e-6), geom)
        # the output plane and one quadrant
        assert _peak_planes(lambda: optics._lens_step(field, 0.2),
                            geom.grid_samples) <= 1.3

    def test_check_contained(self, geom):
        """No full-size temporary: only the two side strips of the border
        frame are copied, one at a time, 0.05 plane each."""
        field = make_aperture_field(_spec("gaussian", 100e-6), geom)
        assert _peak_planes(lambda: optics._check_contained(field, "here"),
                            geom.grid_samples) <= 0.1

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
