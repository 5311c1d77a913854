import json
import mmap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spatialqkd._checks import distribution
from spatialqkd.alphabet import (_RHOMBUS, _RHOMBUS_K, _RHOMBUS_MARGIN,
                                 HexAlphabet, ProbabilityMap,
                                 bin_probabilities, build_hex_alphabet,
                                 build_packed_alphabet, calibrate_envelope,
                                 leakage_check, load_alphabet, prune_alphabet,
                                 save_alphabet)
from spatialqkd.config import ExperimentConfig
from spatialqkd.model import GaussianModel, hex_vertices
from spatialqkd.optics import (ALL_CONFIGS, BASIS_BY_CODE, BasisConfig,
                               Geometry, IntensityMap, hexagon_mask)

from _oracles import (SQRT3, _decode_bruteforce, bin_probabilities_reference,
                      hex_contains, nearest_center_bruteforce,
                      packed_centers_reference, ring_sites_reference)

_BASE37 = build_hex_alphabet(3, 200e-6)
_SHIFTED37 = HexAlphabet.from_dict(
    {**_BASE37.to_dict(),
     "centers": (_BASE37.centers + (37e-6, -81e-6)).tolist()})
_SPARSE = HexAlphabet(200e-6, [[0.0, 0.0], [-1e4 * _BASE37.spacing, 0.0]],
                      ("0", "1"))

#: Ring alphabets, a packed one, pruned ones, one off the lattice and one
#: too sparse for a lattice table.
_ALPHABETS = st.one_of(
    st.integers(min_value=0, max_value=12).map(
        lambda rings: build_hex_alphabet(rings, 200e-6)),
    st.just(build_packed_alphabet(1.2e-3, 60e-6)),
    st.sets(st.integers(min_value=0, max_value=36), min_size=1,
            max_size=8).map(lambda idx: prune_alphabet(
                _BASE37, [_BASE37.labels[i] for i in idx])),
    st.just(_SHIFTED37),
    st.just(_SPARSE),
)

#: Radius, in units of the pattern radius: inside, near the rim, far out.
_ZONES = ((0.0, 0.9), (0.9, 1.15), (1.15, 20.0))

#: Alphabets on the lattice: d = 1, rings, pruned ones (with holes) and a
#: packed one.
_LATTICE_ALPHABETS = st.one_of(
    st.integers(min_value=0, max_value=4).map(
        lambda rings: build_hex_alphabet(rings, 200e-6)),
    st.sets(st.integers(min_value=0, max_value=36), min_size=1,
            max_size=8).map(lambda idx: prune_alphabet(
                _BASE37, [_BASE37.labels[i] for i in idx])),
    st.just(build_packed_alphabet(1.2e-3, 60e-6)),
)
#: Axial coordinates ``(q, r)``, in spacings: anywhere over the lattice
#: table and a little beyond, on an integer ``q`` or ``r`` line (the rhombus
#: edges), and scaled far beyond the table (the clip).
_AXIAL = st.floats(min_value=-8.0, max_value=8.0)
_LINE = st.integers(min_value=-8, max_value=8).map(float)
_AXIAL_POINTS = st.lists(st.one_of(
    st.tuples(_AXIAL, _AXIAL),
    st.tuples(_LINE, _AXIAL),
    st.tuples(_AXIAL, _LINE),
    st.tuples(_AXIAL, _AXIAL, st.floats(min_value=2.0, max_value=50.0)).map(
        lambda t: (t[0] * t[2], t[1] * t[2])),
), min_size=1, max_size=64)
#: Coordinates in meters next to zero, of either sign, subnormals included.
_TINY = st.floats(min_value=-1e-30, max_value=1e-30)


class TestConstruction:
    @given(rings=st.integers(min_value=0, max_value=7))
    def test_cardinality_formula(self, rings):
        alph = build_hex_alphabet(rings, 200e-6)
        assert alph.d == 1 + 3 * rings * (rings + 1)

    def test_default_geometry(self, alphabet37):
        a = alphabet37.cell_radius
        assert alphabet37.d == 37
        assert alphabet37.spacing == pytest.approx(a * np.sqrt(3))
        assert alphabet37.cell_area == pytest.approx(1.5 * np.sqrt(3) * a * a)
        assert alphabet37.envelope_radius == pytest.approx(
            3 * a * np.sqrt(3) + a)

    def test_spiral_labels(self, alphabet37):
        assert alphabet37.labels[0] == "0"
        assert alphabet37.labels[9] == "9"
        assert alphabet37.labels[10] == "A"
        assert alphabet37.labels[36] == "a"
        assert np.allclose(alphabet37.centers[0], 0.0)

    def test_first_ring_positions(self, alphabet37):
        s = alphabet37.spacing
        assert np.allclose(alphabet37.centers[1], (s, 0.0))
        assert np.allclose(alphabet37.centers[4], (-s, 0.0))

    @pytest.mark.parametrize("rings", [0, 1, 3, 10, 20, 40])
    def test_centers_match_the_site_walk(self, rings):
        """One cumulative sum per ring adds the walk's steps in its order,
        so the centres are bit-identical to the site-by-site walk."""
        spacing = 200e-6 * np.sqrt(3.0)
        walk = np.concatenate([ring_sites_reference(ring, spacing)
                               for ring in range(rings + 1)])
        assert np.array_equal(build_hex_alphabet(rings, 200e-6).centers, walk)

    def test_long_labels_past_62(self):
        alph = build_packed_alphabet(1.2392304845413268e-3, 60e-6)
        assert alph.d > 62
        assert alph.labels[62] == "#62"

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_hex_alphabet(-1, 200e-6)
        with pytest.raises(ValueError):
            build_hex_alphabet(3, 0.0)
        spacing = 200e-6 * np.sqrt(3)
        with pytest.raises(ValueError):
            HexAlphabet(200e-6, np.zeros((2, 2)), ("0", "1"))  # coincident
        with pytest.raises(ValueError, match="overlap"):  # one spacing apart
            HexAlphabet(200e-6, np.array([[0.0, 0.0], [0.0, spacing]]),
                        ("a", "b"))
        with pytest.raises(ValueError):
            HexAlphabet(200e-6, np.array([[0.0, 0.0], [spacing, 0.0]]),
                        ("0", "0"))
        with pytest.raises(ValueError):
            HexAlphabet(200e-6, np.array([[0.0, 0.0], [np.nan, 0.0]]),
                        ("0", "1"))
        with pytest.raises(ValueError, match="rings"):
            build_hex_alphabet(True)  # would be the 7-cell alphabet
        with pytest.raises(ValueError, match="cell_radius"):
            HexAlphabet.from_dict({**_BASE37.to_dict(), "cell_radius": True})
        seven = build_hex_alphabet(1, 200e-6).to_dict()
        for labels in ([0, 1, 2, 3, 4, 5, 6], "abcdefg",
                       ["a,b", "1", "2", "3", "4", "5", "6"],
                       ["\u00e9", "1", "2", "3", "4", "5", "6"],
                       ['"', "1", "2", "3", "4", "5", "6"],
                       ["a\nb", "1", "2", "3", "4", "5", "6"],
                       ["\r", "1", "2", "3", "4", "5", "6"],
                       ["", "1", "2", "3", "4", "5", "6"],
                       ["(residual)", "1", "2", "3", "4", "5", "6"]):
            with pytest.raises(ValueError, match="labels must be (a|non)"):
                HexAlphabet.from_dict({**seven, "labels": labels})
        assert HexAlphabet.from_dict(seven).labels == tuple("0123456")

    def test_dense_overlap_refused_in_linear_memory(self):
        """The pair test alone would hold all 4.5 million pairs of 3000
        coincident centers (72 MB); a nearest-neighbour pass refuses them
        first."""
        n = 3000
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="overlap"):
                HexAlphabet(200e-6, np.zeros((n, 2)),
                            tuple(f"#{i}" for i in range(n)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_control_characters_refused(self):
        """A NUL would vanish from the NUL-padded CSV blocks; a tab or bell
        would reach alphabet.json and every CSV."""
        seven = build_hex_alphabet(1, 200e-6).to_dict()
        for label in ("a\x00", "a\t", "a\x07"):
            with pytest.raises(ValueError, match="printable ASCII"):
                HexAlphabet.from_dict(
                    {**seven, "labels": [label, "1", "2", "3", "4", "5", "6"]})

    def test_inverse_index(self, alphabet37):
        for i in range(alphabet37.d):
            j = alphabet37.inverse_index(i)
            assert np.allclose(alphabet37.centers[j], -alphabet37.centers[i])
        assert alphabet37.inverse_index(0) == 0
        assert alphabet37.inverse_index(1) == 4

    @pytest.mark.parametrize("centers, labels, message", [
        (np.zeros((1, 3)), ("0",), "centers must have shape (d, 2), got (1, 3)"),
        (np.array([[0.0, 0.0], [1e-3, 0.0]]), ("0",), "1 labels for 2 centers")],
        ids=["three-columns", "one-label"])
    def test_shape_refusals(self, centers, labels, message):
        with pytest.raises(ValueError) as err:
            HexAlphabet(200e-6, centers, labels)
        assert str(err.value) == message

    def test_inverse_index_without_opposite(self):
        pair = HexAlphabet(200e-6, np.array([[0.0, 0.0], [1e-3, 0.0]]),
                           ("0", "1"))
        with pytest.raises(ValueError) as err:
            pair.inverse_index(1)
        assert str(err.value) == "alphabet has no cell opposite '1'"

    def test_index_of_unknown(self, alphabet37):
        with pytest.raises(KeyError):
            alphabet37.index_of("z9")


class TestPacked:
    def test_matches_ring_construction_at_default_size(self, alphabet37):
        packed = build_packed_alphabet(alphabet37.envelope_radius, 200e-6)
        assert packed.d == 37
        order = np.lexsort(packed.centers.T)
        ref = np.lexsort(alphabet37.centers.T)
        assert np.allclose(packed.centers[order], alphabet37.centers[ref])

    @pytest.mark.parametrize("radii", [(1.2e-3, 60e-6), (1.2e-3, 10.0),
                                       (1.2392304845413268e-3, 60e-6),
                                       (3e-3, 17e-6), (4.1e-4, 1e-4)])
    def test_centers_match_the_site_walk(self, radii):
        assert np.array_equal(build_packed_alphabet(*radii).centers,
                              packed_centers_reference(*radii))

    def test_degenerate_fallback(self):
        packed = build_packed_alphabet(1.2e-3, 10.0)
        assert packed.d == 1
        assert np.allclose(packed.centers, 0.0)

    def test_small_cells_fill_circle(self, alphabet37):
        packed = build_packed_alphabet(alphabet37.envelope_radius, 60e-6)
        reach = np.hypot(*packed.centers.T) + packed.cell_radius
        assert packed.d == 463
        assert np.all(reach <= alphabet37.envelope_radius * (1 + 1e-9))


class TestCalibration:
    def test_default_value(self, alphabet37):
        w = calibrate_envelope(alphabet37)
        assert w == pytest.approx(0.8166655653793778e-3, rel=1e-12)

    def test_solves_containment(self, alphabet37):
        radius = alphabet37.envelope_radius
        w = calibrate_envelope(alphabet37)
        assert 1 - np.exp(-2 * radius ** 2 / w ** 2) == pytest.approx(
            0.99, rel=1e-12)


class TestDecode:
    @given(idx=st.integers(min_value=0, max_value=36),
           label_cfg=st.sampled_from(["FF", "II"]),
           rho=st.floats(min_value=0.0, max_value=0.99),
           angle=st.floats(min_value=0.0, max_value=2 * np.pi))
    def test_decode_inverts_encode(self, alphabet37, idx, label_cfg, rho, angle):
        """Any point well inside the detection cell decodes to its character.

        The detection-plane image of character k sits at +c_k except when
        both stations image, which point-inverts the plane; the decoder
        negates the position back before the lookup.
        """
        inradius = alphabet37.cell_radius * np.sqrt(3) / 2
        offset = rho * inradius * np.array([np.cos(angle), np.sin(angle)])
        sign = -1.0 if label_cfg == "II" else 1.0
        position = sign * alphabet37.centers[idx] + sign * offset
        got, inside = alphabet37.nearest_cell((sign * position)[None])
        assert got[0] == idx and inside[0]

    def test_outside_pattern_is_none(self, alphabet37):
        _, inside = alphabet37.nearest_cell([[5e-3, 5e-3]])
        assert not inside[0]

    def test_boundary_tie_takes_lowest_index(self, alphabet37):
        idx, inside = alphabet37.nearest_cell([[alphabet37.spacing / 2, 0.0]])
        assert idx[0] == 0 and inside[0]

    @pytest.mark.parametrize("alph", [
        _BASE37, build_hex_alphabet(10, 200e-6),
        prune_alphabet(_BASE37, ["0", "2", "B", "S"])],
        ids=["d37", "d331", "pruned"])
    def test_every_edge_and_vertex_tie_takes_lowest_index(self, alph):
        c, a, s = alph.centers, alph.cell_radius, alph.spacing
        pair = np.hypot(*(c[:, None, :] - c[None, :, :]).transpose(2, 0, 1))
        i, j = np.nonzero(np.triu(np.abs(pair - s) < 1e-9 * s))
        assert i.size > 0
        idx, inside = alph.nearest_cell(0.5 * (c[i] + c[j]))
        assert np.array_equal(idx, np.minimum(i, j))
        assert inside.all()

        vertices = hex_vertices(c, a).reshape(-1, 2)
        meets = np.hypot(*(vertices[:, None, :] - c[None, :, :])
                         .transpose(2, 0, 1)) <= a * (1 + 1e-9)
        idx, inside = alph.nearest_cell(vertices)
        assert np.array_equal(idx, np.argmax(meets, axis=1))
        assert inside.all()

    @given(alph=_ALPHABETS, seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           extra=st.lists(st.tuples(st.sampled_from(_ZONES),
                                    st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                          max_size=20))
    def test_matches_brute_force(self, alph, seed, extra):
        rng = np.random.default_rng(seed)
        zones = [(lo, hi, u, v) for (lo, hi), u, v in extra]
        zones += [(lo, hi, rng.random(), rng.random())
                  for lo, hi in _ZONES for _ in range(300)]
        lo, hi, u, v = np.array(zones).T
        radius = alph.envelope_radius * (lo + (hi - lo) * u)
        angle = 2 * np.pi * v
        pts = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
        idx, inside = alph.nearest_cell(pts)
        assert idx.dtype == np.intp and inside.dtype == bool
        expected = nearest_center_bruteforce(pts, alph.centers, alph.spacing)
        assert np.array_equal(idx, expected)
        chosen = alph.centers[idx]
        assert np.array_equal(inside, hexagon_mask(
            pts[:, 0] - chosen[:, 0], pts[:, 1] - chosen[:, 1], (0.0, 0.0),
            alph.cell_radius))

    def test_rejects_non_finite_points(self, alphabet37):
        with pytest.raises(ValueError):
            alphabet37.nearest_cell([[np.nan, 0.0]])
        with pytest.raises(ValueError):
            alphabet37.nearest_cell([[0.0, np.inf]])

    def test_imaging_negation(self, model37):
        """The II image of "1" lands on its mirror cell; the decoder frame
        negates it back, so "1" decodes as "1" in both matched arms."""
        alph = model37.alphabet
        k = alph.index_of("1")
        mirror, inside = alph.nearest_cell(-alph.centers[[k]])
        assert mirror[0] == alph.inverse_index(k) != k and inside[0]
        for label in ("FF", "II"):
            code = np.array(
                [BASIS_BY_CODE.index(BasisConfig.from_label(label).bob)])
            plane = model37.sample_plane(np.zeros((1, 2)), code,
                                         np.array([k]), code)
            idx, inside = alph.nearest_cell(plane)
            assert alph.labels[idx[0]] == "1" and inside[0]


class TestRhombusLookup:
    """The lattice path of ``nearest_cell``: a sub-cell of the unit rhombus,
    then the cell at its corner."""

    def test_table_is_sound(self):
        """Every coded sub-cell lies inside its corner's hexagon by the
        margin: its four vertices do, at unit spacing.  Under 2 % of the
        sub-cells are band."""
        k = _RHOMBUS_K
        assert _RHOMBUS.dtype == np.int8 and _RHOMBUS.shape == (k * k,)
        assert not _RHOMBUS.flags.writeable
        code = _RHOMBUS.reshape(k, k)
        assert set(np.unique(code)) <= {0, 1, 2, 3, 4}
        assert (code == 4).mean() < 0.02
        assert np.bincount(_RHOMBUS, minlength=5).tolist() == [
            10753, 21547, 21547, 10753, 936]
        i, j = np.nonzero(code < 4)
        dq, dr = code[i, j] & 1, code[i, j] >> 1
        # hex_contains widens the inradius by 1e-12; this radius undoes it.
        radius = (1.0 - 2.0 * _RHOMBUS_MARGIN) / SQRT3 / (1.0 + 1e-12)
        for vi, vj in ((0, 0), (1, 0), (0, 1), (1, 1)):
            q, r = (i + vi) / k - dq, (j + vj) / k - dr
            vertices = np.column_stack([q + 0.5 * r, SQRT3 / 2 * r])
            assert hex_contains(vertices, (0.0, 0.0), radius).all()

    @pytest.mark.parametrize("alph", [
        build_hex_alphabet(0, 200e-6), _BASE37,
        prune_alphabet(_BASE37, ["0", "2", "B", "S"]),
        build_packed_alphabet(1.2e-3, 60e-6)],
        ids=["d1", "d37", "pruned", "packed"])
    def test_points_off_the_table_find_no_cell(self, alph):
        """The lookup clears no point beyond the pattern's last ring, in any
        direction and at any distance; each cell is the corner of four
        rhombi, and the band code reads -1."""
        rng = np.random.default_rng(5)
        angle = rng.random(20_000) * 2 * np.pi
        radius = alph.envelope_radius + alph.spacing * np.exp(
            rng.random(20_000) * np.log(1e6))
        pts = radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        idx, clear = alph._lattice_nearest(pts)
        assert not clear.any() and (idx == -1).all()
        corners = alph._lattice[0]
        assert (corners[..., 4] == -1).all()
        assert np.array_equal(np.sort(corners[corners >= 0]),
                              np.repeat(np.arange(alph.d), 4))

    @given(alph=_LATTICE_ALPHABETS, axial=_AXIAL_POINTS,
           tiny=st.lists(st.tuples(_TINY, _TINY), max_size=8))
    def test_matches_brute_force(self, alph, axial, tiny):
        q, r = np.array(axial).T
        pts = np.concatenate([
            alph.spacing * np.column_stack([q + 0.5 * r, SQRT3 / 2 * r]),
            np.array(tiny).reshape(-1, 2)])
        idx, inside = alph.nearest_cell(pts)
        assert (idx.tolist(), inside.tolist()) == _decode_bruteforce(pts, alph)

    @pytest.mark.parametrize("rings", [0, 3])
    def test_tiny_coordinates(self, rings):
        """Next to zero, ``q - floor(q)`` would round to exactly 1: at
        ``(0, 1.3e-39)``, ``q`` is a tiny negative."""
        alph = build_hex_alphabet(rings, 200e-6)
        tiny = np.array([1.3e-39, -1.3e-39, 5e-324, -5e-324, 1e-300, 0.0])
        pts = np.stack(np.meshgrid(tiny, tiny), axis=-1).reshape(-1, 2)
        idx, inside = alph.nearest_cell(pts)
        assert idx.tolist() == [0] * len(pts) and inside.all()
        assert (idx.tolist(), inside.tolist()) == _decode_bruteforce(pts, alph)


class TestDecodeBounds:
    def test_refuses_points_beyond_the_bound(self):
        """Past about 1.3e154 m the k-d tree's squared distances overflow;
        such points are refused before any lookup, and so are arrays that
        are not points in the plane."""
        alph = ExperimentConfig().build_alphabet()
        big = np.nextafter(1e100, np.inf)
        for pts in ([[1e160, 3e159]], [[big, 0.0]], [[0.0, -big]],
                    [[0.0, 0.0], [1e300, 0.0]]):
            with pytest.raises(ValueError, match=r"at most 1e\+100 m"):
                alph.nearest_cell(pts)
        for shape in ((5, 3), (1, 4), (2, 2, 2), (0,)):
            with pytest.raises(ValueError, match=r"shape \(2,\) or \(m, 2\)"):
                alph.nearest_cell(np.zeros(shape))

    def test_accepts_the_bound(self):
        alph = ExperimentConfig().build_alphabet()
        idx, inside = alph.nearest_cell(
            [[1e100, -1e100], [-1e100, 0.0], [3e-4, 1e100], [0.0, 0.0]])
        assert idx.dtype == np.intp and idx.min() >= 0 and idx.max() < alph.d
        assert inside.tolist() == [False, False, False, True]
        idx, inside = alph.nearest_cell([1e100, 0.0])  # one point, shape (2,)
        assert idx.shape == (1,) and not inside[0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite(self, bad):
        pts = np.zeros((5, 2))
        pts[3, 1] = bad
        with pytest.raises(ValueError, match="points must be finite"):
            _BASE37.nearest_cell(pts)

    def test_no_points(self):
        idx, inside = _BASE37.nearest_cell(np.zeros((0, 2)))
        assert idx.shape == inside.shape == (0,)


class TestPrune:
    def test_removes_mirror_partner(self, alphabet37):
        pruned = prune_alphabet(alphabet37, ["1"])
        assert pruned.d == 35
        assert "1" not in pruned.labels and "4" not in pruned.labels
        for i in range(pruned.d):
            pruned.inverse_index(i)  # closure under point reflection

    @given(idx=st.sets(st.integers(min_value=1, max_value=36), min_size=1,
                       max_size=10))
    def test_symmetry_preserved(self, alphabet37, idx):
        labels = [alphabet37.labels[i] for i in idx]
        pruned = prune_alphabet(alphabet37, labels)
        for i in range(pruned.d):
            j = pruned.inverse_index(i)
            assert np.allclose(pruned.centers[j], -pruned.centers[i])

    def test_unknown_label(self, alphabet37):
        with pytest.raises(KeyError):
            prune_alphabet(alphabet37, ["z9"])
        with pytest.raises(ValueError, match="labels must be a list"):
            prune_alphabet(alphabet37, "12")  # not "1" and "2"

    def test_cannot_empty(self):
        alph = build_hex_alphabet(0, 200e-6)
        with pytest.raises(ValueError):
            prune_alphabet(alph, ["0"])


class TestSourceDistribution:
    def test_validation(self, model37):
        # A source is a plain probability vector held to the shared rule.
        assert np.array_equal(distribution(model37.source()), model37.source())
        with pytest.raises(ValueError, match="sum to"):
            distribution(np.array([0.7, 0.7]))
        with pytest.raises(ValueError, match="finite and non-negative"):
            distribution(np.array([1.2, -0.2]))


class TestProbabilityMap:
    def test_validation_errors(self, model37):
        table = model37.probability_table()
        matched = {k: table.probs[k].copy() for k in ("FF", "II")}
        envelope = table.probs["IF"][0].copy()

        def build(matched=matched, envelope=envelope):
            return ProbabilityMap(table.cell_labels, table.cell_centers,
                                  table.source_labels, matched, envelope)

        build()  # the unchanged inputs are accepted
        with pytest.raises(ValueError, match=r"FF must have shape \(37, 37\)"):
            build({**matched, "FF": matched["FF"][:, :-1]})
        with pytest.raises(ValueError, match="matched must hold FF and II"):
            build({"FF": matched["FF"]})
        with pytest.raises(ValueError, match="matched must hold FF and II"):
            build({**matched, "IF": matched["FF"]})
        with pytest.raises(ValueError, match=r"envelope must have shape \(37,\)"):
            build(envelope=table.probs["IF"])
        negative = matched["II"].copy()
        negative[3, 5] = -1e-9
        with pytest.raises(ValueError, match="negative probabilities in II"):
            build({**matched, "II": negative})
        with pytest.raises(ValueError, match="envelope has a row summing above 1"):
            build(envelope=envelope * 1.5)
        with pytest.raises(ValueError, match="cell centers"):
            ProbabilityMap(table.cell_labels, table.cell_centers[:-1],
                           table.source_labels, matched, envelope)

    def test_leaves_caller_dicts_alone(self, model37):
        table = model37.probability_table()
        matched = {k: table.probs[k].copy() for k in ("FF", "II")}
        envelope = table.probs["IF"][0].copy()
        matched["FF"][0, -1] = -1e-13  # within tolerance, clipped to zero
        envelope[-1] = -1e-13
        before = {k: v.copy() for k, v in matched.items()}
        before_envelope = envelope.copy()
        arrays = dict(matched)
        built = ProbabilityMap(table.cell_labels, table.cell_centers,
                               table.source_labels, matched, envelope)
        assert built.probs["FF"][0, -1] == 0.0
        assert np.all(built.probs["IF"][:, -1] == 0.0)
        assert np.array_equal(envelope, before_envelope)
        assert not np.shares_memory(built.probs["IF"], envelope)
        for key in matched:
            assert matched[key] is arrays[key]
            assert np.array_equal(matched[key], before[key])
            assert not np.shares_memory(built.probs[key], matched[key])

    def test_owned_blocks_are_clipped_in_place(self):
        """Handed-over blocks are not copied, so building a map peaks at the
        size it holds; the result equals the copying build's."""
        n = 400
        rng = np.random.default_rng(8)
        labels = tuple(f"c{i}" for i in range(n))
        centers = rng.random((n, 2))
        ff = rng.random((n, n)) / n
        ff[0, :3] = -1e-13, -0.0, 0.0  # clipped, within tolerance
        matched, envelope = {"FF": ff, "II": ff[::-1].copy()}, ff[1].copy()
        copied = ProbabilityMap(labels, centers, labels,
                                {k: v.copy() for k, v in matched.items()},
                                envelope.copy())
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            owned = ProbabilityMap(labels, centers, labels, matched, envelope,
                                   _owned=True)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * matched["FF"].nbytes
        for key in ("FF", "II", "IF"):
            assert owned.probs[key].tobytes() == copied.probs[key].tobytes()
            assert owned.residual[key].tobytes() == copied.residual[key].tobytes()

    def test_column_lookup(self, model37, alphabet37):
        table = model37.probability_table()
        vec, residual = table.column("FF", "0")
        assert vec.shape == (37,)
        assert vec[0] > 0.99
        assert 0 <= residual < 0.01
        edge_vec, edge_residual = table.column("FF", "J")
        assert edge_vec[alphabet37.index_of("J")] > 0.99
        assert 0 < edge_residual < 0.01  # outer cells leak past the pattern
        with pytest.raises(KeyError):
            table.column("FF", "z9")

    def test_csv_round_numbers(self, model37, tmp_path):
        table = model37.probability_table()
        path = tmp_path / "maps.csv"
        table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "config,sent_char,cell_char,probability"
        assert len(lines) == 1 + 4 * 37 * 38
        first = lines[1].split(",")
        assert first[:3] == ["FF", "0", "0"]
        assert float(first[3]) == pytest.approx(table.probs["FF"][0, 0])


class TestBinning:
    def test_binning_matches_quadrature(self, model37, alphabet37):
        table = model37.probability_table()
        for config, idx in ((BasisConfig.from_label("FF"), 0),
                            (BasisConfig.from_label("IF"), 5)):
            imap = model37.intensity_grid(config, idx)
            binned, residual = bin_probabilities(imap, alphabet37)
            ref = table.probs[config.label][idx]
            # Boundary subpixels are assigned whole to the nearest cell, so
            # grid binning agrees with edge quadrature to a few 1e-4 per cell.
            assert np.max(np.abs(binned - ref)) < 5e-4
            assert abs(residual - table.residual[config.label][idx]) < 1e-3
            assert binned.sum() + residual == pytest.approx(imap.integral(),
                                                            abs=1e-9)

    @pytest.mark.parametrize("build", [
        lambda: build_hex_alphabet(3, 200e-6),
        lambda: prune_alphabet(build_hex_alphabet(3, 200e-6), ["1", "A"]),
    ], ids=["d37", "pruned"])
    def test_cached_binning_is_exact(self, build, model37, monkeypatch):
        alph = build()
        decoded = []
        nearest_cell = HexAlphabet.nearest_cell

        def counting(self, points):
            decoded.append(len(points))
            return nearest_cell(self, points)

        monkeypatch.setattr(HexAlphabet, "nearest_cell", counting)
        rng = np.random.default_rng(3)
        ff = model37.intensity_grid(BasisConfig.from_label("FF"), 4)
        wide = IntensityMap(rng.random((512, 512)), 3e-3)
        small = IntensityMap(rng.random((256, 256)), 3e-3)
        # Alternate grids on one alphabet instance, so that n and extent
        # each change alone.  A repeated key decodes nothing; a new one
        # fills the one slot again.
        for imap, warm in ((ff, False), (ff, True), (wide, False),
                           (small, False), (small, True), (ff, False)):
            decoded.clear()
            got = bin_probabilities(imap, alph)
            assert (sum(decoded) == 0) == warm
            want = bin_probabilities_reference(imap, alph)
            assert np.array_equal(got[0], want[0])
            assert got[1] == want[1]

    def test_partition_is_read_only_and_off_heap(self, model37):
        """The cached partition outlives its build scratch, so it lives in
        memory maps of its own and pins no hole in the malloc heap."""
        alph = build_hex_alphabet(3, 200e-6)
        bin_probabilities(model37.intensity_grid(BasisConfig.from_label("FF"), 4),
                          alph)
        for part in alph._partition[1:]:
            assert not part.flags.writeable
            owner = part
            while isinstance(owner, np.ndarray):
                owner = owner.base
            assert isinstance(owner.obj, mmap.mmap)  # via a memoryview


class TestLeakage:
    def test_default_alphabet_clean(self, model37):
        assert leakage_check(model37.probability_table(), eps=1e-4) == []

    def test_shrunken_alphabet_flags_outer_region(self, alphabet37, geometry):
        inner = build_hex_alphabet(1, 200e-6)
        wide_waist = calibrate_envelope(alphabet37)
        model = GaussianModel(alphabet=inner, geometry=geometry,
                              envelope_waist=wide_waist)
        # Adjacent cells see a few 1e-4 of leaked matched mass, so test with
        # a threshold above that.
        flagged = leakage_check(model.probability_table(alphabet37), eps=1e-3)
        labels = {cell.label for cell in flagged}
        outer = set(alphabet37.labels[7:])
        assert labels == outer
        assert all(cell.reason == "no_matched_support" for cell in flagged)

    def test_narrow_envelope_flags_matched_only_cells(self, alphabet37,
                                                      geometry):
        model = GaussianModel(alphabet=alphabet37, geometry=geometry,
                              envelope_waist=0.25e-3)
        flagged = leakage_check(model.probability_table(), eps=1e-4)
        assert flagged
        assert all(cell.reason == "no_conjugate_support" for cell in flagged)

    def test_flagged_cells_feed_prune(self, alphabet37, geometry):
        model = GaussianModel(alphabet=alphabet37, geometry=geometry,
                              envelope_waist=0.25e-3)
        flagged = leakage_check(model.probability_table(), eps=1e-4)
        pruned = prune_alphabet(alphabet37, [c.label for c in flagged])
        assert pruned.d < alphabet37.d
        assert pruned.d >= 1

    def test_eps_validation(self, model37):
        with pytest.raises(ValueError):
            leakage_check(model37.probability_table(), eps=0.0)


class TestSerialization:
    def test_json_round_trip(self, alphabet37, tmp_path):
        path = tmp_path / "alphabet.json"
        save_alphabet(alphabet37, path)
        loaded = load_alphabet(path)
        assert loaded.labels == alphabet37.labels
        assert loaded.cell_radius == alphabet37.cell_radius
        assert np.array_equal(loaded.centers, alphabet37.centers)

    def test_file_with_rings_key_loads(self, alphabet37, tmp_path):
        """Files written when alphabets stored their ring count still load."""
        data = alphabet37.to_dict()
        path = tmp_path / "alphabet.json"
        path.write_text(json.dumps({"cell_radius": data["cell_radius"],
                                    "rings": 3, "labels": data["labels"],
                                    "centers": data["centers"]}, indent=2))
        loaded = load_alphabet(path)
        assert loaded.labels == alphabet37.labels
        assert loaded.cell_radius == alphabet37.cell_radius
        assert loaded.centers.tobytes() == alphabet37.centers.tobytes()

    def test_round_trip_of_pruned(self, alphabet37, tmp_path):
        pruned = prune_alphabet(alphabet37, ["1", "7"])
        path = tmp_path / "pruned.json"
        save_alphabet(pruned, path)
        loaded = load_alphabet(path)
        assert loaded.labels == pruned.labels
        assert np.array_equal(loaded.centers, pruned.centers)
