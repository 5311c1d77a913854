import functools

import numpy as np
import pytest

from spatialqkd import adversary
from spatialqkd.adversary import (AdversarySpec, _vertex_score, attack_batch,
                                  eve_information_estimate, eve_log_to_csv,
                                  evidence_scores)
from spatialqkd.alphabet import build_hex_alphabet
from spatialqkd.model import GaussianModel
from spatialqkd.optics import BASIS_BY_CODE, Basis

from _oracles import attack_draws, off_lattice

F = BASIS_BY_CODE.index(Basis.F)


def readouts(matched, measured):
    """Histogram of the attacker's readouts where her basis matched."""
    return np.bincount(measured[matched], minlength=37)


def scores(positions, model):
    """Evidence scores of positions decoded to their nearest cells first."""
    pts = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    nearest, _ = model.alphabet.nearest_cell(pts)
    return evidence_scores(pts, nearest, model)


class TestSpec:
    def test_defaults_inactive(self):
        spec = AdversarySpec()
        assert spec.strategy == "none"
        assert not spec.active

    def test_active_needs_eta(self):
        assert not AdversarySpec(strategy="intercept_resend", eta=0.0).active
        assert AdversarySpec(strategy="intercept_resend", eta=0.5).active

    def test_validation(self):
        with pytest.raises(ValueError):
            AdversarySpec(strategy="clone_everything")
        with pytest.raises(ValueError):
            AdversarySpec(strategy="intercept_resend", eta=1.5)
        with pytest.raises(ValueError):
            AdversarySpec(evidence_threshold=-1.0)
        with pytest.raises(ValueError, match="eta"):
            AdversarySpec("intercept_resend", eta=True)
        with pytest.raises(ValueError, match="evidence_threshold"):
            AdversarySpec("suppress_on_evidence", eta=0.5,
                          evidence_threshold=True)


class TestEvidenceScores:
    def test_cell_center_favors_matched(self, model37, alphabet37):
        same, crossed = scores(alphabet37.centers[:5], model37)
        assert np.all(same > 1.0)
        assert np.all(crossed < 0.2)
        assert np.all(same > crossed)

    def test_between_cells_favors_envelope(self, model37, alphabet37):
        midpoint = alphabet37.centers[1] / 2.0
        same, crossed = scores(midpoint, model37)
        assert crossed[0] > same[0]

    def test_far_outside_everything_is_quiet(self, model37):
        same, crossed = scores((10e-3, 0.0), model37)
        assert same[0] < 1e-6 and crossed[0] < 1e-6

    def test_matches_distance_to_every_center(self, model37, alphabet37):
        rng = np.random.default_rng(4)
        reach = 1.5 * alphabet37.envelope_radius
        pts = rng.uniform(-reach, reach, (5000, 2))
        same, _ = scores(pts, model37)
        c = alphabet37.centers
        dmin2 = ((pts[:, None, :] - c[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        sigma = model37.aperture_waist / 2
        expected = (alphabet37.cell_area * np.exp(-0.5 * dmin2 / sigma ** 2)
                    / (2 * np.pi * sigma ** 2))
        assert np.allclose(same, expected, rtol=1e-12, atol=0.0)

    def test_peak_value(self, model37, alphabet37):
        same, _ = scores(alphabet37.centers[0], model37)
        sigma = model37.aperture_waist / 2
        expected = alphabet37.cell_area / (2 * np.pi * sigma ** 2)
        assert same[0] == pytest.approx(expected)


class TestAttackBatch:
    def test_inactive_strategy_returns_zeros(self, model37):
        rng = np.random.default_rng(1)
        out = attack_batch(None, np.zeros(10, np.int8), np.zeros(10, np.int64),
                           model37, AdversarySpec())
        assert not out.attacked.any()
        assert not out.dropped.any()
        assert np.all(out.measured_idx == -1)

    def test_partial_interception_fraction(self, model37):
        rng = np.random.default_rng(2)
        m = 40_000
        spec = AdversarySpec(strategy="intercept_resend", eta=0.3)
        out = attack_batch(attack_draws(rng, m), np.zeros(m, np.int8),
                           np.zeros(m, np.int64), model37, spec)
        frac = out.attacked.mean()
        assert abs(frac - 0.3) < 5 * np.sqrt(0.3 * 0.7 / m)

    def test_matched_basis_reads_correctly(self, model37):
        rng = np.random.default_rng(3)
        m = 20_000
        sent = rng.integers(0, 37, m)
        a_basis = rng.integers(0, 2, m).astype(np.int8)
        spec = AdversarySpec(strategy="intercept_resend", eta=1.0)
        out = attack_batch(attack_draws(np.random.default_rng(4), m), a_basis,
                           sent, model37, spec)
        matched = out.basis_code == a_basis
        hit = out.measured_idx[matched] == sent[matched]
        assert hit.mean() > 0.99
        crossed_hit = out.measured_idx[~matched] == sent[~matched]
        assert crossed_hit.mean() < 0.2

    def test_plain_strategy_never_drops(self, model37):
        rng = np.random.default_rng(5)
        spec = AdversarySpec(strategy="intercept_resend", eta=1.0,
                             evidence_threshold=10.0)
        out = attack_batch(attack_draws(rng, 5_000), np.zeros(5_000, np.int8),
                           np.zeros(5_000, np.int64), model37, spec)
        assert not out.dropped.any()

    def test_zero_threshold_matches_plain_stream(self, model37):
        m = 10_000
        a_basis = np.random.default_rng(6).integers(0, 2, m).astype(np.int8)
        sent = np.random.default_rng(7).integers(0, 37, m)
        plain = attack_batch(attack_draws(np.random.default_rng(8), m),
                             a_basis, sent, model37,
                             AdversarySpec(strategy="intercept_resend",
                                           eta=0.7))
        zero = attack_batch(attack_draws(np.random.default_rng(8), m),
                            a_basis, sent, model37, AdversarySpec(strategy="suppress_on_evidence",
                                          eta=0.7, evidence_threshold=0.0))
        assert np.array_equal(plain.attacked, zero.attacked)
        assert np.array_equal(plain.basis_code, zero.basis_code)
        assert np.array_equal(plain.measured_idx, zero.measured_idx)
        assert not zero.dropped.any()

    def test_suppression_only_drops_mismatched_rounds(self, model37):
        rng = np.random.default_rng(9)
        m = 20_000
        a_basis = np.zeros(m, dtype=np.int8)
        sent = np.random.default_rng(10).integers(0, 37, m)
        spec = AdversarySpec(strategy="suppress_on_evidence", eta=1.0,
                             evidence_threshold=1e-4)
        out = attack_batch(attack_draws(rng, m), a_basis, sent, model37, spec)
        assert out.dropped.sum() > 0
        mismatched = out.basis_code != a_basis
        assert np.all(mismatched[out.dropped])
        assert out.dropped.sum() < mismatched.sum()

    def test_intercept_resend_round(self, model37):
        idx = model37.alphabet.index_of("7")
        out = attack_batch(attack_draws(np.random.default_rng(12), 1),
                           np.array([F], np.int8),
                           np.array([idx]), model37,
                           AdversarySpec(strategy="intercept_resend", eta=1.0))
        assert out.attacked.tolist() == [True]
        assert out.basis_code[0] in (0, 1)
        assert 0 <= out.measured_idx[0] < model37.alphabet.d
        assert not out.dropped[0]

    def test_matched_readout_within_binomial_band(self, model37):
        """Where her basis matches, she reads the sent character except
        for the matched-basis leakage of the quadrature table."""
        m = 40_000
        idx = model37.alphabet.index_of("7")
        out = attack_batch(attack_draws(np.random.default_rng(100), m),
                           np.full(m, F, np.int8),
                           np.full(m, idx), model37,
                           AdversarySpec(strategy="intercept_resend", eta=1.0))
        matched = out.basis_code == F
        n = int(matched.sum())
        wrong = int((out.measured_idx[matched] != idx).sum())
        p = 1.0 - model37.probability_table().probs["FF"][idx, idx]
        assert abs(wrong - n * p) < 5 * np.sqrt(n * p * (1 - p))

    def test_suppression_round_can_drop(self, model37):
        m = 300
        out = attack_batch(attack_draws(np.random.default_rng(1000), m),
                           np.full(m, F, np.int8),
                           np.full(m, model37.alphabet.index_of("0")), model37,
                           AdversarySpec(strategy="suppress_on_evidence",
                                         eta=1.0, evidence_threshold=1e-4))
        assert out.dropped.any()
        assert np.all(out.attacked[out.dropped])

    def test_huge_threshold_is_self_defeating(self, model37):
        """Requiring overwhelming envelope evidence means nothing ever
        qualifies, so no rounds are dropped."""
        rng = np.random.default_rng(11)
        spec = AdversarySpec(strategy="suppress_on_evidence", eta=1.0,
                             evidence_threshold=1e9)
        out = attack_batch(attack_draws(rng, 2_000), np.zeros(2_000, np.int8),
                           np.zeros(2_000, np.int64), model37, spec)
        assert not out.dropped.any()


@functools.cache
def scoring_model(name: str) -> GaussianModel:
    """d = 7, 37 and 331 on the lattice, and 37 off it."""
    rings = {"d7": 1, "d37": 3, "d331": 10, "off_lattice": 3}[name]
    alphabet = build_hex_alphabet(rings, 200e-6)
    return GaussianModel(off_lattice(alphabet) if name == "off_lattice"
                         else alphabet)


def attack_scoring_every_point(draws, a_basis, sent, model, spec):
    """The four attack arrays with every decoded point scored."""
    tap, basis_code, noise = draws
    attacked = tap < spec.eta
    pos = model.sample_plane(noise, a_basis, sent, basis_code)
    nearest, _ = model.alphabet.nearest_cell(pos)
    same, crossed = evidence_scores(pos, nearest, model)
    eps = spec.evidence_threshold
    return (attacked, basis_code, nearest,
            attacked & (same < eps) & (crossed >= eps))


def scoring_inputs(model, m, seed):
    rng = np.random.default_rng(seed)
    return (attack_draws(rng, m), rng.integers(0, 2, m).astype(np.int8),
            rng.integers(0, model.alphabet.d, m))


class TestOffCellScoring:
    """Suppression scores only points outside their cell while the vertex
    score clears the threshold, with the outcome of scoring every point."""

    @pytest.mark.parametrize("name", ["d7", "d37", "d331", "off_lattice"])
    @pytest.mark.parametrize("threshold", [
        0.0, 1e-6, 1e-4, "vertex-", "vertex+", 1e-2, 1e9])
    def test_matches_scoring_every_point(self, name, threshold):
        model = scoring_model(name)
        vertex = _vertex_score(model)
        eps = {"vertex-": vertex * (1 - 1e-6),
               "vertex+": vertex * (1 + 1e-6)}.get(threshold, threshold)
        spec = AdversarySpec("suppress_on_evidence", eta=0.7,
                             evidence_threshold=eps)
        draws, a_basis, sent = scoring_inputs(model, 20_000, 21)
        out = attack_batch(draws, a_basis, sent, model, spec)
        ref = attack_scoring_every_point(draws, a_basis, sent, model, spec)
        got = (out.attacked, out.basis_code, out.measured_idx, out.dropped)
        for array, expected in zip(got, ref):
            assert array.dtype.kind == expected.dtype.kind
            assert np.array_equal(array, expected)

    def test_vertex_score_bounds_every_inside_point(self, model37):
        """No point inside its cell scores below the vertex score, and a
        point at a vertex scores within 1e-7 of it (the margin of 1e-9 on
        the radius moves the score by ``(a / sigma)**2 * 1e-9``)."""
        pts = model37.sample_plane(
            np.random.default_rng(22).standard_normal((50_000, 2)),
            np.zeros(50_000, np.int8), np.arange(50_000) % 37,
            np.zeros(50_000, np.int8))
        nearest, inside = model37.alphabet.nearest_cell(pts)
        same, _ = evidence_scores(pts[inside], nearest[inside], model37)
        vertex = _vertex_score(model37)
        assert same.min() >= vertex
        corner = model37.alphabet.centers[:1] + (0.0, model37.alphabet.cell_radius)
        at_vertex, _ = evidence_scores(corner, np.zeros(1, np.intp), model37)
        assert vertex < at_vertex[0] == pytest.approx(vertex, rel=1e-7)

    @pytest.mark.parametrize("threshold", [1e-4, 5e-3])
    def test_scores_every_point_when_the_bound_fails(self, model37,
                                                     monkeypatch, threshold):
        scored = []

        def counting(positions, nearest, model):
            scored.append(len(positions))
            return evidence_scores(positions, nearest, model)

        monkeypatch.setattr(adversary, "evidence_scores", counting)
        m = 20_000
        draws, a_basis, sent = scoring_inputs(model37, m, 23)
        out = attack_batch(draws, a_basis, sent, model37,
                           AdversarySpec("suppress_on_evidence", eta=1.0,
                                         evidence_threshold=threshold))
        pos = model37.sample_plane(draws[2], a_basis, sent, draws[1])
        inside = model37.alphabet.nearest_cell(pos)[1]
        if threshold > _vertex_score(model37):
            assert sum(scored) == m
            assert (out.dropped & inside).any()
        else:
            assert sum(scored) == np.count_nonzero(~inside) < 0.05 * m
            assert not (out.dropped & inside).any()


class TestEveInformation:
    def test_all_matched_uniform(self):
        matched = np.ones(370, dtype=bool)
        measured = np.tile(np.arange(37), 10)
        bits = eve_information_estimate(readouts(matched, measured),
                                        matched.size)
        assert bits == pytest.approx(np.log2(37))

    def test_half_matched_scales(self):
        matched = np.zeros(740, dtype=bool)
        matched[:370] = True
        measured = np.tile(np.arange(37), 20)
        bits = eve_information_estimate(readouts(matched, measured),
                                        matched.size)
        assert bits == pytest.approx(0.5 * np.log2(37))

    def test_empty(self):
        assert eve_information_estimate(
            readouts(np.zeros(0, bool), np.zeros(0, np.int64)), 0) == 0.0
        assert eve_information_estimate(
            readouts(np.zeros(5, bool), np.arange(5)), 5) == 0.0

    def test_constant_readout_is_zero_bits(self):
        matched = np.ones(100, dtype=bool)
        measured = np.full(100, 4)
        assert eve_information_estimate(readouts(matched, measured),
                                        matched.size) == 0.0


class TestEveLog:
    def test_csv_format(self, model37, tmp_path):
        path = tmp_path / "eve.csv"
        eve_log_to_csv(path,
                       round_index=np.array([3, 9]),
                       basis_code=np.array([0, 1], dtype=np.int8),
                       measured_idx=np.array([0, 36]),
                       dropped=np.array([False, True]),
                       labels=model37.alphabet.labels)
        lines = path.read_text().splitlines()
        assert lines[0] == "round,basis,measured_char,dropped"
        assert lines[1] == "3,I,0,0"
        assert lines[2] == "9,F,a,1"
