from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spatialqkd.infotheory import (CLONING_ATTACK_ERROR_BOUND,
                                   info_ab, info_eve,
                                   intercept_resend_errors, security_crossover,
                                   security_report, shannon_entropy,
                                   uniform_intercept_error)

from _oracles import mutual_information_exact


def uniform(d):
    return np.full(d, 1.0 / d)


class TestEntropy:
    @given(d=st.integers(min_value=1, max_value=300))
    def test_uniform(self, d):
        assert shannon_entropy(uniform(d)) == pytest.approx(np.log2(d))

    def test_point_mass_is_zero_not_negative_zero(self):
        h = shannon_entropy(np.array([1.0, 0.0]))
        assert h == 0.0
        assert np.copysign(1.0, h) == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            shannon_entropy(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            shannon_entropy(np.array([1.5, -0.5]))
        with pytest.raises(ValueError):
            shannon_entropy(np.eye(2))
        for bad in ([np.nan, np.nan], [np.inf, -np.inf], [1.0, np.inf],
                    [np.nan, 1.0]):
            with pytest.raises(ValueError, match="finite and non-negative"):
                shannon_entropy(np.array(bad))

    def test_source_entropy_frozen(self, probs37):
        assert shannon_entropy(probs37) == pytest.approx(4.655660, abs=1e-5)


class TestInterceptErrors:
    def test_formula(self, probs37):
        errors = intercept_resend_errors(probs37, 0.6)
        assert np.allclose(errors, 0.5 * 0.6 * (1 - probs37))

    def test_full_interception_span(self, probs37):
        errors = intercept_resend_errors(probs37, 1.0)
        assert errors.min() == pytest.approx(0.451459, abs=1e-5)
        assert errors.max() == pytest.approx(0.497777, abs=1e-5)
        assert float(probs37 @ errors) == pytest.approx(0.475046, abs=1e-5)

    def test_eta_bounds(self, probs37):
        with pytest.raises(ValueError):
            intercept_resend_errors(probs37, 1.2)
        with pytest.raises(ValueError):
            intercept_resend_errors(probs37, -0.1)

    @given(d=st.integers(min_value=1, max_value=500))
    def test_uniform_closed_form(self, d):
        frac = uniform_intercept_error(d)
        assert isinstance(frac, Fraction)
        if d > 1:
            errors = intercept_resend_errors(uniform(d), 1.0)
            assert errors[0] == pytest.approx(float(frac), abs=1e-15)

    def test_uniform_closed_form_values(self):
        assert uniform_intercept_error(37) == Fraction(18, 37)
        assert uniform_intercept_error(2) == Fraction(1, 4)
        assert uniform_intercept_error(1) == 0


class TestInfoAB:
    def test_zero_error_gives_source_entropy(self, probs37):
        assert info_ab(probs37, 0.0) == pytest.approx(shannon_entropy(probs37))

    def test_frozen_operating_points(self, probs37):
        assert info_ab(probs37, 0.06) == pytest.approx(4.05145, abs=1e-4)
        assert info_ab(probs37, 0.19) == pytest.approx(3.07778, abs=1e-4)

    @given(d=st.integers(min_value=2, max_value=40),
           e=st.floats(min_value=0.0, max_value=0.45))
    def test_uniform_matches_exact_mutual_information(self, d, e):
        p = uniform(d)
        assert info_ab(p, e) == pytest.approx(
            mutual_information_exact(p, e), abs=1e-12)

    @given(eta=st.floats(min_value=0.05, max_value=1.0))
    def test_resend_error_law_is_exact_for_any_source(self, probs37, eta):
        """Errors of the form (eta/2)(1 - p_k) keep the received marginal
        equal to the sent one, so the closed form is the exact mutual
        information for every source distribution."""
        e = intercept_resend_errors(probs37, eta)
        assert info_ab(probs37, e) == pytest.approx(
            mutual_information_exact(probs37, e), abs=1e-10)

    def test_flat_error_on_nonflat_source_differs_from_exact(self, probs37):
        """A flat error rate on a non-flat source skews the received
        marginal, so the closed form and the exact value disagree."""
        approx = info_ab(probs37, 0.3)
        exact = mutual_information_exact(probs37, 0.3)
        assert abs(approx - exact) > 1e-3
        assert abs(approx - exact) < 0.05

    def test_per_char_errors_accepted(self, probs37):
        e = intercept_resend_errors(probs37, 0.3)
        scalar_like = info_ab(probs37, float(e[0]))
        assert info_ab(probs37, e) != pytest.approx(scalar_like, abs=1e-9)

    def test_degenerate_alphabet(self):
        assert info_ab(np.array([1.0]), 0.0) == 0.0

    def test_certain_character_refused(self):
        with pytest.raises(ValueError) as err:
            info_ab([1.0, 0.0], 0.1)
        assert str(err.value) == (
            "degenerate distribution with a certain character")

    def test_error_bounds(self, probs37):
        with pytest.raises(ValueError):
            info_ab(probs37, 1.0)
        with pytest.raises(ValueError):
            info_ab(probs37, -0.01)
        with pytest.raises(ValueError):
            info_ab(probs37, np.full(36, 0.1))


class TestEve:
    def test_scaling(self, probs37):
        h = shannon_entropy(probs37)
        for eta in (0.0, 0.25, 1.0):
            assert info_eve(probs37, eta) == pytest.approx(0.5 * eta * h)

    def test_frozen_full_intercept(self, probs37):
        assert info_eve(probs37, 1.0) == pytest.approx(2.32783, abs=1e-4)


class TestCrossover:
    def test_frozen_solution(self, probs37):
        res = security_crossover(probs37)
        assert not res.secure_for_all_eta
        assert res.eta_star == pytest.approx(0.81709, abs=1e-4)
        assert res.average_error == pytest.approx(0.38816, abs=1e-4)
        assert res.common_information == pytest.approx(1.90205, abs=1e-4)

    def test_balance_at_solution(self, probs37):
        res = security_crossover(probs37, xtol=1e-12)
        errors = intercept_resend_errors(probs37, res.eta_star)
        assert info_ab(probs37, errors) == pytest.approx(
            info_eve(probs37, res.eta_star), abs=1e-9)

    def test_secure_below_crossover(self, probs37):
        res = security_crossover(probs37)
        for eta in (0.1, 0.5, res.eta_star - 0.01):
            report = security_report(probs37, eta)
            assert report.secure
        assert not security_report(probs37, res.eta_star + 0.01).secure

    def test_trivial_alphabet_secure_everywhere(self):
        res = security_crossover(np.array([1.0]))
        assert res.secure_for_all_eta
        assert res.eta_star is None

    def test_as_dict_keys(self, probs37):
        d = security_crossover(probs37).as_dict()
        assert set(d) == {"eta_star", "average_error",
                          "common_information_bits", "secure_for_all_eta"}

    @given(d=st.integers(min_value=2, max_value=64))
    def test_uniform_alphabets_all_cross(self, d):
        res = security_crossover(uniform(d))
        assert not res.secure_for_all_eta
        assert 0 < res.eta_star < 1


class TestReport:
    def test_fields(self, probs37):
        rep = security_report(probs37, 0.4)
        assert rep.eta == 0.4
        assert rep.average_error == pytest.approx(0.4 * 0.475046, abs=1e-5)
        assert rep.info_eve == pytest.approx(0.2 * shannon_entropy(probs37))
        assert rep.secure
        d = rep.as_dict()
        assert set(d) == {"eta", "average_error", "info_ab_bits",
                          "info_eve_bits", "secure"}
        assert d["info_ab_bits"] == rep.info_ab
        assert d["secure"] is True

    def test_cloning_bound_constant(self):
        assert CLONING_ATTACK_ERROR_BOUND == 0.42
        assert CLONING_ATTACK_ERROR_BOUND > 0.38816
