import csv
import json

import numpy as np
import pytest
from scipy import stats as sps

from spatialqkd.adversary import AdversarySpec
from spatialqkd.config import ConfigError, ExperimentConfig, SessionParams
from spatialqkd.optics import BASIS_BY_CODE, Basis
from spatialqkd.protocol import (BATCH_SIZE, NoiseModel, run_session,
                                 _estimate_from_arrays, _flatten_mask,
                                 _measure_batch)

F = BASIS_BY_CODE.index(Basis.F)
I = BASIS_BY_CODE.index(Basis.I)


def make_config(**session_kwargs):
    adversary = session_kwargs.pop("adversary", AdversarySpec())
    noise = session_kwargs.pop("noise", NoiseModel())
    session_kwargs.setdefault("keep_log", True)
    return ExperimentConfig(noise=noise, adversary=adversary,
                            session=SessionParams(**session_kwargs))


def measure(model, rng, char, prep, bob, m, noise=NoiseModel()):
    """``m`` photons of one character through ``_measure_batch``."""
    idx = np.full(m, model.alphabet.index_of(char))
    out = _measure_batch(rng, np.full(m, prep, np.int8), idx,
                         np.full(m, bob, np.int8), model, noise)
    return out, idx


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(background_prob=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(jitter_sigma=-1e-6)
        with pytest.raises(ValueError):
            NoiseModel(loss_prob=1.5)
        for kwargs in ({"loss_prob": True}, {"background_prob": True},
                       {"jitter_sigma": True, "background_prob": False}):
            with pytest.raises(ValueError, match="boolean"):
                NoiseModel(**kwargs)

    def test_background_weight(self):
        noise = NoiseModel(background_prob=0.01)
        assert noise.background_weight(37) == pytest.approx(0.37 / 1.37)
        assert NoiseModel().background_weight(37) == 0.0


class TestPrepareAndMeasure:
    def test_alice_prepare_draws(self):
        cfg = make_config(rounds=2000, seed=3)
        log = run_session(cfg).log
        n_f = int((log.alice_basis == F).sum())
        assert abs(n_f - 1000) < 5 * np.sqrt(2000 * 0.25)
        n_center = int((log.sent == log.labels.index("0")).sum())
        p0 = cfg.build_model().source()[0]
        assert abs(n_center - 2000 * p0) < 5 * np.sqrt(2000 * p0 * (1 - p0))

    def test_bob_measure_matched_mostly_correct(self, model37):
        out, idx = measure(model37, np.random.default_rng(4), "7", F, F, 300)
        assert (out != idx).sum() <= 6  # leakage rate is about 1.5e-3

    def test_bob_measure_imaging_pair_undoes_inversion(self, model37):
        """The II image of "1" sits on the cell of "4"; the decoder frame
        flips it back, so Bob reads "1" and never the mirror cell."""
        out, idx = measure(model37, np.random.default_rng(5), "1", I, I, 50)
        assert np.array_equal(out, idx)
        mirror = model37.alphabet.inverse_index(idx[0])
        assert mirror != idx[0] and not (out == mirror).any()
        plane = model37.sample_plane(np.zeros((1, 2)), np.array([I]), idx[:1],
                                     np.array([I]))
        assert np.array_equal(plane[0], model37.alphabet.centers[idx[0]])

    def test_crossed_measurement_uninformative(self, model37):
        out, idx = measure(model37, np.random.default_rng(6), "0", I, F, 400)
        assert (out == idx).mean() < 0.2  # envelope mass at the center is 9.4%

    def test_matched_wrong_count_within_binomial_band(self, model37):
        rng = np.random.default_rng(20)
        m = 100_000
        prep = np.ones(m, dtype=np.int8)
        idx = np.full(m, 7)
        out = _measure_batch(rng, prep, idx, prep, model37, NoiseModel())
        wrong = int((out != 7).sum())
        p = 1.0 - model37.probability_table().probs["FF"][7, 7]
        assert abs(wrong - m * p) < 5 * np.sqrt(m * p * (1 - p))

    def test_crossed_counts_match_envelope_quadrature(self, model37):
        rng = np.random.default_rng(21)
        m = 200_000
        prep = np.zeros(m, dtype=np.int8)
        bob = np.ones(m, dtype=np.int8)
        out = _measure_batch(rng, prep, np.full(m, 3), bob, model37,
                             NoiseModel())
        counts = np.bincount(out + 1, minlength=38)
        row = model37.probability_table()
        expected = np.concatenate(([row.residual["IF"][3]],
                                   row.probs["IF"][3])) * m
        result = sps.chisquare(counts, f_exp=expected)
        assert result[1] > 0.01

    def test_crossed_rows_homogeneous(self, model37):
        """The conjugate-basis outcome must not depend on the sent character
        or on which station uses which arm."""
        rng = np.random.default_rng(22)
        m = 50_000
        table = np.empty((74, 38), dtype=np.int64)
        for row, (prep_code, bob_code) in enumerate(((0, 1), (1, 0))):
            prep = np.full(m, prep_code, dtype=np.int8)
            bob = np.full(m, bob_code, dtype=np.int8)
            for k in range(37):
                out = _measure_batch(rng, prep, np.full(m, k), bob, model37,
                                     NoiseModel())
                table[37 * row + k] = np.bincount(out + 1, minlength=38)
        result = sps.chi2_contingency(table)
        assert result[1] > 0.01

    def test_loss_beats_background(self, model37):
        noise = NoiseModel(background_prob=0.5, loss_prob=1.0)
        rng = np.random.default_rng(9)
        prep = np.zeros(200, dtype=np.int8)
        out = _measure_batch(rng, prep, np.zeros(200, np.int64), prep,
                             model37, noise)
        assert np.all(out == -1)

    def test_present_mask_blanks_rounds(self, model37):
        rng = np.random.default_rng(10)
        prep = np.ones(100, dtype=np.int8)
        present = np.zeros(100, dtype=bool)
        present[::2] = True
        out = _measure_batch(rng, prep, np.zeros(100, np.int64), prep,
                             model37, NoiseModel(), present=present)
        assert np.all(out[1::2] == -1)
        assert np.all(out[::2] >= 0)


class TestSift:
    def test_session_sift_matches_log(self):
        """Matched-basis rounds with a detection, and only those, are
        sifted, and each is estimated under its own configuration."""
        res = run_session(make_config(
            rounds=6_000, seed=61, sample_fraction=1.0,
            noise=NoiseModel(loss_prob=0.3),
            adversary=AdversarySpec(strategy="intercept_resend", eta=0.5)))
        log = res.log
        mask = (log.alice_basis == log.bob_basis) & (log.received >= 0)
        assert (log.received < 0).any()
        assert (log.alice_basis != log.bob_basis).any()
        assert res.stats.sifted == mask.sum()
        for key, code in (("FF", F), ("II", I)):
            rows = mask & (log.alice_basis == code)
            assert np.array_equal(res.stats.error.counts[key],
                                  np.bincount(log.sent[rows], minlength=37))
        assert res.stats.error.sample_size == mask.sum()


class TestEstimate:
    @staticmethod
    def synthetic(n, wrong_every):
        """``n`` sifted FF pairs of character 0, every ``wrong_every``-th
        received as character 1."""
        code = np.full(n, F, dtype=np.int8)
        sent = np.zeros(n, dtype=np.int64)
        received = np.where(np.arange(n) % wrong_every == 0, 1, 0)
        return code, sent, received, ("0", "1")

    def estimate(self, n, wrong_every, fraction, seed=0):
        return _estimate_from_arrays(np.random.default_rng(seed),
                                     *self.synthetic(n, wrong_every), fraction)

    def test_full_sample_exact_rate(self):
        est, keep = self.estimate(200, 10, 1.0)
        assert est.sample_size == 200
        assert not keep.any()
        assert est.average == pytest.approx(0.1)
        assert est.rate("FF", "0") == pytest.approx(0.1)
        assert np.isnan(est.rate("II", "0"))

    def test_partial_sample_disjoint(self):
        est, keep = self.estimate(400, 4, 0.5, seed=12)
        assert est.sample_size == 200
        assert keep.sum() == 200
        assert est.average == pytest.approx(0.25, abs=0.12)

    def test_low_confidence_flag(self):
        est_small, _ = self.estimate(20, 5, 1.0)
        assert est_small.low_confidence
        est_big, _ = self.estimate(80, 5, 1.0)
        # 80 samples of one character in FF still leaves II unsampled.
        assert est_big.low_confidence

    def test_empty_pairs(self):
        empty = np.empty(0, np.int64)
        est, keep = _estimate_from_arrays(np.random.default_rng(0),
                                          np.empty(0, np.int8), empty, empty,
                                          ("0", "1"), 0.5)
        assert est.sample_size == 0
        assert keep.shape == (0,)
        assert np.isnan(est.average)
        assert est.as_dict()["average"] is None

    def test_fraction_validation(self):
        for fraction in (0.0, 1.5):
            with pytest.raises(ConfigError):
                make_config(sample_fraction=fraction)


class TestFlatten:
    def test_uniform_source_keeps_all(self):
        idx = np.tile([0, 1, 2, 0], 50)
        tape = np.random.default_rng(1).random(idx.shape[0])
        assert _flatten_mask(tape, idx, np.full(3, 1 / 3)).all()

    def test_minimal_char_never_dropped(self, probs37):
        idx = np.full(5000, np.argmin(probs37))
        tape = np.random.default_rng(2).random(5000)
        assert _flatten_mask(tape, idx, probs37).all()

    def test_expected_keep_fraction(self, probs37):
        draws = np.random.default_rng(13).choice(37, size=40_000, p=probs37)
        tape = np.random.default_rng(14).random(draws.shape[0])
        frac = _flatten_mask(tape, draws, probs37).mean()
        expect = 37 * probs37.min()
        assert abs(frac - expect) < 5 * np.sqrt(expect * (1 - expect) / 4e4)

    def test_flattened_counts_uniform(self, probs37):
        draws = np.random.default_rng(15).choice(37, size=60_000, p=probs37)
        tape = np.random.default_rng(16).random(draws.shape[0])
        kept = draws[_flatten_mask(tape, draws, probs37)]
        result = sps.chisquare(np.bincount(kept, minlength=37))
        assert result[1] > 0.01

    def test_shared_tape_alignment(self, probs37):
        """Both parties thin their streams with one tape, so they keep or
        drop every position where their characters agree together."""
        rng = np.random.default_rng(17)
        alice = rng.choice(37, size=500, p=probs37)
        bob = alice.copy()
        bob[::7] = rng.integers(0, 37, bob[::7].shape[0])
        tape = np.random.default_rng(18).random(500)
        keep_a = _flatten_mask(tape, alice, probs37)
        keep_b = _flatten_mask(tape, bob, probs37)
        same = alice == bob
        assert np.array_equal(keep_a[same], keep_b[same])
        assert 0 < keep_a.sum() < 500


class TestRunSession:
    def test_clean_session(self):
        res = run_session(make_config(rounds=40_000, seed=11))
        st = res.stats
        assert st.rounds == 40_000
        assert st.alphabet_size == 37
        # Only conjugate-arm rounds whose envelope leaks past the pattern
        # are lost: 0.5 * (1 - 0.97245).
        assert st.loss_rate == pytest.approx(0.01378, abs=0.003)
        assert 0.45 < st.sifted_fraction < 0.55
        assert st.error.average < 0.01
        assert sum(st.sent_histogram.values()) == 40_000
        assert st.eve_attacked == 0
        assert abs(st.key_alice_length - st.key_bob_length) <= \
            0.01 * max(st.key_alice_length, 1)
        assert st.key_keep_fraction == pytest.approx(st.key_expected_keep,
                                                     abs=0.02)
        assert st.key_expected_keep == pytest.approx(0.16450, abs=1e-4)
        parsed = json.loads(st.to_json())
        assert parsed["rounds"] == 40_000
        assert len(res.log) == 40_000
        log = res.log
        assert ((log.alice_basis == log.bob_basis)
                & (log.received >= 0)).sum() == st.sifted

    def test_deterministic(self):
        a = run_session(make_config(rounds=15_000, seed=42))
        b = run_session(make_config(rounds=15_000, seed=42))
        assert a.stats.to_json() == b.stats.to_json()
        assert a.alice_key == b.alice_key
        assert a.bob_key == b.bob_key
        c = run_session(make_config(rounds=15_000, seed=43))
        assert c.stats.to_json() != a.stats.to_json()

    def test_round_stream_is_prefix_stable(self):
        short = run_session(make_config(rounds=BATCH_SIZE, seed=7))
        long = run_session(make_config(rounds=BATCH_SIZE + 512, seed=7))
        for field in ("alice_basis", "bob_basis", "sent", "received"):
            assert np.array_equal(getattr(short.log, field),
                                  getattr(long.log, field)[:BATCH_SIZE])

    def test_uniform_source_keeps_everything(self):
        res = run_session(make_config(rounds=30_000, seed=19,
                                      source="uniform"))
        assert res.stats.key_expected_keep == pytest.approx(1.0)
        assert res.stats.key_keep_fraction == pytest.approx(1.0)
        hist = np.array(list(res.stats.sent_histogram.values()))
        assert sps.chisquare(hist)[1] > 0.001

    def test_full_interception(self):
        res = run_session(make_config(
            rounds=40_000, seed=23,
            adversary=AdversarySpec(strategy="intercept_resend", eta=1.0)))
        st = res.stats
        assert st.eve_attacked == 40_000
        assert st.eve_dropped == 0
        assert abs(st.eve_matched - 20_000) < 5 * np.sqrt(40_000 * 0.25)
        sigma = 0.5 / np.sqrt(st.error.sample_size)
        assert st.error.average == pytest.approx(0.475, abs=5 * sigma)
        assert st.eve_info_bits == pytest.approx(2.328, abs=0.1)

    def test_suppression_at_zero_threshold_equals_plain(self):
        plain = run_session(make_config(
            rounds=30_000, seed=29,
            adversary=AdversarySpec(strategy="intercept_resend", eta=0.8)))
        zero = run_session(make_config(
            rounds=30_000, seed=29,
            adversary=AdversarySpec(strategy="suppress_on_evidence", eta=0.8,
                                    evidence_threshold=0.0)))
        assert np.array_equal(plain.log.received, zero.log.received)
        assert plain.alice_key == zero.alice_key
        assert zero.stats.eve_dropped == 0

    def test_background_noise_raises_error_rate(self):
        res = run_session(make_config(
            rounds=20_000, seed=31, noise=NoiseModel(background_prob=0.02)))
        assert res.stats.error.average > 0.2

    def test_jitter_raises_error_rate(self):
        res = run_session(make_config(
            rounds=20_000, seed=33, noise=NoiseModel(jitter_sigma=0.5e-3)))
        assert res.stats.error.average > 0.3
        assert res.stats.loss_rate > 0.1

    def test_loss_reduces_detections(self):
        res = run_session(make_config(
            rounds=20_000, seed=37, noise=NoiseModel(loss_prob=0.3)))
        assert res.stats.loss_rate == pytest.approx(0.3, abs=0.02)
        assert res.stats.detected == pytest.approx(14_000, abs=700)

    def test_total_loss(self):
        res = run_session(make_config(
            rounds=2_000, seed=41,
            noise=NoiseModel(background_prob=0.5, loss_prob=1.0)))
        st = res.stats
        assert st.detected == 0
        assert st.sifted == 0
        assert st.sifted_fraction == 0.0
        assert res.alice_key == [] and res.bob_key == []
        assert st.error.as_dict()["average"] is None

    def test_zero_rounds(self):
        res = run_session(make_config(rounds=0, seed=1))
        assert res.stats.detected == 0
        assert res.alice_key == []
        assert len(res.log) == 0

    def test_no_log_mode(self):
        res = run_session(make_config(rounds=5_000, seed=47, keep_log=False))
        assert res.log is None
        assert res.stats.sifted > 0


class TestSessionLog:
    def test_csv_and_records(self, tmp_path):
        res = run_session(make_config(
            rounds=500, seed=53,
            adversary=AdversarySpec(strategy="intercept_resend", eta=0.5)))
        log = res.log
        path = tmp_path / "rounds.csv"
        log.to_csv(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 501
        assert lines[0] == ("round,alice_basis,bob_basis,sent,received,"
                            "attacked,eve_basis,eve_measured,eve_dropped")
        rows = list(csv.DictReader(lines))
        labels = log.labels
        for i, row in enumerate(rows):
            assert row["round"] == str(i)
            assert row["alice_basis"] == BASIS_BY_CODE[log.alice_basis[i]].value
            assert row["bob_basis"] == BASIS_BY_CODE[log.bob_basis[i]].value
            assert row["sent"] == labels[log.sent[i]]
            r = log.received[i]
            assert row["received"] == (labels[r] if r >= 0 else "")
            assert row["eve_dropped"] == "0"
        untouched = [r for r in rows if r["attacked"] == "0"]
        assert untouched and all(r["eve_basis"] == r["eve_measured"] == ""
                                 for r in untouched)
        attacked = [r for r in rows if r["attacked"] == "1"]
        assert attacked and all(r["eve_basis"] in ("I", "F")
                                and r["eve_measured"] in labels
                                for r in attacked)
        assert len(attacked) == log.attacked.sum()
