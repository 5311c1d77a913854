import dataclasses
import hashlib
import json

import numpy as np
import pytest

from spatialqkd.adversary import STRATEGIES, AdversarySpec
from spatialqkd.alphabet import build_hex_alphabet, calibrate_envelope
from spatialqkd.cli import main
from spatialqkd.config import (AlphabetParams, ConfigError, ExperimentConfig,
                               SessionParams)
from spatialqkd.model import GaussianModel
from spatialqkd.optics import Geometry, GeometryError
from spatialqkd.protocol import NoiseModel, run_session

#: Every numeric field of the configuration: its section (None for the
#: top-level ``envelope_waist``), the constructor that checks it, the error
#: that constructor raises, and one value out of the field's range.
_NUMERIC_FIELDS = (
    ("geometry", Geometry, GeometryError, "wavelength", -1.0),
    ("geometry", Geometry, GeometryError, "imaging_focal", 0.0),
    ("geometry", Geometry, GeometryError, "channel_focal", -0.1),
    ("geometry", Geometry, GeometryError, "aperture_waist", 0.0),
    ("geometry", Geometry, GeometryError, "grid_samples", 8),
    ("geometry", Geometry, GeometryError, "grid_extent", 0.0),
    ("alphabet", AlphabetParams, ConfigError, "rings", -1),
    ("alphabet", AlphabetParams, ConfigError, "cell_radius", 0.0),
    ("session", SessionParams, ConfigError, "rounds", -5),
    ("session", SessionParams, ConfigError, "seed", -1),
    ("session", SessionParams, ConfigError, "sample_fraction", 0.0),
    ("noise", NoiseModel, ValueError, "background_prob", -0.1),
    ("noise", NoiseModel, ValueError, "jitter_sigma", -1e-6),
    ("noise", NoiseModel, ValueError, "loss_prob", 1.5),
    ("adversary", AdversarySpec, ValueError, "eta", 1.2),
    ("adversary", AdversarySpec, ValueError, "evidence_threshold", -1.0),
    (None, ExperimentConfig, ConfigError, "envelope_waist", 0.0),
)


class TestConfigValidation:
    def test_defaults_are_consistent(self):
        ExperimentConfig().validate()

    def test_section_validation(self):
        # One rule for every numeric field, on the Python and the JSON path.
        for section, cls, error, key, out_of_range in _NUMERIC_FIELDS:
            for value in (True, np.True_, np.nan, np.inf, -np.inf,
                          out_of_range):
                match = f"{key} .*a boolean" if value is True \
                    or value is np.True_ else key
                with pytest.raises(error, match=match):
                    cls(**{key: value})
                data = {key: value} if section is None \
                    else {section: {key: value}}
                with pytest.raises(ConfigError, match=match):
                    ExperimentConfig.from_dict(data)
        for flags in ({"seed": False}, {"keep_log": 0}, {"keep_log": "yes"},
                      {"source": "laplace"}):
            with pytest.raises(ConfigError):
                SessionParams(**flags)
        for text, key in (('{"session": {"rounds": true}}', "rounds"),
                          ('{"session": {"rounds": 100000.0}}', "rounds"),
                          ('{"geometry": {"grid_samples": 512.0}}',
                           "grid_samples"),
                          ('{"adversary": {"strategy": true}}', "strategy")):
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig.from_json(text)
        cfg = ExperimentConfig.from_json('{"session": {"keep_log": false}}')
        assert cfg.session.keep_log is False

    def test_eta_needs_a_strategy(self):
        """A tapped fraction with no attack strategy would attack nothing."""
        for data in ({"eta": 0.5}, {"strategy": "none", "eta": 1e-9}):
            with pytest.raises(ValueError, match="needs an attack strategy"):
                AdversarySpec(**data)
            with pytest.raises(ConfigError, match="needs an attack strategy"):
                ExperimentConfig.from_dict({"adversary": data})
        assert not AdversarySpec(strategy="none", eta=0.0).active
        for strategy in STRATEGIES[1:]:
            assert AdversarySpec(strategy=strategy, eta=0.5).active

    def test_coarse_grid_reports_both_problems(self):
        cfg = ExperimentConfig(geometry=Geometry(grid_samples=64))
        with pytest.raises(ConfigError) as err:
            cfg.validate()
        message = str(err.value)
        assert "grid step" in message
        assert "aperture waist" in message

    def test_pattern_overflowing_grid(self):
        cfg = ExperimentConfig(alphabet=AlphabetParams(rings=8))
        with pytest.raises(ConfigError, match="half-extent"):
            cfg.validate()

    @pytest.mark.parametrize("alphabet, problem", [
        (AlphabetParams(rings=20), "half-extent"),                   # d = 1261
        (AlphabetParams(rings=12, cell_radius=60e-6), "grid step"),  # d = 469
    ])
    def test_grid_checked_only_where_drawn(self, tmp_path, capsys, alphabet,
                                           problem):
        """Sessions never touch the sample grid, so an alphabet the default
        grid cannot draw still runs; only ``maps`` refuses it."""
        cfg = ExperimentConfig(alphabet=alphabet,
                               session=SessionParams(rounds=4_000, seed=3))
        assert run_session(cfg).stats.rounds == 4_000
        path = str(tmp_path / "config.json")
        cfg.save(path)
        for argv in (["simulate"], ["security", "--eta-points", "3"],
                     ["scaling"]):
            assert main([*argv, "--config", path,
                         "--out", str(tmp_path / argv[0])]) == 0
        capsys.readouterr()
        assert main(["maps", "--config", path,
                     "--out", str(tmp_path / "maps")]) == 2
        assert problem in capsys.readouterr().err

    def test_envelope_waist_override(self):
        cfg = ExperimentConfig(envelope_waist=0.5e-3)
        alphabet = cfg.build_alphabet()
        assert cfg.resolve_envelope_waist(alphabet) == 0.5e-3
        model = cfg.build_model(alphabet)
        assert model.envelope_waist == 0.5e-3

    def test_envelope_waist_default_is_calibrated(self):
        cfg = ExperimentConfig()
        alphabet = cfg.build_alphabet()
        assert cfg.resolve_envelope_waist(alphabet) == pytest.approx(
            calibrate_envelope(alphabet))


class TestConfigSerialization:
    def test_round_trip(self):
        cfg = ExperimentConfig(
            alphabet=AlphabetParams(rings=2, cell_radius=150e-6),
            noise=NoiseModel(background_prob=0.001),
            adversary=AdversarySpec(strategy="intercept_resend", eta=0.4),
            session=SessionParams(rounds=5_000, seed=9),
            envelope_waist=0.7e-3,
        )
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig(session=SessionParams(rounds=123))
        path = tmp_path / "exp.json"
        cfg.save(path)
        assert ExperimentConfig.load(path) == cfg

    def test_unknown_section_rejected(self):
        data = ExperimentConfig().to_dict()
        data["detector"] = {}
        with pytest.raises(ConfigError, match="detector"):
            ExperimentConfig.from_dict(data)

    def test_unknown_key_rejected(self):
        data = ExperimentConfig().to_dict()
        data["geometry"]["prism_angle"] = 0.5
        with pytest.raises(ConfigError, match="prism_angle"):
            ExperimentConfig.from_dict(data)

    def test_bad_value_wrapped(self):
        data = ExperimentConfig().to_dict()
        data["session"]["rounds"] = -3
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)

    def test_partial_dict_uses_defaults(self):
        cfg = ExperimentConfig.from_dict({"session": {"rounds": 42}})
        assert cfg.session.rounds == 42
        assert cfg.geometry == Geometry()


class TestOverride:
    def test_session_and_adversary_fields(self):
        cfg = ExperimentConfig()
        new = cfg.override(rounds=777, eta=0.5, strategy="intercept_resend",
                           seed=3)
        assert new.session.rounds == 777
        assert new.session.seed == 3
        assert new.adversary.eta == 0.5
        assert new.adversary.strategy == "intercept_resend"
        assert cfg.session.rounds == 100_000  # original untouched

    def test_eta_without_strategy_refused(self):
        with pytest.raises(ConfigError, match="eta 0.5 needs an attack"):
            ExperimentConfig().override(eta=0.5)
        attacked = ExperimentConfig().override(eta=0.5,
                                               strategy="intercept_resend")
        with pytest.raises(ConfigError, match="needs an attack"):
            attacked.override(strategy="none")
        assert attacked.override(strategy="none", eta=0.0).adversary == \
            AdversarySpec()

    def test_none_values_ignored(self):
        cfg = ExperimentConfig()
        assert cfg.override(rounds=None, eta=None) == cfg

    def test_unknown_field_rejected(self):
        for value in (600e-9, None):
            with pytest.raises(ConfigError, match="wavelength"):
                ExperimentConfig().override(wavelength=value)


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "config.json"
    ExperimentConfig(session=SessionParams(rounds=2_000, seed=5)).save(path)
    return str(path)


def assert_refused_before_output(argv, out):
    """The command exits 2 and leaves no file in its output directory."""
    assert main([*argv, "--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())


class TestCliSimulate:
    def test_writes_outputs(self, tmp_path, small_config, capsys):
        out = str(tmp_path / "run")
        code = main(["simulate", "--config", small_config, "--out", out,
                     "--round-log"])
        assert code == 0
        stats = json.loads((tmp_path / "run" / "stats.json").read_text())
        assert stats["rounds"] == 2_000
        assert stats["seed"] == 5
        key_lines = (tmp_path / "run" / "alice_key.txt").read_text().split()
        assert len(key_lines) == stats["key"]["alice_length"]
        rounds = (tmp_path / "run" / "rounds.csv").read_text().splitlines()
        assert len(rounds) == 2_001
        assert not (tmp_path / "run" / "eve_records.csv").exists()
        assert "wrote results" in capsys.readouterr().out

    def test_flag_overrides_config(self, tmp_path, small_config):
        out = str(tmp_path / "run")
        code = main(["simulate", "--config", small_config, "--out", out,
                     "--rounds", "600", "--eta", "0.8",
                     "--strategy", "intercept_resend"])
        assert code == 0
        stats = json.loads((tmp_path / "run" / "stats.json").read_text())
        assert stats["rounds"] == 600
        assert stats["eta"] == 0.8
        assert stats["eve"]["attacked"] > 0
        assert (tmp_path / "run" / "eve_records.csv").exists()

    def test_rerun_removes_the_earlier_runs_logs(self, tmp_path):
        """Runs into one directory: each log is there exactly when the last
        run wrote it, and other files are left alone."""
        out = tmp_path / "run"
        (out / "rounds.csv.d").mkdir(parents=True)
        (out / "notes.csv").write_text("kept\n")
        attack = ["--strategy", "intercept_resend", "--eta", "1"]
        for argv, logs in (
                ([*attack, "--rounds", "2000", "--round-log"],
                 {"eve_records.csv", "rounds.csv"}),
                (["--rounds", "1000"], set()),
                ([*attack, "--rounds", "1500"], {"eve_records.csv"}),
                (["--rounds", "1200", "--round-log"], {"rounds.csv"})):
            assert main(["simulate", "--out", str(out), *argv]) == 0
            rounds = int(argv[argv.index("--rounds") + 1])
            assert json.loads((out / "stats.json").read_text())["rounds"] == rounds
            assert {p.name for p in out.glob("*.csv")} == logs | {"notes.csv"}
            if "rounds.csv" in logs:
                rows = (out / "rounds.csv").read_text().splitlines()
                assert len(rows) == rounds + 1
        assert (out / "rounds.csv.d").is_dir()
        assert (out / "notes.csv").read_text() == "kept\n"

    def test_log_bytes_are_pinned(self, tmp_path):
        """Byte-exact round and attacker logs at a fixed seed.  The run
        spans more than one write block and holds untouched, attacked,
        dropped and undetected rows."""
        out = tmp_path / "run"
        code = main(["simulate", "--out", str(out), "--round-log",
                     "--rounds", "5000", "--seed", "7",
                     "--strategy", "suppress_on_evidence", "--eta", "0.6"])
        assert code == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("rounds.csv", "eve_records.csv")}
        assert digests == {
            "rounds.csv": "6ad1186abfb31fec4247e802756ade9c"
                          "1592cbe1851f320afb725af540c6ad68",
            "eve_records.csv": "2bd9835b4f797aaf27d0b6580f691d6c"
                               "863305b3675f3e6480d42f0f4bc6a4a9",
        }

    def test_every_strategy_runs(self, tmp_path):
        for strategy in STRATEGIES:
            eta = ["--eta", "0.5"] if strategy != "none" else []
            assert main(["simulate", "--rounds", "1000", *eta,
                         "--strategy", strategy,
                         "--out", str(tmp_path / strategy)]) == 0

    def test_eta_without_strategy_refused_before_running(self, tmp_path,
                                                         capsys):
        for strategy in ([], ["--strategy", "none"]):
            assert_refused_before_output(
                ["simulate", "--rounds", "20000", "--eta", "0.5", *strategy],
                tmp_path / "o")
            assert "needs an attack strategy" in capsys.readouterr().err

    def test_round_log_without_log_refused_before_running(self, tmp_path,
                                                          capsys):
        path = tmp_path / "config.json"
        ExperimentConfig(session=SessionParams(rounds=2_000, seed=5,
                                               keep_log=False)).save(path)
        assert_refused_before_output(
            ["simulate", "--config", str(path), "--round-log"],
            tmp_path / "o")
        assert "keep_log" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_rounds_beyond_memory(self, tmp_path, capsys):
        """The first round column asks for 909 TiB, which fails at once."""
        code = main(["simulate", "--out", str(tmp_path / "o"),
                     "--rounds", "1000000000000000"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_streamed_rounds_beyond_memory(self, tmp_path, capsys):
        """Without the round log the sifted-row buffers ask for as much."""
        path = tmp_path / "nolog.json"
        ExperimentConfig(session=SessionParams(keep_log=False)).save(path)
        code = main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "o"),
                     "--rounds", "1000000000000000"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_invalid_override_value(self, tmp_path, small_config, capsys):
        code = main(["simulate", "--config", small_config,
                     "--out", str(tmp_path / "o"), "--eta", "1.7",
                     "--strategy", "intercept_resend"])
        assert code == 2
        assert "eta" in capsys.readouterr().err


class TestCliMaps:
    def test_default_outputs(self, tmp_path, small_config, capsys):
        out = tmp_path / "maps"
        code = main(["maps", "--config", small_config, "--out", str(out),
                     "--char", "7", "--configs", "FF,IF",
                     "--formats", "csv,pgm"])
        assert code == 0
        assert (out / "alphabet.json").exists()
        table = (out / "probability_maps.csv").read_text().splitlines()
        assert table[0] == "config,sent_char,cell_char,probability"
        assert (out / "map_FF_7.csv").exists()
        assert (out / "map_IF_7.pgm").read_bytes().startswith(b"P5")
        printed = capsys.readouterr().out
        assert "matched-basis detection probability 0.998" in printed

    def test_table_and_map_bytes_are_pinned(self, tmp_path):
        """Byte-exact probability table and intensity maps of the default
        configuration, plus the table of a detection region wider than the
        source alphabet (more cell columns than source rows)."""
        out = tmp_path / "maps"
        code = main(["maps", "--out", str(out), "--char", "7",
                     "--configs", "FF,IF", "--formats", "csv"])
        assert code == 0
        wide = GaussianModel(alphabet=build_hex_alphabet(1, 200e-6))
        wide.probability_table(build_hex_alphabet(3, 200e-6)).to_csv(
            out / "wide.csv")
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("probability_maps.csv", "map_FF_7.csv",
                                "map_IF_7.csv", "wide.csv")}
        assert digests == {
            "probability_maps.csv": "1bf49424efb5648833035c1d9aa8e2ab"
                                    "0c41806d20d64133af577e3f8b663b21",
            "map_FF_7.csv": "ebb16cf84421d6f890c3080805a9b9ff"
                            "7baded80244ff0bce7b382f6bb040607",
            "map_IF_7.csv": "b862856de8a9938a7514624f5d4f8e40"
                            "b119c3c34a61fb756d5e4a02db46cc23",
            "wide.csv": "d9e5e6ca6f224268f7e02091e0094c7d"
                        "c505cc25d106702208fc1a5ae508f7ee",
        }

    def test_unknown_char(self, tmp_path, small_config, capsys):
        assert_refused_before_output(
            ["maps", "--config", small_config, "--char", "zz"],
            tmp_path / "m")
        assert "zz" in capsys.readouterr().err

    def test_unknown_format(self, tmp_path, small_config):
        assert_refused_before_output(
            ["maps", "--config", small_config, "--formats", "bmp"],
            tmp_path / "m")

    @pytest.mark.parametrize("formats", ["", ",", " , "])
    def test_empty_format_list(self, tmp_path, small_config, formats, capsys):
        assert_refused_before_output(
            ["maps", "--config", small_config, "--formats", formats],
            tmp_path / "m")
        assert "no map format" in capsys.readouterr().err

    def test_unknown_config_label(self, tmp_path, small_config):
        assert_refused_before_output(
            ["maps", "--config", small_config, "--configs", "FF,XY"],
            tmp_path / "m")


class TestCliSecurity:
    def test_sweep_outputs(self, tmp_path, small_config, capsys):
        out = tmp_path / "sec"
        code = main(["security", "--config", small_config, "--out", str(out),
                     "--eta-points", "5"])
        assert code == 0
        lines = (out / "security.csv").read_text().splitlines()
        assert len(lines) == 6
        assert lines[0] == "eta,average_error,info_ab_bits,info_eve_bits,secure"
        assert lines[1].startswith("0.000000,0.000000,")
        payload = json.loads((out / "security.json").read_text())
        assert payload["crossover"]["eta_star"] == pytest.approx(0.81709,
                                                                 abs=1e-3)
        assert payload["cloning_attack_error_bound"] == 0.42
        # Per-eta numbers live in the points; the alphabet's own numbers
        # appear once, at the top level.
        assert set(payload) == {"alphabet_size", "source_entropy_bits",
                                "crossover", "cloning_attack_error_bound",
                                "points"}
        assert len(payload["points"]) == 5
        for point in payload["points"]:
            assert set(point) == {"eta", "average_error", "info_ab_bits",
                                  "info_eve_bits", "secure"}
        printed = capsys.readouterr().out
        assert "information crossover: eta = 0.817" in printed

    def test_sweep_bytes_are_pinned(self, tmp_path):
        """Byte-exact sweep table of the default configuration."""
        out = tmp_path / "sec"
        code = main(["security", "--out", str(out), "--eta-points", "41"])
        assert code == 0
        digest = hashlib.sha256((out / "security.csv").read_bytes()).hexdigest()
        assert digest == ("abc5252f07ea4de3b8badbed44a00845"
                          "66118dffe1ab7c9490ab89a5192e9d81")

    def test_eta_points_floor(self, tmp_path, small_config):
        assert_refused_before_output(
            ["security", "--config", small_config, "--eta-points", "1"],
            tmp_path / "s")


class TestCliScaling:
    def test_table(self, tmp_path, small_config, capsys):
        out = tmp_path / "scale"
        code = main(["scaling", "--config", small_config, "--out", str(out),
                     "--cell-radius", "200e-6", "60e-6"])
        assert code == 0
        payload = json.loads((out / "scaling.json").read_text())
        sizes = {round(p["cell_radius"] * 1e6): p["alphabet_size"]
                 for p in payload["points"]}
        assert sizes == {200: 37, 60: 463}
        entropies = {round(p["cell_radius"] * 1e6): p["source_entropy_bits"]
                     for p in payload["points"]}
        assert entropies[60] > 8.0
        assert "463 characters" in capsys.readouterr().out

    def test_same_entropy_as_security(self, tmp_path):
        """Both commands report the entropy of the distribution a session
        draws from, bit for bit, for one 91-cell alphabet."""
        path = tmp_path / "config.json"
        ExperimentConfig(alphabet=AlphabetParams(rings=5, cell_radius=1e-4)
                         ).save(path)
        assert main(["scaling", "--config", str(path), "--out",
                     str(tmp_path / "scale"), "--cell-radius", "1e-4"]) == 0
        assert main(["security", "--config", str(path), "--out",
                     str(tmp_path / "sec"), "--eta-points", "2"]) == 0
        point, = json.loads(
            (tmp_path / "scale" / "scaling.json").read_text())["points"]
        sec = json.loads((tmp_path / "sec" / "security.json").read_text())
        assert point["alphabet_size"] == sec["alphabet_size"] == 91
        assert point["source_entropy_bits"] == sec["source_entropy_bits"]
        # The cloning bound is a 37-character figure.
        assert "cloning_attack_error_bound" not in sec

    def test_negative_radius(self, tmp_path, small_config):
        code = main(["scaling", "--config", small_config,
                     "--out", str(tmp_path / "s"), "--cell-radius=-1e-6"])
        assert code == 2


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys
        res = subprocess.run(
            [sys.executable, "-m", "spatialqkd", "scaling",
             "--out", str(tmp_path / "o"), "--cell-radius", "300e-6"],
            capture_output=True, text=True)
        assert res.returncode == 0
        assert "characters" in res.stdout
