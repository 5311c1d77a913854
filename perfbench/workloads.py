"""Benchmark workloads: inputs made from a seed, one timed operation, checks.

Every workload offers the same four calls to the measuring loop in
``run.py``:

* ``setup()``  builds everything from the configuration to a ready model,
* ``op()``     runs one timed operation and returns its raw result,
* ``check(r)`` returns the list of problems found in that result (empty when
  the output is correct),
* ``work(r)``  returns the work the operation did, for throughput figures.

The operation calls into the package through module attributes
(``protocol.run_session``, ``optics.propagate_chain``, ...) so that the
timing wrappers of a traced run see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import replace

import numpy as np

from spatialqkd import alphabet as alphabet_mod
from spatialqkd import cli, model, optics, protocol
from spatialqkd.adversary import AdversarySpec
from spatialqkd.config import AlphabetParams, ExperimentConfig, SessionParams

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

#: Largest accepted distance, in standard errors, between the sampled
#: sifted error and its prediction (checked on every seed).
Z_BOUND = 5.0
#: Tolerances of the optics cross-check: relative L2 distance between the
#: propagated and closed-form amplitudes, and the largest per-cell gap
#: between grid binning and hexagon quadrature.
OPTICS_REL_L2 = 1e-3
OPTICS_CELL_ABS = 5e-4

#: Operation sizes.  Each is small enough that several operations fit in one
#: measured run, so medians and tails rest on more than a handful of samples.
SMALL_ROUNDS = 1 << 18
LARGE_ROUNDS = 1 << 17
CLI_ROUNDS = 50_000
#: Maps the CLI workload writes: one matched and one crossed basis pair.
MAP_CONFIGS = "FF,IF"
OPTICS_CHARS = 4

TRANSCRIPT_FILES = ("stats.json", "alice_key", "bob_key")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def key_bytes(key: list[str]) -> bytes:
    """Key file contents exactly as ``spatialqkd simulate`` writes them."""
    return ("\n".join(key) + ("\n" if key else "")).encode("ascii")


def session_transcript(result) -> dict[str, str]:
    """SHA-256 of the stats file and both keys a session would write."""
    return {
        "stats.json": sha256((result.stats.to_json() + "\n").encode("ascii")),
        "alice_key": sha256(key_bytes(result.alice_key)),
        "bob_key": sha256(key_bytes(result.bob_key)),
    }


def load_golden(workload: str, seed: int, sized: bool) -> dict[str, str] | None:
    """Committed transcript hashes for one workload and seed, if any.

    Hashes are recorded at the benchmark's operation sizes only, so a
    workload built at another size (``sized`` false) has none.
    """
    if not sized:
        return None
    with open(GOLDEN_PATH, encoding="ascii") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def matched_statistics(alphabet, waist: float) -> tuple[np.ndarray, np.ndarray]:
    """Detection probability and intrinsic error per character, matched basis.

    By hexagon quadrature over the cells within 3.5 lattice spacings of the
    sent cell (the Gaussian mass beyond them is far below double
    precision).  The error is the share of detected photons that land in
    another cell.
    """
    polys = model.hex_vertices(alphabet.centers, alphabet.cell_radius)
    detect = np.empty(alphabet.d)
    error = np.empty(alphabet.d)
    for k, center in enumerate(alphabet.centers):
        near = np.flatnonzero(np.hypot(*(alphabet.centers - center).T)
                              < 3.5 * alphabet.spacing)
        mass = model.gaussian_polygon_integral(center, waist, polys[near])
        detect[k] = mass.sum()
        error[k] = 1.0 - mass[near == k].sum() / detect[k]
    return detect, error


class ErrorPrediction:
    """Expected sifted error of a session, from the model alone.

    For character ``k`` a sifted pair comes from one of three cases.  The
    photon was not tapped (weight ``1 - eta``) or was tapped by an attacker
    in the sender's basis (``eta / 2``): it is detected with the matched
    probability ``D_k`` and wrong with the intrinsic error ``e_k``, twice
    over when re-prepared.  Or the attacker used the other basis
    (``eta / 2``) and did not drop it (``1 - q``): it is detected with the
    envelope's in-pattern mass ``D_env`` and wrong with ``1 - P_k``.  The
    per-character rate is the detection-weighted mixture; the session rate
    weights it with the sampled pair counts.  ``q`` is the share of
    other-basis taps the attacker dropped, read from the session's counts.
    """

    def __init__(self, config: ExperimentConfig):
        alphabet = config.build_alphabet()
        waist = config.resolve_envelope_waist(alphabet)
        polys = model.hex_vertices(alphabet.centers, alphabet.cell_radius)
        raw = model.gaussian_polygon_integral((0.0, 0.0), waist, polys)
        self.labels = alphabet.labels
        self.d_env = float(raw.sum())
        self.probs = raw / self.d_env
        self.eta = config.adversary.eta if config.adversary.active else 0.0
        self.d_match, self.e_match = matched_statistics(
            alphabet, config.geometry.aperture_waist)

    def expected(self, counts: np.ndarray, drop_share: float) -> float:
        eta = self.eta
        w_plain = (1.0 - eta) * self.d_match
        w_same = 0.5 * eta * self.d_match
        w_other = 0.5 * eta * (1.0 - drop_share) * self.d_env
        rate = ((w_plain * self.e_match + w_same * 2.0 * self.e_match
                 + w_other * (1.0 - self.probs))
                / (w_plain + w_same + w_other))
        return float(counts @ rate / counts.sum())

    def check(self, stats: dict) -> list[str]:
        """Problems with one session's statistics, as ``to_dict`` gives them."""
        error, eve = stats["error"], stats["eve"]
        n = sum(np.array([error["counts"][key][lab] for lab in self.labels])
                for key in ("FF", "II"))
        size = error["sample_size"]
        if size == 0 or n.sum() != size:
            return [f"error sample of {size} pairs does not match its "
                    f"per-character counts ({int(n.sum())})"]
        other = eve["attacked"] - eve["matched_basis"]
        expected = self.expected(n, eve["dropped"] / other if other else 0.0)
        z = (error["average"] - expected) / np.sqrt(expected * (1 - expected)
                                                     / size)
        if abs(z) > Z_BOUND:
            return [f"sifted error {error['average']:.5f} is {z:+.2f} sigma "
                    f"from the predicted {expected:.5f} (bound {Z_BOUND})"]
        return []


class SessionWorkload:
    """One ``run_session`` call per operation, without the round log."""

    def __init__(self, name: str, config: ExperimentConfig,
                 golden: dict[str, str] | None):
        self.name = name
        self.config = config
        self.golden = golden
        self.prediction = ErrorPrediction(config)
        self.first: dict[str, str] | None = None

    def setup(self) -> None:
        protocol.run_session(replace(
            self.config, session=replace(self.config.session, rounds=0)))

    def op(self):
        return protocol.run_session(self.config)

    def work(self, result) -> dict[str, float]:
        return {"rounds": result.stats.rounds}

    def check(self, result) -> list[str]:
        digest = session_transcript(result)
        problems = transcript_problems(digest, self.golden, self.first)
        self.first = self.first or digest
        return problems + self.prediction.check(result.stats.to_dict())


def transcript_problems(digest: dict[str, str], golden: dict[str, str] | None,
                        first: dict[str, str] | None) -> list[str]:
    """Compare transcript hashes with the golden ones and the run's first op."""
    problems = []
    for ref, what in ((golden, "golden"), (first, "first operation's")):
        if ref is None:
            continue
        for key in TRANSCRIPT_FILES:
            if digest[key] != ref[key]:
                problems.append(f"{key} hash differs from the {what} hash")
    return problems


def session_small(seed: int, rounds: int = SMALL_ROUNDS) -> SessionWorkload:
    cfg = ExperimentConfig(
        adversary=AdversarySpec("suppress_on_evidence", eta=1.0),
        session=SessionParams(rounds=rounds, seed=seed, keep_log=False))
    return SessionWorkload("session_small", cfg,
                           load_golden("session_small", seed,
                                       rounds == SMALL_ROUNDS))


def session_large(seed: int, rounds: int = LARGE_ROUNDS,
                  rings: int = 10) -> SessionWorkload:
    cfg = ExperimentConfig(
        geometry=optics.Geometry(grid_extent=6.2e-3, grid_samples=1024),
        alphabet=AlphabetParams(rings=rings),
        session=SessionParams(rounds=rounds, seed=seed, keep_log=False))
    return SessionWorkload("session_large", cfg,
                           load_golden("session_large", seed,
                                       (rounds, rings) == (LARGE_ROUNDS, 10)))


class CliWorkload:
    """``simulate --round-log``, ``maps`` and ``security`` in a fresh directory.

    ``maps`` writes the ``MAP_CONFIGS`` maps only.  Each 512² map costs
    0.5 to 0.7 s of ``np.savetxt``; with all four, a measured run on a slow
    spell of the host held only five operations.

    Output directories live under ``workdir``; each operation's directory is
    removed after its check.
    """

    name = "cli_outputs"
    OUTPUTS = {
        "sim": ("stats.json", "alice_key.txt", "bob_key.txt",
                "eve_records.csv", "rounds.csv"),
        "maps": ("alphabet.json", "probability_maps.csv", "map_FF_7.csv",
                 "map_FF_7.pgm", "map_IF_7.csv", "map_IF_7.pgm"),
        "sec": ("security.csv", "security.json"),
    }

    def __init__(self, seed: int, workdir: str, rounds: int = CLI_ROUNDS,
                 golden: dict[str, str] | None = None):
        self.seed = seed
        self.rounds = rounds
        self.workdir = workdir
        self.golden = golden
        self.config = ExperimentConfig().override(
            rounds=rounds, seed=seed, strategy="intercept_resend", eta=1.0)
        self.prediction = ErrorPrediction(self.config)
        self.first: dict[str, str] | None = None

    setup = SessionWorkload.setup

    def commands(self, out: str) -> list[list[str]]:
        return [
            ["simulate", "--round-log", "--rounds", str(self.rounds),
             "--seed", str(self.seed), "--strategy", "intercept_resend",
             "--eta", "1.0", "--out", os.path.join(out, "sim")],
            ["maps", "--char", "7", "--configs", MAP_CONFIGS,
             "--out", os.path.join(out, "maps")],
            ["security", "--eta-points", "41",
             "--out", os.path.join(out, "sec")],
        ]

    def op(self):
        out = tempfile.mkdtemp(prefix="cli-", dir=self.workdir)
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in self.commands(out)]
        return out, codes

    def _files(self, out: str):
        for sub, names in self.OUTPUTS.items():
            for name in names:
                yield f"{sub}/{name}", os.path.join(out, sub, name)

    def work(self, result) -> dict[str, float]:
        out, _ = result
        size = sum(os.path.getsize(path) for _, path in self._files(out)
                   if os.path.exists(path))
        return {"rounds": self.rounds, "bytes": size}

    def check(self, result) -> list[str]:
        out, codes = result
        try:
            return self._check(out, codes)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out: str, codes: list[int]) -> list[str]:
        if codes != [0, 0, 0]:
            return [f"CLI exit codes {codes}, want [0, 0, 0]"]
        missing = [rel for rel, path in self._files(out)
                   if not os.path.exists(path)]
        if missing:
            return [f"missing outputs: {', '.join(missing)}"]
        data = {}
        for rel, path in self._files(out):
            with open(path, "rb") as fh:
                data[rel] = fh.read()
        problems = []
        rows = data["sim/rounds.csv"].count(b"\n") - 1
        if rows != self.rounds:
            problems.append(f"round log has {rows} rows, want {self.rounds}")
        digest = {"stats.json": sha256(data["sim/stats.json"]),
                  "alice_key": sha256(data["sim/alice_key.txt"]),
                  "bob_key": sha256(data["sim/bob_key.txt"])}
        problems += transcript_problems(digest, self.golden, None)
        # Every output file, maps and security sweep included, must repeat
        # byte for byte across the operations of one run.
        every = {rel: sha256(blob) for rel, blob in data.items()}
        if self.first is None:
            self.first = every
        changed = sorted(rel for rel in every if every[rel] != self.first[rel])
        if changed:
            problems.append(f"outputs differ from the first operation's: "
                            f"{', '.join(changed)}")
        return problems + self.prediction.check(
            json.loads(data["sim/stats.json"]))


def cli_outputs(seed: int, workdir: str, rounds: int = CLI_ROUNDS) -> CliWorkload:
    return CliWorkload(seed, workdir, rounds,
                       load_golden("cli_outputs", seed, rounds == CLI_ROUNDS))


class OpticsWorkload:
    """Lens-chain propagation of characters through FF, II, IF and FI.

    The seed picks ``OPTICS_CHARS`` characters of the default alphabet, and
    each operation propagates all of them.  Each propagated amplitude is
    compared with ``analytic_amplitude``; the two matched maps are binned
    over the cells and compared with the quadrature row of the same
    character.
    """

    name = "optics_crosscheck"

    def __init__(self, seed: int):
        self.config = ExperimentConfig()
        self.geometry = self.config.geometry
        self.alphabet = self.config.build_alphabet()
        rng = np.random.default_rng(seed)
        self.chars = [int(k) for k in rng.choice(
            self.alphabet.d, size=min(OPTICS_CHARS, self.alphabet.d),
            replace=False)]
        self.table = self.config.build_model(self.alphabet).probability_table()

    def setup(self) -> None:
        alphabet = self.config.build_alphabet()
        self.config.build_model(alphabet).probability_table()

    def op(self):
        return [self._char(k) for k in self.chars]

    def _char(self, k: int):
        spec = optics.ApertureSpec("gaussian", self.geometry.aperture_waist,
                                   tuple(self.alphabet.centers[k]))
        outputs = {}
        for config in optics.ALL_CONFIGS:
            field = optics.make_aperture_field(spec, self.geometry)
            chain = optics.propagate_chain(
                field, optics.full_chain(config, self.geometry))
            closed = optics.analytic_amplitude(config, spec, self.geometry)
            rel = (np.linalg.norm(chain.samples - closed.samples)
                   / np.linalg.norm(closed.samples))
            binned = None
            if config.matched:
                imap = optics.detection_probability_map(chain)
                binned, _ = alphabet_mod.bin_probabilities(imap, self.alphabet)
            outputs[config.label] = (float(rel), binned)
        return k, outputs

    def work(self, result) -> dict[str, float]:
        return {"fields": sum(len(outputs) for _, outputs in result)}

    def check(self, result) -> list[str]:
        problems = []
        for k, outputs in result:
            problems += self._check_char(k, outputs)
        return problems

    def _check_char(self, k: int, outputs) -> list[str]:
        problems = []
        for label, (rel, binned) in outputs.items():
            if not rel <= OPTICS_REL_L2:
                problems.append(f"{label} char {k}: relative L2 {rel:.2e} "
                                f"> {OPTICS_REL_L2}")
            if binned is not None:
                gap = float(np.max(np.abs(binned - self.table.probs[label][k])))
                if not gap <= OPTICS_CELL_ABS:
                    problems.append(f"{label} char {k}: binned cell off by "
                                    f"{gap:.2e} > {OPTICS_CELL_ABS}")
        return problems


def make(name: str, seed: int, workdir: str):
    """The named workload at its benchmark size."""
    if name == "cli_outputs":
        return cli_outputs(seed, workdir)
    return {"session_small": session_small, "session_large": session_large,
            "optics_crosscheck": OpticsWorkload}[name](seed)


NAMES = ("session_small", "session_large", "cli_outputs", "optics_crosscheck")
