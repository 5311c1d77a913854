"""Command-line interface.

Subcommands:

* ``maps``      render detection densities and the binned probability table
* ``simulate``  run a protocol session and write stats, keys and logs
* ``security``  analytic information balance versus the intercept fraction
* ``scaling``   alphabet capacity as the cell size shrinks

All commands accept ``--config`` with a JSON experiment description and
``--out`` for the output directory; invalid configurations, unknown
characters and runs too large to allocate exit with status 2 and a
diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from ._checks import count
from ._csv import write_csv
from .adversary import STRATEGIES, eve_log_to_csv
from .alphabet import build_packed_alphabet, save_alphabet
from .config import ConfigError, ExperimentConfig
from .infotheory import (CLONING_ATTACK_ERROR_BOUND, security_crossover,
                         security_report, shannon_entropy)
from .model import GaussianModel
from .optics import BasisConfig, SamplingError
from .protocol import run_session

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatialqkd",
        description="Simulate two-basis key distribution with "
                    "position-encoded characters.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON experiment configuration")
    common.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default: %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_maps = sub.add_parser(
        "maps", parents=[common],
        help="write detection maps and the binned probability table")
    p_maps.add_argument("--char", metavar="LABEL",
                        help="character to render (default: first)")
    p_maps.add_argument("--configs", default="FF,II,IF,FI",
                        help="comma-separated configurations "
                             "(default: %(default)s)")
    p_maps.add_argument("--formats", default="csv,pgm",
                        help="comma-separated map formats among csv,pgm "
                             "(default: %(default)s)")

    p_sim = sub.add_parser(
        "simulate", parents=[common],
        help="run a session and write stats, keys and logs")
    p_sim.add_argument("--rounds", type=int, metavar="N")
    p_sim.add_argument("--seed", type=int, metavar="S")
    p_sim.add_argument("--eta", type=float, metavar="X",
                       help="intercepted fraction")
    p_sim.add_argument("--strategy", choices=STRATEGIES)
    p_sim.add_argument("--evidence-threshold", type=float, metavar="EPS")
    p_sim.add_argument("--source", choices=("model", "uniform"))
    p_sim.add_argument("--round-log", action="store_true",
                       help="also write the full per-round CSV")

    p_sec = sub.add_parser(
        "security", parents=[common],
        help="information balance and crossover versus intercept fraction")
    p_sec.add_argument("--eta-points", type=int, default=21, metavar="K",
                       help="grid points on [0, 1] (default: %(default)s)")

    p_scale = sub.add_parser(
        "scaling", parents=[common],
        help="alphabet capacity for given cell sizes under a fixed envelope")
    p_scale.add_argument("--cell-radius", type=float, nargs="+",
                         default=[60e-6], metavar="METERS",
                         help="cell radii to evaluate (default: 60e-6)")
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig.load(args.config) if args.config \
        else ExperimentConfig()


def _outdir(args: argparse.Namespace) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_maps(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    cfg.validate()
    alphabet = cfg.build_alphabet()
    char = args.char if args.char is not None else alphabet.labels[0]
    idx = alphabet.index_of(char)
    formats = [f.strip() for f in args.formats.split(",") if f.strip()]
    bad = set(formats) - {"csv", "pgm"}
    if bad:
        raise ConfigError(f"unknown map formats: {', '.join(sorted(bad))}")
    if not formats:
        raise ConfigError("no map format given; choose among csv,pgm")
    configs = [BasisConfig.from_label(c.strip())
               for c in args.configs.split(",") if c.strip()]

    out = _outdir(args)
    model = cfg.build_model(alphabet)
    table = model.probability_table()
    save_alphabet(alphabet, os.path.join(out, "alphabet.json"))
    table.to_csv(os.path.join(out, "probability_maps.csv"))
    for config in configs:
        imap = model.intensity_grid(config, idx)
        stem = os.path.join(out, f"map_{config.label}_{char}")
        if "csv" in formats:
            imap.to_csv(stem + ".csv")
        if "pgm" in formats:
            imap.to_pgm(stem + ".pgm")
    p_same, _ = table.column("FF", char)
    print(f"alphabet: {alphabet.d} characters, cell radius "
          f"{alphabet.cell_radius:.3e} m")
    print(f"character {char}: matched-basis detection probability "
          f"{p_same[alphabet.index_of(char)]:.6f}")
    print(f"wrote table and {len(configs)} map(s) to {out}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args).override(
        rounds=args.rounds, seed=args.seed, eta=args.eta,
        strategy=args.strategy, evidence_threshold=args.evidence_threshold,
        source=args.source)
    if args.round_log and not cfg.session.keep_log:
        raise ConfigError("round log requested but keep_log is disabled")
    out = _outdir(args)
    result = run_session(cfg)
    stats = result.stats

    with open(os.path.join(out, "stats.json"), "w", encoding="ascii") as fh:
        fh.write(stats.to_json())
        fh.write("\n")
    for name, key in (("alice_key.txt", result.alice_key),
                      ("bob_key.txt", result.bob_key)):
        with open(os.path.join(out, name), "w", encoding="ascii") as fh:
            fh.write("\n".join(key))
            if key:
                fh.write("\n")
    log = result.log
    stale = {"eve_records.csv", "rounds.csv"}
    if log is not None and log.attacked.any():
        rounds = np.flatnonzero(log.attacked)
        eve_log_to_csv(os.path.join(out, "eve_records.csv"), rounds,
                       log.eve_basis[rounds], log.eve_measured[rounds],
                       log.eve_dropped[rounds], log.labels)
        stale.discard("eve_records.csv")
    if args.round_log:
        log.to_csv(os.path.join(out, "rounds.csv"))
        stale.discard("rounds.csv")
    # A log this run did not write would belong to an earlier run.
    for name in stale:
        if os.path.isfile(os.path.join(out, name)):
            os.remove(os.path.join(out, name))

    avg = stats.error.average
    avg_text = f"{avg:.4f}" if stats.error.sample_size else "n/a"
    print(f"rounds: {stats.rounds}  detected: {stats.detected}  "
          f"sifted: {stats.sifted}")
    print(f"average sifted error: {avg_text}  "
          f"(sample {stats.error.sample_size}"
          f"{', low confidence' if stats.error.low_confidence else ''})")
    print(f"key length: {stats.key_alice_length} (alice) / "
          f"{stats.key_bob_length} (bob)")
    print(f"wrote results to {out}")
    return 0


def cmd_security(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    count("--eta-points", args.eta_points, 2, ConfigError)
    out = _outdir(args)
    probs = cfg.build_model().source()
    entropy = shannon_entropy(probs)
    etas = np.linspace(0.0, 1.0, args.eta_points)
    points = [security_report(probs, float(eta)).as_dict() for eta in etas]
    cross = security_crossover(probs)

    header = ("eta", "average_error", "info_ab_bits", "info_eve_bits", "secure")
    write_csv(os.path.join(out, "security.csv"), header,
              "%.6f,%.6f,%.6f,%.6f,%d\n",
              [[np.array([p[name] for p in points]) for name in header]])
    payload = {
        "alphabet_size": probs.size,
        "source_entropy_bits": entropy,
        "crossover": cross.as_dict(),
        "points": points,
    }
    if probs.size == 37:  # the alphabet size the bound was derived for
        payload["cloning_attack_error_bound"] = CLONING_ATTACK_ERROR_BOUND
    with open(os.path.join(out, "security.json"), "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"source entropy: {entropy:.4f} bits over {probs.size} characters")
    if cross.secure_for_all_eta:
        print("stations keep the information advantage for every "
              "intercept fraction")
    else:
        print(f"information crossover: eta = {cross.eta_star:.4f}, "
              f"average error = {cross.average_error:.4f}, "
              f"common information = {cross.common_information:.4f} bits")
    print(f"wrote sweep to {out}")
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    out = _outdir(args)
    envelope_radius = cfg.build_alphabet().envelope_radius
    rows = []
    for radius in args.cell_radius:
        packed = build_packed_alphabet(envelope_radius, radius)
        entropy = shannon_entropy(GaussianModel(packed).source())
        rows.append({
            "cell_radius": radius,
            "alphabet_size": packed.d,
            "source_entropy_bits": entropy,
        })
        print(f"cell radius {radius:.3e} m: {packed.d} characters, "
              f"{entropy:.3f} bits of source entropy")
    payload = {"envelope_radius": envelope_radius, "points": rows}
    with open(os.path.join(out, "scaling.json"), "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote scaling table to {out}")
    return 0


_COMMANDS = {
    "maps": cmd_maps,
    "simulate": cmd_simulate,
    "security": cmd_security,
    "scaling": cmd_scaling,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, SamplingError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
