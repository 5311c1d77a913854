#!/usr/bin/env python3
"""Sweep the intercept fraction and tabulate both sides of the information
balance, optionally overlaying Monte Carlo error estimates and a plot.

Writes ``security_sweep.csv`` next to nothing else; pass ``--plot`` to also
render ``security_sweep.png`` when matplotlib is available.
"""

import argparse
import csv
import os

import numpy as np

from spatialqkd.adversary import AdversarySpec
from spatialqkd.config import ExperimentConfig, SessionParams
from spatialqkd.infotheory import security_crossover, security_report
from spatialqkd.protocol import run_session


def monte_carlo_error(eta: float, rounds: int, seed: int) -> float:
    if eta == 0.0:
        adversary = AdversarySpec()
    else:
        adversary = AdversarySpec(strategy="intercept_resend", eta=eta)
    cfg = ExperimentConfig(
        adversary=adversary,
        session=SessionParams(rounds=rounds, seed=seed, sample_fraction=1.0,
                              keep_log=False))
    return run_session(cfg).stats.error.average


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=41,
                        help="number of analytic sweep points on [0, 1]")
    parser.add_argument("--mc-rounds", type=int, default=0, metavar="N",
                        help="if positive, run N-round sessions at a few "
                             "intercept fractions as an overlay")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--plot", action="store_true",
                        help="write a PNG (needs matplotlib)")
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    probs = ExperimentConfig().build_model().source()
    etas = np.linspace(0.0, 1.0, args.points)
    reports = [security_report(probs, float(eta)) for eta in etas]
    cross = security_crossover(probs)

    mc = {}
    if args.mc_rounds > 0:
        for eta in (0.25, 0.5, 0.75, 1.0):
            mc[eta] = monte_carlo_error(eta, args.mc_rounds, args.seed)

    path = os.path.join(args.out, "security_sweep.csv")
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eta", "average_error", "info_ab_bits",
                         "info_eve_bits", "secure", "mc_error"])
        for r in reports:
            overlay = mc.get(round(r.eta, 6), "")
            writer.writerow([f"{r.eta:.6f}", f"{r.average_error:.6f}",
                             f"{r.info_ab:.6f}", f"{r.info_eve:.6f}",
                             int(r.secure),
                             f"{overlay:.6f}" if overlay != "" else ""])
    print(f"wrote {path}")
    if cross.secure_for_all_eta:
        print("no crossover: the stations stay ahead at every eta")
    else:
        print(f"crossover: eta {cross.eta_star:.5f}, average error "
              f"{cross.average_error:.5f}, common information "
              f"{cross.common_information:.5f} bits")
    for eta, err in mc.items():
        print(f"  monte carlo at eta {eta:.2f}: error {err:.5f}")

    if args.plot:
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not installed; skipping the plot")
            return 0
        fig, ax = plt.subplots(figsize=(6.0, 4.0))
        ax.plot(etas, [r.info_ab for r in reports], label="stations")
        ax.plot(etas, [r.info_eve for r in reports], label="attacker")
        if not cross.secure_for_all_eta:
            ax.axvline(cross.eta_star, color="gray", linestyle=":",
                       label=f"crossover {cross.eta_star:.3f}")
        ax.set_xlabel("intercepted fraction")
        ax.set_ylabel("bits per sifted photon")
        ax.legend(frameon=False)
        fig.tight_layout()
        png = os.path.join(args.out, "security_sweep.png")
        fig.savefig(png, dpi=150)
        print(f"wrote {png}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
