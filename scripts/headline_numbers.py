#!/usr/bin/env python3
"""Print the headline numbers of the default experiment in one screen.

Covers the alphabet geometry, the calibrated detection model, the
information budget against an intercept-resend attacker, and two short
Monte Carlo sessions as spot checks of the analytic values.
"""

import argparse

import numpy as np

from spatialqkd.adversary import AdversarySpec
from spatialqkd.config import ExperimentConfig, SessionParams
from spatialqkd.infotheory import (CLONING_ATTACK_ERROR_BOUND, info_ab,
                                   info_eve, intercept_resend_errors,
                                   security_crossover, shannon_entropy)
from spatialqkd.protocol import run_session


def session(rounds: int, seed: int, eta: float):
    if eta > 0:
        adversary = AdversarySpec(strategy="intercept_resend", eta=eta)
    else:
        adversary = AdversarySpec()
    cfg = ExperimentConfig(
        adversary=adversary,
        session=SessionParams(rounds=rounds, seed=seed, sample_fraction=1.0,
                              keep_log=False))
    return run_session(cfg).stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=50_000,
                        help="rounds per Monte Carlo spot check")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    cfg = ExperimentConfig()
    cfg.validate()
    alphabet = cfg.build_alphabet()
    model = cfg.build_model(alphabet)
    table = model.probability_table()
    probs = model.source()

    print("alphabet")
    print(f"  characters            {alphabet.d}")
    print(f"  cell radius           {alphabet.cell_radius * 1e6:.0f} um")
    print(f"  pattern radius        {alphabet.envelope_radius * 1e3:.4f} mm")
    print(f"  calibrated envelope   {model.envelope_waist * 1e6:.1f} um waist")

    diag = np.diag(table.probs["FF"])
    print("detection model")
    print(f"  matched p(k|k)        min {diag.min():.6f}  "
          f"mean {diag.mean():.6f}")
    print(f"  conjugate cell probes max {probs.max():.5f}  "
          f"min {probs.min():.5f}")

    h = shannon_entropy(probs)
    errors = intercept_resend_errors(probs, 1.0)
    cross = security_crossover(probs)
    print("information budget (bits/photon)")
    print(f"  source entropy        {h:.5f}")
    print(f"  attacker at eta=1     {info_eve(probs, 1.0):.5f}")
    print(f"  full-attack error     {float(probs @ errors):.5f} "
          f"(span {errors.min():.4f} to {errors.max():.4f})")
    print(f"  crossover             eta {cross.eta_star:.5f}, error "
          f"{cross.average_error:.5f}, {cross.common_information:.5f} bits")
    print(f"  at 6% / 19% error     {info_ab(probs, 0.06):.5f} / "
          f"{info_ab(probs, 0.19):.5f}")
    print(f"  cloning-attack bound  {CLONING_ATTACK_ERROR_BOUND:.2f} "
          f"error rate (context only)")

    for eta in (0.0, 1.0):
        st = session(args.rounds, args.seed, eta)
        print(f"monte carlo, eta={eta:.0f} ({st.rounds} rounds, "
              f"seed {st.seed})")
        print(f"  sifted / detected     {st.sifted} / {st.detected}")
        print(f"  sampled error         {st.error.average:.5f}")
        if eta > 0:
            print(f"  attacker info         {st.eve_info_bits:.4f} bits "
                  f"per tapped photon")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
