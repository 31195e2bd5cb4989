#!/usr/bin/env python3
"""Oracle error sweep: closed-form vs quadrature overlap as panels and half-width vary.

The hard pairs set a narrow state against a wide one (concentric, at the
edge of the wide state's window and deep in its tail) at width ratios up to
1e19, and two narrow states at centres far larger than their widths; 2000
seeded pairs with widths 10**U(-3, 3) follow.  The rule integrates on the
intersection of the two states' windows, so the node spacing follows the
narrow state whatever the ratio.  Prints the absolute error for each pair
and configuration, and exits 1 if any error at the default configuration
exceeds the 1e-10 oracle gate.

    PYTHONPATH=src python scripts/quadrature_error_sweep.py [--panels N ...] [--half-width W ...]
"""

import argparse
import sys

import numpy as np

from qfixpoint.gaussian import DEFAULT_QUADRATURE, QuadratureConfig, overlap_quadrature_many

GATE = 1e-10

# (mu1, sigma1, mu2, sigma2)
HARD_PAIRS = [
    (0.0, 0.01, 0.0, 100.0),
    (0.0, 1e-3, 0.0, 1e3),
    (-3.0, 1e-3, 5.0, 1e3),
    (-10.0, 0.1, 10.0, 10.0),
    (0.0, 0.1, 60.0, 10.0),
    (0.0, 0.1, 0.5, 0.1),
    (-10.0, 10.0, 10.0, 10.0),
    (0.0, 1.0, 1.0, 1e-19),
    (1e150, 1e-10, 1e150, 1e-10),
]


def pair_sets(seed: int):
    hard = np.array(HARD_PAIRS).T
    rng = np.random.default_rng(seed)
    mu = rng.uniform(-10.0, 10.0, (2, 2000))
    sg = 10.0 ** rng.uniform(-3.0, 3.0, (2, 2000))
    labels = [f"({m1:g},{s1:g})x({m2:g},{s2:g})" for m1, s1, m2, s2 in HARD_PAIRS]
    return [(label, hard[:, i:i + 1]) for i, label in enumerate(labels)] + [
        ("max over 2000 random", np.array([mu[0], sg[0], mu[1], sg[1]]))]


def max_error(params, cfg: QuadratureConfig) -> float:
    m1, s1, m2, s2 = params
    ss = s1 * s1 + s2 * s2
    closed = np.sqrt(2.0 * s1 * s2 / ss) * np.exp(-((m1 - m2) ** 2) / (2.0 * ss))
    return float(np.max(np.abs(overlap_quadrature_many(m1, s1, m2, s2, cfg) - closed)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--panels", type=int, nargs="+", default=[64, 128, 256, 1024, 4096])
    ap.add_argument("--half-width", type=float, nargs="+", default=[8.0, 10.0, 40.0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    configs = [QuadratureConfig(w, p) for w in args.half_width for p in args.panels]
    sets = pair_sets(args.seed)
    print(f"{'pair':>30} " + " ".join(f"{f'W{c.half_width_sigmas:g}/{c.panels}':>10}"
                                      for c in configs))
    for label, params in sets:
        print(f"{label:>30} " + " ".join(f"{max_error(params, c):10.1e}" for c in configs))

    worst = max(max_error(params, DEFAULT_QUADRATURE) for _, params in sets)
    verdict = "ok" if worst <= GATE else "FAIL"
    print(f"default config (W{DEFAULT_QUADRATURE.half_width_sigmas:g}/"
          f"{DEFAULT_QUADRATURE.panels}): max error {worst:.1e}, gate {GATE:g}: {verdict}")
    return 0 if worst <= GATE else 1


if __name__ == "__main__":
    sys.exit(main())
