#!/usr/bin/env python3
"""Survey the default contraction family.

For each map: analytic fixed point, empirical contraction factor on two
sampling boxes, iteration lengths from the default starts, and whether the
geometric bounds verify with the trace estimate.  Exits 1 when any map's
bounds fail.
"""

import argparse
import sys

from qfixpoint.solver import (DEFAULT_MAPS, DEFAULT_REGION, DEFAULT_STARTS,
                              ParameterBox, analytic_fixed_point,
                              estimate_contraction_factor, iterate_to_fixed_point,
                              verify_banach_bounds)

TIGHT_BOX = ParameterBox(-2.0, 2.0, 0.5, 2.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tol", type=float, default=1e-12)
    args = ap.parse_args()

    header = (f"{'map (m_sc,m_sh,s_sc,s_sh)':>28} {'fixed point':>18} "
              f"{'k tight box':>12} {'k default box':>14} {'iters':>6} "
              f"{'k trace':>8} {'bounds':>7}")
    print(header)
    print("-" * len(header))
    all_ok = True
    for m in DEFAULT_MAPS:
        fp = analytic_fixed_point(m)
        k_tight = estimate_contraction_factor(m, TIGHT_BOX, args.samples, args.seed)
        k_wide = estimate_contraction_factor(m, DEFAULT_REGION, args.samples, args.seed)
        iters = []
        k_trace = 0.0
        bounds_ok = True
        for start in DEFAULT_STARTS:
            report = iterate_to_fixed_point(m, start, args.tol)
            iters.append(report.iterations_used)
            k_trace = max(k_trace, report.k_estimate)
            bounds_ok &= verify_banach_bounds(report, report.k_estimate).passed
        coeffs = (f"({m.mu_scale:g},{m.mu_shift:g},{m.sigma_scale:g},"
                  f"{m.sigma_shift:g})")
        fp_txt = f"({fp.mu:.4f}, {fp.sigma:.4f})"
        print(f"{coeffs:>28} {fp_txt:>18} "
              f"{k_tight:12.6f} {k_wide:14.10f} {max(iters):6d} "
              f"{k_trace:8.4f} {'PASS' if bounds_ok else 'FAIL':>7}")
        all_ok &= bounds_ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
