"""Sandwich study on a curved strip with exact area.

Builds the strip with constant curvature -0.5 and constant width 0.5 over
length pi (an annular sector spanning a quarter turn, radii 1.5 to 2), then
for each exponent p prints the lower bounds, the computed odd eigenvalue,
the full first eigenvalue, and the transplant upper bound where available.
It exits 1 when the ordering lower <= full <= odd (+1e-9) fails at any p.

Run from the repository root:

    python3 scripts/annulus_study.py [--ns 256] [--nt 16]
"""

import argparse
import math
import sys

from fermi_spectra import (
    certify_odd,
    lower_bound_constant_width,
    lower_bound_variable_width,
    make_domain,
    reconstruct_from_curvature,
    solve_mu1_nonlinear,
    test_function_upper_bound,
    width_profile,
)


def build_annulus(n_samples: int = 1025):
    curve = reconstruct_from_curvature(math.pi, lambda s: -0.5, n_samples=n_samples)
    width = width_profile(lambda s: 0.5, math.pi, n_samples=n_samples)
    return make_domain(curve, width)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ns", type=int, default=256)
    ap.add_argument("--nt", type=int, default=16)
    ap.add_argument("--p", type=float, nargs="+", default=[1.5, 2.0, 3.0])
    args = ap.parse_args()

    domain = build_annulus()
    print(f"domain: L={domain.L:.6f} jacobian_min={domain.jacobian_min:.6f}")
    print(f"{'p':>6} {'lower(const)':>14} {'lower(var)':>12} {'mu1_odd':>12} "
          f"{'mu1_full':>12} {'upper':>12}")
    violated = []
    for p in args.p:
        lo_c = lower_bound_constant_width(domain, p)
        lo_v = lower_bound_variable_width(domain, p)
        odd = solve_mu1_nonlinear(domain, p, ns=args.ns, nt=args.nt, odd=True)
        full = solve_mu1_nonlinear(domain, p, ns=args.ns, nt=args.nt)
        upper = test_function_upper_bound(domain, p)
        lo = max(
            lo_c.value if lo_c.applicable else -math.inf,
            lo_v.value if lo_v.applicable else -math.inf,
        )
        print(f"{p:6.2f} {lo_c.value:14.8f} {lo_v.value:12.8f} {odd.mu:12.8f} "
              f"{full.mu:12.8f} {upper:12.8f}")
        if not (lo <= full.mu <= odd.mu + 1e-9):
            print(f"   WARNING: ordering violated at p={p}")
            violated.append(p)

    cert = certify_odd(domain)
    print(f"\ncertificate: case {cert.case_label}, threshold={cert.threshold:.8f}, "
          f"upper={cert.mu1_upper:.8f}, certified={cert.certified}")
    if violated:
        print(f"ordering violated at p = {', '.join(f'{p:g}' for p in violated)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
