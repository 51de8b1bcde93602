#!/usr/bin/env python3
"""Scan the Hadamard-function ambiguity and watch the extracted map track it.

Two sweeps on a small lattice:

  1. mass sweep: interior wave-equation residual (H2) and least Gram
     eigenvalue (H3) of the two-point function.  The zero-mass row shows the
     known loss of positivity when the spatial zero mode (and, for even nx,
     the edge mode at w = pi) is dropped from the mode sum while the
     commutator keeps it.  Every m > 0 has a real frequency for each mode
     (the split mass term of paqft.lattice), so every other row, m = 2
     included, is positive up to rounding.

  2. perturbation sweep: site-diagonal perturbations of the Hadamard
     function with growing scale; for each scale the order-2 value of the
     renormalization map relating the two S-matrices is extracted and its
     norm is compared with the scale (the relation is linear, so the ratio
     should be flat), along with the equations-of-motion bound.

    python3 scripts/hadamard_scan.py --nt 8 --nx 10
"""

import argparse
import sys
import warnings

import numpy as np

from paqft.lattice import Lattice, bisolution_residual, kernel_residuals
from paqft.smatrix_renorm import (build_smatrix, extract_Z,
                                  random_local_functional)


def mass_sweep(nt, nx, masses):
    print("mass sweep")
    print(f"  {'mass':>6s} {'H2 interior':>12s} {'H3 min eig':>12s}")
    for m in masses:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = kernel_residuals(Lattice(nt, nx, m))
        print(f"  {m:6.2f} {res['H2_interior_W']:12.3e} "
              f"{res['H3_gram_min_eigenvalue']:12.3e}")


def perturbation_sweep(nt, nx, mass, scales, seed):
    lat = Lattice(nt, nx, mass)
    S = build_smatrix(lat)
    rng = np.random.default_rng(seed)
    f = random_local_functional(lat, rng, (2, nt - 3), degree=2)
    drng = np.random.default_rng(seed + 1)
    direction = drng.standard_normal(lat.n_sites)  # fixed, only scale varies
    print("\nperturbation sweep (site-diagonal, fixed direction)")
    print(f"  {'scale':>9s} {'|Z_2(f,f)|':>12s} {'|Z_2|/scale':>12s} "
          f"{'10 x H2 bound':>14s}")
    for s in scales:
        St = build_smatrix(lat, site_shift=s * direction)
        z2 = extract_Z(S, St, f, 2)[2].max_norm()
        bound = 10.0 * bisolution_residual(lat, St.context.wightman)
        ratio = z2 / s if s else float("nan")
        print(f"  {s:9.1e} {z2:12.4e} {ratio:12.4e} {bound:14.3e}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nt", type=int, default=8)
    ap.add_argument("--nx", type=int, default=10)
    ap.add_argument("--mass", type=float, default=0.5)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args(argv)

    print(f"lattice {args.nt}x{args.nx}")
    mass_sweep(args.nt, args.nx, (0.0, 0.25, 0.5, 1.0, 2.0))
    perturbation_sweep(args.nt, args.nx, args.mass,
                       (0.0, 1e-4, 1e-3, 1e-2), args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
