"""The set-up every `paqft` run pays, in a fresh process.

    python3 perfbench/setup_probe.py <nt> <nx> <mass>

Imports paqft, builds the lattice, its six kernels and the star-algebra
context (through `build_smatrix`), then exits.  The caller times the whole
process from spawn to exit.
"""

import sys

from paqft.lattice import Lattice
from paqft.smatrix_renorm import build_smatrix

KERNELS = ("green_retarded", "green_advanced", "pauli_jordan",
           "hadamard_kernel", "wightman", "feynman")


def main(argv) -> int:
    nt, nx, mass = int(argv[0]), int(argv[1]), float(argv[2])
    lat = Lattice(nt, nx, mass)
    for name in KERNELS:
        getattr(lat, name)()
    build_smatrix(lat)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
