"""Perturbative algebraic QFT on a finite 1+1D lattice.

Causal relation algebra, Klein-Gordon propagator kernels, star and
time-ordered products, generalized local S-matrices, and order-by-order
extraction of renormalization maps, with the defining axioms realized as
executable residual checks.

The names below load their module on first access (PEP 562), so a command
that runs only the kernel layer never loads the S-matrix stack.
"""

from importlib import import_module

# each exported name and the module that defines it
_HOMES = {"Lattice": "lattice", "LatticePoint": "lattice", "Region": "lattice",
          "Kernel": "lattice", "HbarScalar": "functionals",
          "PolyFunctional": "functionals",
          "StarAlgebraContext": "star_algebra", "SMatrix": "smatrix_renorm",
          "RenormalizationMap": "smatrix_renorm",
          "build_smatrix": "smatrix_renorm"}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
