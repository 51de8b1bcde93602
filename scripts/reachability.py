#!/usr/bin/env python3
"""List the `paqft` functions that no command calls.

Runs every case of the identity matrix (`CASES` of `scripts/identity.py`)
in this one process through `paqft.cli.main`, with `cli._run_units`
replaced by a serial loop so that the units run here and not in forked
workers, under `sys.setprofile`, and prints every function defined in
`src/paqft/*.py` that no case called: module-level functions, methods and
nested functions, named as `module.qualified name`; lambdas and
comprehensions are not counted.  The reports go to a temporary directory,
and the commands' standard output and error are discarded.

Every unreached function must be in ALLOWED with its reason, one of:
    (a) runs only in a forked worker or at process exit;
    (b) wrapped or read by the benchmark's tracer, `perfbench/traced_cli.py`;
    (c) the reference a test compares a command's route against;
    (d) a Python protocol method.
A function that only an exit-2 path reaches gets a case in the identity
matrix, not an entry.  --quick runs `axioms` at samples.count=1 and
`propagators` at 11x8, which reach the same functions as the full sizes
in a third of the time; the tier-1 test runs it.

    python3 scripts/reachability.py
    python3 scripts/reachability.py --quick

Exit status: 0 if the unreached functions are exactly the ALLOWED ones,
1 otherwise; the lines after the list name each function unreached but
not allowed, and each allowed one that ran or no longer exists.
"""

import argparse
import contextlib
import io
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

from identity import CASES  # noqa: E402

QUICK = {case: ["--set", "samples.count=1"]
         for case, args in CASES.items()
         if args[0] == "axioms" and case != "usage-error"}
QUICK["propagators-16x32"] = ["--set", "lattice.nt=11",
                              "--set", "lattice.nx=8"]

ALLOWED = {
    "paqft.cli._run_units": "(a) forks the workers",
    "paqft.cli._work": "(a) the forked worker's body",
    "paqft.cli.run": "(a) the program entry, which ends the process",
    "paqft.formal_series.polarize": "(b) a span of the tracer",
    "paqft.lattice.Kernel.entries": "(b) the tracer keys kernels by it",
    "paqft.smatrix_renorm.extract_Z": "(b) a span of the tracer",
    "paqft.smatrix_renorm.verify_extracted_locality":
        "(b) a span of the tracer",
    "paqft.lattice.Lattice.poisson_bracket":
        "(c) the hbar^1 commutator's reference",
    "paqft.functionals.HbarScalar.__eq__": "(d) protocol",
    "paqft.functionals.HbarScalar.__repr__": "(d) protocol",
    "paqft.functionals.HbarScalar.__rsub__": "(d) protocol",
    "paqft.functionals.PolyFunctional.__repr__": "(d) protocol",
}


def defined_functions() -> dict:
    """{(file, first line, qualified name): `module.qualified name`} of
    every named function in src/paqft/*.py."""
    out = {}
    for path in sorted((ROOT / "src" / "paqft").glob("*.py")):
        module = f"paqft.{path.stem}"
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts
                         if isinstance(c, types.CodeType))
            if not code.co_name.startswith("<"):
                out[(code.co_filename, code.co_firstlineno,
                     code.co_qualname)] = f"{module}.{code.co_qualname}"
    return out


def called_functions(cases: dict) -> tuple:
    """(the code objects called, {case: exit code}) of one run of every
    case, in this process, with the units run serially."""
    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    codes = {}
    with tempfile.TemporaryDirectory() as out:
        sys.setprofile(profile)
        try:
            from paqft import cli

            cli._run_units = lambda units, order=None: [u() for u in units]
            for case, args in cases.items():
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    codes[case] = cli.main(
                        args + ["--set", f"output={out}/{case}"])
        finally:
            sys.setprofile(None)
    return called, codes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="axioms at samples.count=1, propagators at 11x8")
    args = ap.parse_args(argv)
    cases = {case: cmd + (QUICK.get(case, []) if args.quick else [])
             for case, cmd in CASES.items()}
    defined = defined_functions()
    called, codes = called_functions(cases)
    for case, code in codes.items():
        print(f"{case}: exit {code}")
    reached = {(c.co_filename, c.co_firstlineno, c.co_qualname)
               for c in called}
    unreached = sorted(name for key, name in defined.items()
                       if key not in reached)
    print(f"{len(unreached)} of {len(defined)} functions unreached:")
    for name in unreached:
        print(f"  {name}  {ALLOWED.get(name, 'NOT ALLOWED')}")
    bad = [f"unreached and not allowed: {name}"
           for name in unreached if name not in ALLOWED]
    bad += [f"allowed but {'reached' if name in defined.values() else 'gone'}"
            f": {name}" for name in sorted(ALLOWED.keys() - set(unreached))]
    bad += [f"allowed without a reason (a)-(d): {name}"
            for name, why in sorted(ALLOWED.items())
            if why[:3] not in ("(a)", "(b)", "(c)", "(d)")]
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
