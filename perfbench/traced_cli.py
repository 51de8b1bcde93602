"""Run one `paqft` subcommand with every layer's public functions traced.

    python3 perfbench/traced_cli.py --spans <out.json> --run-id <id> -- <cli args>

The wrappers are put around paqft's functions and methods from outside; no
file under `src/` changes.  They are installed before `paqft.cli.main` builds its
S-matrix, because `SMatrix.multiply` looks `context.star` up at call time.
Spans (name, start, end, parent, run id) are kept in memory and written to
`--spans` at exit together with the work counts; the exit status is the
CLI's own.  The counts are computed from call arguments, so two runs of one
commit give identical counts.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from collections import Counter

import paqft.cli
import paqft.formal_series
import paqft.functionals
import paqft.lattice
import paqft.relations
import paqft.smatrix_renorm
import paqft.star_algebra
from setup_probe import KERNELS

MODULES = (paqft.cli, paqft.formal_series, paqft.functionals, paqft.lattice,
           paqft.relations, paqft.smatrix_renorm, paqft.star_algebra)

# (module, function name, span name): traced module-level functions.  Each
# is replaced in every paqft module that imported it by name.
TRACED_FUNCTIONS = (
    (paqft.lattice, "kernel_residuals", "lattice.kernel_residuals"),
    (paqft.formal_series, "series_multiply", "formal_series.series_multiply"),
    (paqft.formal_series, "series_invert", "formal_series.series_invert"),
    (paqft.formal_series, "compose_SZ", "formal_series.compose_SZ"),
    (paqft.formal_series, "polarize", "formal_series.polarize"),
    (paqft.smatrix_renorm, "check_S_axioms", "smatrix_renorm.check_S_axioms"),
    (paqft.smatrix_renorm, "check_Z_axioms", "smatrix_renorm.check_Z_axioms"),
    (paqft.smatrix_renorm, "check_schwinger_dyson",
     "smatrix_renorm.check_schwinger_dyson"),
    (paqft.smatrix_renorm, "extract_Z", "smatrix_renorm.extract_Z"),
    (paqft.smatrix_renorm, "verify_extracted_locality",
     "smatrix_renorm.verify_extracted_locality"),
    (paqft.functionals, "is_local_at_scale", "functionals.is_local_at_scale"),
    (paqft.relations, "check_hammerstein", "relations.check_hammerstein"),
    (paqft.cli, "_write_report", "cli._write_report"),
)


class Tracer:
    """In-memory span recorder and work counter for one traced run.

    A span is [name, start, end, parent index, hook seconds, run id]; the
    hook seconds are the time the wrapper spent counting before the call,
    which the parent's self time must not be charged with.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()

    def span(self, name: str, fn, before=None):
        """Wrap fn in a span; `before(args)` runs first, untimed."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        run_id = self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            if before is not None:
                before(args)
            parent = stack[-1] if stack else -1
            stack.append(len(spans))
            t1 = clock()
            rec = [name, t1, t1, parent, t1 - t0, run_id]
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def counter(self, key: str, fn):
        """Wrap fn so that each call only increments `key`."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted


def _replace_everywhere(orig, new) -> None:
    for mod in MODULES:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def _poly_digest(F) -> bytes:
    items = []
    for deg in sorted(F.terms):
        bucket = F.terms[deg]
        for key in sorted(bucket):
            items.append((key, sorted(bucket[key].coeffs.items())))
    return hashlib.sha1(repr(items).encode()).digest()


@functools.cache
def _permanents_per_pair(da: int, db: int, cap) -> int:
    rmax = min(da, db) if cap is None else min(da, db, cap)
    return sum(math.comb(da, r) * math.comb(db, r)
               for r in range(1, rmax + 1))


def install(tracer: Tracer) -> None:
    counts = tracer.counts

    # lattice: the six kernel builders; the first call of each builds it
    # (the module caches kernels per lattice), later calls hit the cache.
    seen_lattices: set = set()

    def kernel_hook(args):
        lat = args[0]
        key = (lat.nt, lat.nx, lat.mass)
        if key not in seen_lattices:
            seen_lattices.add(key)
            counts["lattice.kernel_bytes"] += 6 * lat.n_sites ** 2 * 16

    Lattice = paqft.lattice.Lattice
    for meth in KERNELS:
        setattr(Lattice, meth, tracer.span(f"lattice.{meth}",
                                           getattr(Lattice, meth),
                                           before=kernel_hook))

    # star_algebra: the two contraction products, with content-addressed
    # repeat detection and the combinatorial work each call implies.
    kernel_digests: dict = {}
    seen_calls: set = set()

    def contract_hook(kind):
        def hook(args):
            ctx, F, G = args[0], args[1], args[2]
            entries = (ctx.wightman if kind == "star" else ctx.feynman).entries
            if id(entries) not in kernel_digests:
                # the array is kept so that its id stays unique
                kernel_digests[id(entries)] = (
                    hashlib.sha1(entries.tobytes()).digest(), entries)
            kd = kernel_digests[id(entries)][0]
            call_key = (kind, kd, _poly_digest(F), _poly_digest(G))
            if call_key in seen_calls:
                counts["star_algebra.repeat_calls"] += 1
            else:
                seen_calls.add(call_key)
            degs_f = Counter(len(k) for t in F.terms.values() for k in t)
            degs_g = Counter(len(k) for t in G.terms.values() for k in t)
            cap = ctx.max_contraction_order
            pairs = perms = 0
            for da, na in degs_f.items():
                for db, nb in degs_g.items():
                    pairs += na * nb
                    perms += na * nb * _permanents_per_pair(da, db, cap)
            counts["star_algebra.monomial_pairs"] += pairs
            counts["star_algebra.permanents"] += perms
        return hook

    Ctx = paqft.star_algebra.StarAlgebraContext
    Ctx.star = tracer.span("star_algebra.star", Ctx.star,
                           before=contract_hook("star"))
    Ctx.time_ordered = tracer.span("star_algebra.time_ordered",
                                   Ctx.time_ordered,
                                   before=contract_hook("time_ordered"))

    for mod, name, span_name in TRACED_FUNCTIONS:
        orig = getattr(mod, name)
        _replace_everywhere(orig, tracer.span(span_name, orig))

    # formal_series: memo lookups, hits and evaluator calls of every
    # MultilinearFamily, wrapped at construction.
    Family = paqft.formal_series.MultilinearFamily
    orig_init = Family.__init__
    orig_get = Family._memo_get

    def init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        if self._mixed is not None:
            self._mixed = tracer.counter("formal_series.family_evals",
                                         self._mixed)
        if self._diagonal is not None:
            self._diagonal = tracer.counter("formal_series.family_evals",
                                            self._diagonal)

    def memo_get(self, key):
        hit = orig_get(self, key)
        if hit is not None:
            counts["formal_series.memo_hits"] += 1
        return hit

    Family.__init__ = init
    Family._memo_get = memo_get
    Family.mixed = tracer.counter("formal_series.family_lookups",
                                  Family.mixed)
    Family.diagonal = tracer.counter("formal_series.family_lookups",
                                     Family.diagonal)

    SMatrix = paqft.smatrix_renorm.SMatrix
    SMatrix.series = tracer.counter("smatrix_renorm.series_calls",
                                    SMatrix.series)

    # functionals: arithmetic on PolyFunctional is counted, not timed, to
    # keep the wrapper cost per operation low.
    Poly = paqft.functionals.PolyFunctional
    for meth in ("__add__", "__sub__", "__mul__", "__rmul__", "scaled"):
        setattr(Poly, meth, tracer.counter("functionals.poly_ops",
                                           getattr(Poly, meth)))

    # cli: size of every report written.
    orig_write = paqft.cli._write_report

    def write_report(*args, **kwargs):
        path = orig_write(*args, **kwargs)
        counts["cli.report_bytes"] += path.stat().st_size
        return path

    paqft.cli._write_report = write_report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True,
                        help="JSON file the spans and counts are written to")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args
    tracer = Tracer(args.run_id)
    install(tracer)
    try:
        code = paqft.cli.main(cli_args)
    finally:
        with open(args.spans, "w") as fh:
            json.dump({"run_id": tracer.run_id, "spans": tracer.spans,
                       "counts": dict(tracer.counts)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
