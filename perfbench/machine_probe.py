"""Fixed work that measures how fast this machine runs paqft-like code now.

    python3 perfbench/machine_probe.py

Prints the mean duration in seconds of ROUNDS identical rounds of work.
It imports nothing from paqft and must never change: it is the yardstick
the timings of a run are scaled by.  The work is the kind paqft's hot
loops do (tuple keys, small dicts of complex coefficients in a table of
several MB, walked in scattered order, and small fancy-indexed numpy
reads), because on a shared machine that kind of work slows down with the
neighbours' load while a small loop that stays in cache does not.
"""

import itertools
import random
import statistics
import time

import numpy as np

ROUNDS = 4


def one_round() -> None:
    rnd = random.Random(12345)
    table = {}
    for i in range(12000):
        key = tuple(sorted((rnd.randrange(192), rnd.randrange(192), i)))
        table[key] = {0: complex(i, 1), 1: complex(1, i)}
    keys = list(table)
    rnd.shuffle(keys)
    acc: dict = {}
    for k in keys:
        c = table[k]
        k2 = (k[0], k[1])
        prev = acc.get(k2)
        if prev is None:
            acc[k2] = {e: v * 0.5 for e, v in c.items()}
        else:
            acc[k2] = {e: prev.get(e, 0j) + v for e, v in c.items()}
    rng = np.random.default_rng(12345)
    kernel = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
    total = 0j
    for k in keys[:1500]:
        rows = [k[0], k[1]]
        sub = kernel[np.ix_(rows, rows)]
        for perm in itertools.permutations(range(2)):
            total += sub[0, perm[0]] * sub[1, perm[1]]


def main() -> None:
    times = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        one_round()
        times.append(time.perf_counter() - t0)
    print(statistics.fmean(times))


if __name__ == "__main__":
    main()
