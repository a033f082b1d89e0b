"""Fixed reference workload that measures how fast the host runs right now.

Usage: python3 perfbench/calibrate.py

It multiplies a fixed sparse integer matrix, stored as a dict keyed by
(row, column) like tlblob's SparseRepMatrix, into a running product modulo
a prime, and prints a checksum.  It imports nothing from tlblob, so no change
to the program can move its time; ``run.py`` runs it as a fresh process
between commands and scales their times by REFERENCE_S over its median.
Never change the work it does: that would rescale every normalized metric.
"""

from __future__ import annotations

import sys

SIZE = 96
ENTRIES = 480
PRODUCTS = 6
PRIME = 998244353
CHECKSUM = 875591095
# Normalized metrics are seconds on a host where this script takes 0.2 s.
REFERENCE_S = 0.2


def _matrix():
    state = 12345
    entries = {}
    while len(entries) < ENTRIES:
        state = (state * 1103515245 + 12345) % 2147483648
        row, col = state % SIZE, (state >> 8) % SIZE
        entries[(row, col)] = (state >> 16) % 17 - 8 or 1
    return entries


def _mul(a, b):
    rows_of_b = {}
    for (r, c), v in b.items():
        rows_of_b.setdefault(r, []).append((c, v))
    out = {}
    for (u, w), x in a.items():
        for c, y in rows_of_b.get(w, ()):
            key = (u, c)
            out[key] = (out.get(key, 0) + x * y) % PRIME
    return {k: v for k, v in out.items() if v}


def main():
    base = _matrix()
    acc = base
    for _ in range(PRODUCTS):
        acc = _mul(acc, base)
    checksum = sum((r * SIZE + c) * v for (r, c), v in acc.items()) % PRIME
    print(checksum)
    return 0 if checksum == CHECKSUM else 1


if __name__ == "__main__":
    sys.exit(main())
