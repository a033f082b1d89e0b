"""The faithfulness certificate record and the seeded modular points.

``FaithfulnessCertificate`` is the rank with its method and witness.  A
witness names a point x -> x0, a -> a0 mod ``_MODULAR_PRIME`` with
a0^4 = -1, drawn by ``_trial_points`` from the seed.  ``verify-tl`` and
``certify-rho0`` write their witnesses from these alone
(``_lead_witness``): their minors are triangular with units on the
diagonal, so neither loads the witness search (``tlblob.rank``).
"""

import random

from . import __version__
from ._json import dumps_canonical
from ._record import Record

__all__ = ["FaithfulnessCertificate"]

_MODULAR_PRIME = 998244353  # prime, = 1 mod 8, so a with a^4 = -1 exists


def _modular_eighth_root(rng, p):
    while True:
        z = rng.randrange(2, p - 1)
        a = pow(z, (p - 1) // 8, p)
        if pow(a, 4, p) == p - 1:
            return a


def _trial_points(trials, seed, p):
    """Seeded (x, a) points: x a unit mod p, a a root of a^4 + 1 mod p."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    return [(rng.randrange(2, p - 1), _modular_eighth_root(rng, p))
            for _ in range(trials)]


def _lead_witness(leads, seed, cols_log2):
    """The witness of vectors of unit codes with distinct smallest keys
    ``leads``, packed row << cols_log2 | col.

    Ordered by lead, the minor on the leads is triangular with units
    +-a^k x^e on its diagonal, so it is nonzero at every point where x and
    a are units, as every seeded point's are: the witness names the first
    seeded point and the sorted leads as (row, col) pivots.  They are the
    pivots elimination would name there, since those depend only on the
    span (``rank._rank_mod_p``).
    """
    p = _MODULAR_PRIME
    x, a = _trial_points(1, seed, p)[0]
    low = (1 << cols_log2) - 1
    return {"p": p, "x": x, "a": a,
            "pivots": [(k >> cols_log2, k & low) for k in sorted(leads)]}


class FaithfulnessCertificate(Record):
    __slots__ = ("n", "basis_size", "rank", "method", "mask_checks", "witness",
                 "tool_version")
    __hash__ = None

    def __init__(self, n, basis_size, rank, method, mask_checks=None, witness=None,
                 tool_version=__version__):
        self.n = n
        self.basis_size = basis_size
        self.rank = rank
        self.method = method
        self.mask_checks = [] if mask_checks is None else mask_checks
        self.witness = witness
        self.tool_version = tool_version

    @property
    def valid(self):
        return self.basis_size >= 1 and self.rank == self.basis_size and \
            all(c["ok"] for c in self.mask_checks)

    def to_json(self):
        return {
            "n": self.n,
            "basis_size": self.basis_size,
            "rank": self.rank,
            "method": self.method,
            "mask_checks": self.mask_checks,
            "witness": self.witness,
            "tool_version": self.tool_version,
            "valid": self.valid,
        }

    def dumps(self):
        return dumps_canonical(self.to_json())
