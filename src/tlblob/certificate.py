"""The faithfulness certificate record and the seeded modular points.

``FaithfulnessCertificate`` is the rank with its method and witness.  A
witness names a point x -> x0, a -> a0 mod ``_MODULAR_PRIME`` with
a0^4 = -1, drawn by ``_trial_points`` from the seed.  ``verify-tl``
writes its certificate from these alone: its minor is triangular with a
unit diagonal, so it loads neither the witness search (``tlblob.rank``)
nor ``faithful``.
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
