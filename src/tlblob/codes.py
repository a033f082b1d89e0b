"""The unit-code kernel: signed unit monomials as ints, and R(D) on them.

A signed unit monomial +-a^k x^e has a one-int form, its code
(8e + k) << 1 | sign (``_unit_code``).  Every entry of a generator image
is one, and along a loop-free word each product position gets one
summand, so the certificate word chains multiply ``CodedMatrix``
instances: codes under packed keys row << dim_log2 | col, which sort like
(row, col) tuples.  ``r_matrix_codes`` gives a diagram's tensor-space
matrix R(D) as codes from its lines alone (``_r_entries``, which
``tensorrep.r_matrix`` reads too).

Rows and columns are indexed by sequences in {1,2}^n, encoded as integers
with 1 before 2 lexicographically: seq s maps to sum (s_i - 1) * 2^(n-i)
(``seq_to_index``).

This module builds no ring element and imports nothing from ``rings``:
``verify-tl`` runs on it alone.  The element of a code is
``rings._code_element``.
"""

__all__ = [
    "CodedMatrix",
    "SummandCollision",
    "index_to_seq",
    "r_matrix_codes",
    "seq_to_index",
]


def _unit_code(elem):
    """(8e + k) << 1 | sign for elem = +-a^k x^e (sign 1 for minus), else None."""
    terms = elem.terms
    if len(terms) == 1:
        ((key, c),) = terms.items()
        if c == 1 or c == -1:
            return key << 1 | (c < 0)
    return None


def seq_to_index(seq):
    idx = 0
    for s in seq:
        idx = (idx << 1) | (s - 1)
    return idx


def index_to_seq(idx, n):
    return tuple(((idx >> (n - 1 - i)) & 1) + 1 for i in range(n))


class SummandCollision(ArithmeticError):
    """Two summands met at one position of a ``CodedMatrix`` product."""


class CodedMatrix:
    """A square matrix of signed unit monomials +-a^k x^e, held as ints.

    ``entries`` maps row << dim_log2 | col to the code (8e + k) << 1 | sign
    (``_unit_code``); packed keys sort like (row, col) tuples.  When
    each product position gets one summand, a product entry is the product
    of two codes: their keys add, their signs XOR, and a^k with k >= 4
    folds to -a^(k-4) (only cyclotomic codes have k > 0).  A position
    reached twice would need a sum: ``mul`` raises ``SummandCollision``,
    and the caller takes the ring path.

    A chain multiplies by a few letters over and over, so a matrix indexes
    its rows for ``mul`` once, the first time it is a right factor
    (``_rows``).  ``entries`` is not to be changed after that.
    """

    __slots__ = ("dim_log2", "entries", "_row_index")

    def __init__(self, dim_log2, entries):
        self.dim_log2 = dim_log2
        self.entries = entries
        self._row_index = None

    def _rows(self):
        """{row: [(col, sign bit, code without it)]}, built on first use."""
        rows = self._row_index
        if rows is None:
            shift = self.dim_log2
            low = (1 << shift) - 1
            rows = self._row_index = {}
            for key, code in self.entries.items():
                rows.setdefault(key >> shift, []).append(
                    (key & low, code & 1, code & -2))
        return rows

    @classmethod
    def identity(cls, dim_log2):
        return cls(dim_log2, {i << dim_log2 | i: 0 for i in range(1 << dim_log2)})

    @classmethod
    def from_matrix(cls, mat):
        """The codes of a ``tensorrep.SparseRepMatrix``, or None unless mat
        is square with every entry +-a^k x^e."""
        if mat.rows_log2 != mat.cols_log2:
            return None
        shift = mat.cols_log2
        entries = {}
        for (r, c), v in mat.entries.items():
            code = _unit_code(v)
            if code is None:
                return None
            entries[r << shift | c] = code
        return cls(shift, entries)

    def mul(self, other):
        shift = self.dim_log2
        if other.dim_log2 != shift:
            raise ValueError("shape mismatch in matrix product")
        low = (1 << shift) - 1
        rows_of_b = other._rows()
        out = {}
        summands = 0
        for key, code in self.entries.items():
            row = rows_of_b.get(key & low)
            if row:
                base = key ^ (key & low)
                summands += len(row)
                for col, sign, even in row:
                    t = (code ^ sign) + even
                    if t & 8:  # a^k with k >= 4
                        t = (t - 8) ^ 1
                    out[base | col] = t
        if len(out) != summands:
            raise SummandCollision("two summands at one product position")
        return CodedMatrix(shift, out)


def _r_entries(n, m, pairs, step=1):
    """(keys row << m | col, step times the arc unit's exponents) of R of
    the diagram with n top nodes, m bottom nodes and lines ``pairs``.

    ``pairs`` holds each line (a, b) once, a < b; node i is key bit
    n + m - 1 - i.  The lists double line by line from the last (R is a
    product over the lines, the last varying fastest): an arc gives u with
    b's bit set, then 1/u with a's; a through line 1 with neither, then both.
    """
    top, keys, exps = n + m - 1, [0], [0]
    for a, b in reversed(pairs):
        if b < n or a >= n:  # northern or southern arc
            u, inv = 1 << top - b, 1 << top - a
            keys = [k | u for k in keys] + [k | inv for k in keys]
            exps = [e + step for e in exps] + [e - step for e in exps]
        else:
            both = 1 << top - a | 1 << top - b
            keys += [k | both for k in keys]
            exps += exps
    return keys, exps


def r_matrix_codes(n, m, pairs):
    """``tensorrep.r_matrix`` of the diagram (n, m, pairs) as codes,
    {row << m | col: code of x^exp}: a diagram ``d`` gives
    ``r_matrix_codes(d.n, d.m, d.pairs)``, and none need be built.
    """
    return dict(zip(*_r_entries(n, m, pairs, 1 << 4)))
