"""Tensor-space matrices for diagrams: R-matrices, local blocks, and rho0.

Rows and columns are indexed by sequences in {1,2}^n, encoded as integers
with 1 before 2 lexicographically: seq s maps to sum (s_i - 1) * 2^(n-i).

The matrix of a diagram multiplies one factor per line: a propagating line
(i, j') forces v_i = w_j; a northern arc (i, j), i < j, forces v_i != v_j
and contributes u^+1 on (1,2) and u^-1 on (2,1), where u is the arc unit
(u = x by default, so u^2 = q); southern arcs act the same on w.  The
orientation is calibrated so that the (12,12) entry of a single cup-cap
generator is q.

Every entry of a generator image is a signed unit monomial +-a^k x^e, and
along a loop-free word each product position gets one summand.  So the
certificate word chains run on ``CodedMatrix``: entries are the ints of
``rings._unit_code`` under packed keys row << dim_log2 | col.

``Placed`` holds an image as a block on a few factors tensored with I.
"""

from . import _forwarder
from ._record import Record
from .rings import RINGS, CycloInt, CycloLaurent, LaurentInt, _unit_code

__all__ = [
    "SparseRepMatrix",
    "CodedMatrix",
    "SummandCollision",
    "seq_to_index",
    "index_to_seq",
    "r_matrix",
    "r_matrix_codes",
    "mask",
    "mask_eq",
    "product_summand_counts",
    "local_u_matrix",
    "place_local",
    "Placed",
    "Rho0Config",
    "Rho0Rep",
    "rho0",
    "rho0_placed",
    "matrix_to_json",
    "matrix_from_json",
]

# JSON forms and product diagnostics, loaded on first use.
_REFERENCE_NAMES = ("matrix_to_json", "_json_natural", "matrix_from_json",
                    "product_summand_counts")
__getattr__ = _forwarder(__name__, reference=_REFERENCE_NAMES)


def seq_to_index(seq):
    idx = 0
    for s in seq:
        idx = (idx << 1) | (s - 1)
    return idx


def index_to_seq(idx, n):
    return tuple(((idx >> (n - 1 - i)) & 1) + 1 for i in range(n))


class SparseRepMatrix(Record):
    """A sparse matrix on ({1,2}^rows) x ({1,2}^cols) over one of the rings."""

    __slots__ = ("rows_log2", "cols_log2", "entries", "ring")
    __hash__ = None

    def __init__(self, rows_log2, cols_log2, entries, ring):
        self.rows_log2 = rows_log2
        self.cols_log2 = cols_log2
        self.entries = {k: v for k, v in entries.items() if v}
        self.ring = ring

    @classmethod
    def _unchecked(cls, rows_log2, cols_log2, entries, ring):
        """The matrix of ``entries``, which must hold no zero."""
        res = cls.__new__(cls)
        res.rows_log2, res.cols_log2, res.entries, res.ring = \
            rows_log2, cols_log2, entries, ring
        return res

    @classmethod
    def identity(cls, n_log2, ring="laurent"):
        one = RINGS[ring].one()
        return cls(n_log2, n_log2, {(i, i): one for i in range(1 << n_log2)}, ring)

    def shape(self):
        return (1 << self.rows_log2, 1 << self.cols_log2)

    def nnz(self):
        return len(self.entries)

    def mul(self, other):
        if self.cols_log2 != other.rows_log2 or self.ring != other.ring:
            raise ValueError("shape or ring mismatch in matrix product")
        # A one-term right entry c a^k x^e is kept as its packed key and c:
        # the product then shifts the left terms instead of running the
        # ring's double loop, and reuses the left element itself for 1
        # (ring elements are never mutated).  Mixed element classes take
        # the ring product, which picks the result class.
        rows_of_b = {}
        for (r, c), v in other.entries.items():
            key = coeff = None
            if len(v.terms) == 1:
                ((key, coeff),) = v.terms.items()
            rows_of_b.setdefault(r, []).append((c, v, type(v), key, coeff))
        out = {}
        for (u, w), a in self.entries.items():
            a_cls = type(a)
            for c, b, b_cls, key, coeff in rows_of_b.get(w, ()):
                if key is None or b_cls is not a_cls:
                    t = a * b
                elif key or coeff != 1:
                    t = a_cls._shifted(a.terms, key, coeff)
                else:
                    t = a
                pos = (u, c)
                s = out.get(pos)
                if s is None:
                    out[pos] = t  # a product of nonzero elements of a domain
                else:
                    s = s + t
                    if s:
                        out[pos] = s
                    else:
                        del out[pos]
        return SparseRepMatrix._unchecked(self.rows_log2, other.cols_log2, out, self.ring)

    def scalar_mul(self, c):
        return SparseRepMatrix(
            self.rows_log2, self.cols_log2,
            {k: c * v for k, v in self.entries.items()}, self.ring
        )

    def sub(self, other):
        if (self.rows_log2, self.cols_log2, self.ring) != \
                (other.rows_log2, other.cols_log2, other.ring):
            raise ValueError("shape or ring mismatch in matrix difference")
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k)
            out[k] = -v if s is None else s - v
        return SparseRepMatrix(self.rows_log2, self.cols_log2, out, self.ring)

    def ratio_to(self, other):
        """The scalar c with self == c * other, or None if no such c exists.

        The rings are domains, so a nonzero c has self's support equal to
        other's and is unique: any entry gives it (a unit one is cheapest),
        and every entry must then agree.
        """
        if not other.entries or (self.rows_log2, self.cols_log2, self.ring) != \
                (other.rows_log2, other.cols_log2, other.ring):
            return None
        if not self.entries:
            return RINGS[self.ring].zero()
        if self.entries.keys() != other.entries.keys():
            return None
        key = next((k for k, v in other.entries.items() if v.is_unit_monomial()),
                   next(iter(other.entries)))
        try:
            c = self.entries[key].divexact(other.entries[key])
        except ArithmeticError:
            return None
        mine = self.entries
        if c.terms == {0: 1}:  # every loop-free step
            return c if mine == other.entries else None
        return c if all(c * v == mine[k] for k, v in other.entries.items()) else None

    def flatten(self):
        """The matrix as a sparse vector keyed by (row, col)."""
        return dict(self.entries)


class SummandCollision(ArithmeticError):
    """Two summands met at one position of a ``CodedMatrix`` product."""


class CodedMatrix:
    """A square matrix of signed unit monomials +-a^k x^e, held as ints.

    ``entries`` maps row << dim_log2 | col to the code (8e + k) << 1 | sign
    (``rings._unit_code``); packed keys sort like (row, col) tuples.  When
    each product position gets one summand, a product entry is the product
    of two codes: their keys add, their signs XOR, and a^k with k >= 4
    folds to -a^(k-4) (only cyclotomic codes have k > 0).  A position
    reached twice would need a sum: ``mul`` raises ``SummandCollision``,
    and the caller takes the ring path.
    """

    __slots__ = ("dim_log2", "entries")

    def __init__(self, dim_log2, entries):
        self.dim_log2 = dim_log2
        self.entries = entries

    @classmethod
    def identity(cls, dim_log2):
        return cls(dim_log2, {i << dim_log2 | i: 0 for i in range(1 << dim_log2)})

    @classmethod
    def from_matrix(cls, mat):
        """mat's codes, or None unless mat is square with every entry +-a^k x^e."""
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
        rows_of_b = {}
        for key, code in other.entries.items():
            rows_of_b.setdefault(key >> shift, []).append((key & low, code & 1, code & -2))
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


def mask(a):
    """The set of nonzero positions of a matrix."""
    return frozenset(a.entries)


def mask_eq(a, b):
    if (a.rows_log2, a.cols_log2) != (b.rows_log2, b.cols_log2):
        raise ValueError("shape mismatch in mask comparison")
    return mask(a) == mask(b)


def _r_triples(d):
    """(row bits, column bits, exponent of the arc unit) of R(d)'s entries.

    The table is doubled line by line: each line takes its first option,
    then its second, in the order of a product over the lines with the last
    varying fastest.
    """
    n, m = d.n, d.m
    triples = [(0, 0, 0)]
    for a, b in d.pairs:
        if b < n:  # northern arc: v_a = 1, v_b = 2 gives u, the swap 1/u
            options = ((1 << (n - 1 - b), 0, 1), (1 << (n - 1 - a), 0, -1))
        elif a >= n:  # southern arc, the same on w
            options = ((0, 1 << (n + m - 1 - b), 1), (0, 1 << (n + m - 1 - a), -1))
        else:  # propagating line: v_a = w_j = 1 or both 2, no weight
            options = ((0, 0, 0), (1 << (n - 1 - a), 1 << (n + m - 1 - b), 0))
        triples = [(r | dr, c | dc, e + de) for r, c, e in triples
                   for dr, dc, de in options]
    return triples


def r_matrix(d, unit=None):
    """The tensor-space matrix of a planar diagram.

    ``unit`` is the invertible arc weight (default: x over the integer
    Laurent ring); passing a different unit, possibly in the cyclotomic
    ring, realizes the same matrix at an independent formal parameter.
    """
    if unit is None:
        unit = LaurentInt.x_power(1)
    inv = unit.unit_inverse()
    entries = {}
    powers = {}  # exponent -> unit power, shared by every entry that uses it
    for r, c, exp in _r_triples(d):
        coeff = powers.get(exp)
        if coeff is None:
            coeff = powers[exp] = unit ** exp if exp >= 0 else inv ** (-exp)
        entries[(r, c)] = coeff
    return SparseRepMatrix._unchecked(d.n, d.m, entries, unit.ring)


def r_matrix_codes(d):
    """``r_matrix(d)`` as codes: {row << d.m | col: code of x^exp}."""
    m = d.m
    return {r << m | c: exp << 4 for r, c, exp in _r_triples(d)}


def local_u_matrix(chi, param):
    """The 4x4 generator block in basis order (11, 12, 21, 22).

    The middle block is [[q, 1], [1, 1/q]] at q = param; the (22,22) corner
    holds chi (zero in the plain cup-cap case).
    """
    one = param.one()
    entries = {
        (1, 1): param,
        (1, 2): one,
        (2, 1): one,
        (2, 2): param.unit_inverse(),
    }
    if chi:
        entries[(3, 3)] = chi
    return SparseRepMatrix(2, 2, entries, param.ring)


def _tensor_identity(entries, free):
    """(r, c) -> v as (r | x, c | x) -> v for each submask x of free, in order."""
    xs, x = [0], 0
    while x != free:
        x = (x - free) & free
        xs.append(x)
    return {(r | x, c | x): v for (r, c), v in entries.items() for x in xs}


class Placed(Record):
    """block (x) I, where block has the full shape and acts on the factors
    of the bit mask ``support`` only."""

    __slots__ = ("support", "block")
    __hash__ = None

    def __init__(self, support, block):
        self.support = support
        self.block = block

    def on(self, bits):
        """The block tensored with I up to ``bits`` (a superset of support)."""
        b = self.block
        return b if bits == self.support else SparseRepMatrix._unchecked(
            b.rows_log2, b.cols_log2,
            _tensor_identity(b.entries, bits & ~self.support), b.ring)

    def expand(self):
        """The full matrix, block (x) I."""
        return self.on((1 << self.block.rows_log2) - 1)


def _expanded(images):
    """images with each ``Placed`` image replaced by its full matrix."""
    return {k: m.expand() if isinstance(m, Placed) else m
            for k, m in images.items()}


def _placed_local(local, i, total, sign=-1):
    if not 1 <= i <= total - 1:
        raise ValueError(f"position {i} out of range 1..{total - 1}")
    shift = total - 1 - i
    entries = {(r << shift, c << shift): -v if sign == -1 else v
               for (r, c), v in local.entries.items()}
    return Placed(3 << shift, SparseRepMatrix(total, total, entries, local.ring))


def place_local(local, i, total, sign=-1):
    """Embed a 4x4 block at tensor positions (i, i+1) of ``total`` factors.

    Acts as the identity on every other factor; ``sign=-1`` places the
    negated block.
    """
    return _placed_local(local, i, total, sign).expand()


class Rho0Config(Record):
    """Size and weight parameters of the explicit blob tensor representation.

    The coefficient ring is Z[a, x, x^-1]/(a^4 + 1) with q = x^2; the three
    placement weights are r = a^2 q^m, s = a^5 x and t = a^3 x.
    """

    __slots__ = ("n", "m")

    def __init__(self, n, m):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self.m = m

    @property
    def r_param(self):
        return CycloLaurent({2 * self.m: CycloInt.a_power(2)})

    @property
    def s_param(self):
        return CycloLaurent({1: CycloInt.a_power(5)})

    @property
    def t_param(self):
        return CycloLaurent({1: CycloInt.a_power(3)})


class Rho0Rep(Record):
    """Generator images of rho0 on 2n tensor factors.

    ``u_factors`` keeps the two placements of each cup-cap image separately;
    mirror certification constrains the factors, not just their product.
    """

    __slots__ = ("config", "e", "u_factors", "u")
    __hash__ = None

    def __init__(self, config, e, u_factors=None, u=None):
        self.config = config
        self.e = e
        self.u_factors = {} if u_factors is None else u_factors
        self.u = {} if u is None else u

    def letter_images(self):
        images = {"e": self.e}
        images.update(self.u)
        return images


def _rho0_placed(config):
    """(letter images, {i: (X_i, Y_i)}) of rho0 as ``Placed`` blocks.

    The blob image is a^-2 times the weight-r placement at the middle
    position; the i-th cup-cap image is the product of the weight-s
    placement X_i at position n-i and the weight-t placement Y_i at
    position n+i (disjoint positions, so the factor order is immaterial).
    """
    n, total = config.n, 2 * config.n
    e = _placed_local(local_u_matrix(None, config.r_param), n, total)
    images = {"e": Placed(e.support,
                          e.block.scalar_mul(CycloLaurent.a_power(-2)))}
    factors = {}
    for i in range(1, n):
        x = _placed_local(local_u_matrix(None, config.s_param), n - i, total)
        y = _placed_local(local_u_matrix(None, config.t_param), n + i, total)
        factors[i] = (x, y)
        bits = x.support | y.support
        images[i] = Placed(bits, x.on(bits).mul(y.on(bits)))
    return images, factors


def rho0_placed(config):
    """rho0(config).letter_images() as blocks of at most 16 entries."""
    return _rho0_placed(config)[0]


def rho0(config):
    """The blob tensor representation on 2n factors."""
    images, factors = _rho0_placed(config)
    return Rho0Rep(config, images.pop("e").expand(),
                   {i: (x.expand(), y.expand()) for i, (x, y) in factors.items()},
                   {i: p.expand() for i, p in images.items()})
