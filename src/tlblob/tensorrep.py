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
It is the one form in which generator images travel from their build to a
certificate.  ``_placed`` reads a full matrix as a block on every factor,
and ``_on_union`` puts several images on the union of their supports,
where products and comparisons are exact; ``_expanded`` gives the full
matrices a word chain multiplies.  ``rho0``, ``Rho0Rep`` and
``place_local`` build full matrices for library callers.
"""

from ._record import Record
from .rings import RINGS, CycloLaurent, LaurentInt, _unit_code

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
    "local_u_matrix",
    "place_local",
    "Placed",
    "Rho0Config",
    "Rho0Rep",
    "rho0",
    "rho0_placed",
]


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
        rows_of_b = {}
        for (r, c), v in other.entries.items():
            rows_of_b.setdefault(r, []).append((c, v))
        out = {}
        for (u, w), a in self.entries.items():
            for c, b in rows_of_b.get(w, ()):
                t = a * b
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
        if c == 1:  # every loop-free step
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


def mask(a):
    """The set of nonzero positions of a matrix."""
    return frozenset(a.entries)


def mask_eq(a, b):
    if (a.rows_log2, a.cols_log2) != (b.rows_log2, b.cols_log2):
        raise ValueError("shape mismatch in mask comparison")
    return mask(a) == mask(b)


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


def r_matrix(d, unit=None):
    """The tensor-space matrix of a planar diagram.

    ``unit`` is the invertible arc weight (default: x over the integer
    Laurent ring); passing a different unit, possibly in the cyclotomic
    ring, realizes the same matrix at an independent formal parameter.
    """
    if unit is None:
        unit = LaurentInt.x_power(1)
    inv = unit.unit_inverse()
    low = (1 << d.m) - 1
    entries = {(k >> d.m, k & low): unit ** exp if exp >= 0 else inv ** -exp
               for k, exp in zip(*_r_entries(d.n, d.m, d.pairs))}
    return SparseRepMatrix._unchecked(d.n, d.m, entries, unit.ring)


def r_matrix_codes(n, m, pairs):
    """``r_matrix`` of the diagram (n, m, pairs) as codes,
    {row << m | col: code of x^exp}: a diagram ``d`` gives
    ``r_matrix_codes(d.n, d.m, d.pairs)``, and none need be built.
    """
    return dict(zip(*_r_entries(n, m, pairs, 1 << 4)))


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


def _placed(image):
    """image as a ``Placed``: a full matrix is a block on every factor."""
    return image if isinstance(image, Placed) else \
        Placed((1 << image.rows_log2) - 1, image)


def _on_union(*images):
    """(bits, blocks): the union of the images' supports, and each image
    on it.  (A(x)I)(B(x)I) = AB(x)I and X(x)I = Y(x)I iff X = Y, so a
    product or comparison made on the blocks holds for the full matrices."""
    bits = 0
    for m in images:
        bits |= _placed(m).support
    return bits, [_placed(m).on(bits) for m in images]


def _expanded(images):
    """images with each image replaced by its full matrix."""
    return {k: _placed(m).expand() for k, m in images.items()}


def _window_product(x, y):
    """The product x y as a ``Placed`` block on the union of their windows."""
    bits, (a, b) = _on_union(x, y)
    return Placed(bits, a.mul(b))


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
        return CycloLaurent.a_power(2, 2 * self.m)

    @property
    def s_param(self):
        return CycloLaurent.a_power(5, 1)

    @property
    def t_param(self):
        return CycloLaurent.a_power(3, 1)


class Rho0Rep(Record):
    """Generator images of rho0 on 2n tensor factors, as full matrices.

    ``u_factors`` keeps the two placements of each cup-cap image separately;
    mirror certification constrains the factors, not just their product.
    ``certify_rho0`` reads the same images as blocks (``_rho0_placed``);
    this expanded form is kept for library callers.
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
    """(e, {i: (X_i, Y_i)}): rho0's blob image and cup-cap factors as
    ``Placed`` blocks.

    The blob image is a^-2 times the weight-r placement at the middle
    position; the i-th cup-cap image is the product of the weight-s
    placement X_i at position n-i and the weight-t placement Y_i at
    position n+i (disjoint positions, so the factor order is immaterial).
    Its callers form each product once, with ``_window_product``.
    """
    n, total = config.n, 2 * config.n
    e = _placed_local(local_u_matrix(None, config.r_param), n, total)
    e = Placed(e.support, e.block.scalar_mul(CycloLaurent.a_power(-2)))
    s_block = local_u_matrix(None, config.s_param)
    t_block = local_u_matrix(None, config.t_param)
    return e, {i: (_placed_local(s_block, n - i, total),
                   _placed_local(t_block, n + i, total)) for i in range(1, n)}


def rho0_placed(config):
    """rho0(config).letter_images() as blocks of at most 16 entries."""
    e, factors = _rho0_placed(config)
    images = {"e": e}
    images.update({i: _window_product(x, y) for i, (x, y) in factors.items()})
    return images


def rho0(config):
    """The blob tensor representation on 2n factors."""
    e, factors = _rho0_placed(config)
    return Rho0Rep(config, e.expand(),
                   {i: (x.expand(), y.expand()) for i, (x, y) in factors.items()},
                   {i: _window_product(x, y).expand()
                    for i, (x, y) in factors.items()})
