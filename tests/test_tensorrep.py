import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from tlblob.diagrams import compose_tl, generator_u, identity
from tlblob.faithful import _prefix_products, _tl_letter_matrices
from tlblob.reference import (
    enumerate_tl,
    matrix_from_json,
    matrix_to_json,
    product_summand_counts,
)
from tlblob.codes import (
    CodedMatrix,
    SummandCollision,
    _unit_code,
    index_to_seq,
    r_matrix_codes,
    seq_to_index,
)
from tlblob.rings import CycloInt, CycloLaurent, LaurentInt, quantum_integer, \
    _code_element
from tlblob.tensorrep import (
    Rho0Config,
    SparseRepMatrix,
    _expanded,
    local_u_matrix,
    mask,
    mask_eq,
    place_local,
    r_matrix,
    rho0,
    rho0_placed,
)
from tlblob.walks import enumerate_pairs, pair_word
from tlblob.words import GenWord, _basis_words, eval_word

Q = LaurentInt.x_power(2)
ONE = LaurentInt.one()
DELTA = quantum_integer(2)


class TestIndexing:
    def test_roundtrip(self):
        for n in (1, 2, 3, 5):
            for seq in itertools.product((1, 2), repeat=n):
                assert index_to_seq(seq_to_index(seq), n) == seq

    def test_lexicographic(self):
        seqs = sorted(itertools.product((1, 2), repeat=3))
        assert [seq_to_index(s) for s in seqs] == list(range(8))


class TestRMatrix:
    def test_identity_diagram_is_unit_matrix(self):
        for n in (1, 2, 3):
            assert r_matrix(identity(n)) == SparseRepMatrix.identity(n)

    def test_cupcap_entries(self):
        mat = r_matrix(generator_u(1, 2))
        i12, i21 = seq_to_index((1, 2)), seq_to_index((2, 1))
        assert mat.entries == {
            (i12, i12): Q,
            (i12, i21): ONE,
            (i21, i12): ONE,
            (i21, i21): Q.unit_inverse(),
        }

    def test_double_cup_diagonal_entry(self):
        word = GenWord((1, 3), 4)
        mat = r_matrix(eval_word(word).tl_diagram)
        k = seq_to_index((1, 2, 1, 2))
        assert mat.entries[(k, k)] == LaurentInt({4: 1})  # q^2

    def test_one_nonzero_per_line_pattern(self):
        for d in enumerate_tl(3, 3):
            mat = r_matrix(d)
            assert mat.nnz() == 2 ** len(d.pairs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_composition_identity(self, n):
        diagrams = enumerate_tl(n, n)
        mats = {d: r_matrix(d) for d in diagrams}
        for d1, d2 in itertools.product(diagrams, repeat=2):
            res = compose_tl(d1, d2)
            assert mats[d1].mul(mats[d2]) == \
                mats[res.diagram].scalar_mul(DELTA ** res.plain_loops)

    def test_loop_scalar(self):
        u = r_matrix(generator_u(1, 2))
        assert u.mul(u) == u.scalar_mul(DELTA)

    def test_rectangular(self):
        d = enumerate_tl(2, 4)[0]
        mat = r_matrix(d)
        assert mat.shape() == (4, 16)

    def test_unique_summand_when_no_loops(self):
        for d1, d2 in itertools.product(enumerate_tl(3, 3), repeat=2):
            if compose_tl(d1, d2).plain_loops:
                continue
            counts = product_summand_counts(r_matrix(d1), r_matrix(d2))
            assert counts and set(counts.values()) == {1}


def reference_r_matrix(d, unit=None):
    """r_matrix as a product over the lines' value options."""
    if unit is None:
        unit = LaurentInt.x_power(1)
    inv = unit.unit_inverse()
    n, m = d.n, d.m
    options = []
    for a, b in d.pairs:
        if b < n:
            options.append([(((0, a, 1), (0, b, 2)), 1),
                            (((0, a, 2), (0, b, 1)), -1)])
        elif a >= n:
            i, j = a - n, b - n
            options.append([(((1, i, 1), (1, j, 2)), 1),
                            (((1, i, 2), (1, j, 1)), -1)])
        else:
            j = b - n
            options.append([(((0, a, 1), (1, j, 1)), 0),
                            (((0, a, 2), (1, j, 2)), 0)])
    entries = {}
    for combo in itertools.product(*options):
        v = [0] * n
        w = [0] * m
        exp = 0
        for assigns, e in combo:
            exp += e
            for which, pos, val in assigns:
                (v if which == 0 else w)[pos] = val
        entries[(seq_to_index(v), seq_to_index(w))] = \
            unit ** exp if exp >= 0 else inv ** (-exp)
    return SparseRepMatrix(n, m, entries, unit.ring)


class TestRMatrixMatchesReference:
    """The bit-doubling build gives the option product's entries, in order."""

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(7) for m in range(7)
                                     if (n + m) % 2 == 0])
    def test_every_diagram(self, n, m):
        for d in enumerate_tl(n, m):
            got, want = r_matrix(d), reference_r_matrix(d)
            assert list(got.entries.items()) == list(want.entries.items())
            assert got == want

    def test_cyclotomic_unit(self):
        unit = CycloLaurent({1: CycloInt.a_power(1)})  # a*x
        for d in enumerate_tl(4, 4):
            got, want = r_matrix(d, unit), reference_r_matrix(d, unit)
            assert list(got.entries.items()) == list(want.entries.items())
            assert got.ring == want.ring == "cyclo"


class TestProductOverLines:
    """R(D) is a product over the lines of D of one tensor per line: C on an
    arc, C[1][2] = x and C[2][1] = 1/x, and the identity on a propagating
    line.  ``verify-tl``'s contraction argument rests on this form."""

    @staticmethod
    def product_over_lines(n, m, pairs):
        """{row << m | col: code}, one position at a time, each factor a
        power of x given by its exponent."""
        arc = {(1, 2): 1, (2, 1): -1}
        out = {}
        for row, col in itertools.product(range(1 << n), range(1 << m)):
            nodes = index_to_seq(row, n) + index_to_seq(col, m)
            exp = 0
            for a, b in pairs:
                if (a < n) == (b < n):
                    factor = arc.get((nodes[a], nodes[b]))
                else:
                    factor = 0 if nodes[a] == nodes[b] else None
                if factor is None:
                    break
                exp += factor
            else:
                out[row << m | col] = _unit_code(LaurentInt.x_power(exp))
        return out

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(7) for m in range(7)
                                     if (n + m) % 2 == 0])
    def test_r_matrix_codes(self, n, m):
        for d in enumerate_tl(n, m):
            assert r_matrix_codes(n, m, d.pairs) == \
                self.product_over_lines(n, m, d.pairs)


class TestMasks:
    def test_scaling_preserves_mask(self):
        a = r_matrix(generator_u(1, 3))
        assert mask_eq(a, a.scalar_mul(LaurentInt.from_int(3)))

    def test_different_support(self):
        assert not mask_eq(SparseRepMatrix.identity(2), r_matrix(generator_u(1, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mask_eq(SparseRepMatrix.identity(1), SparseRepMatrix.identity(2))

    @pytest.mark.parametrize("n", [2, 3])
    def test_mask_independent_of_parameter(self, n):
        # same pattern at three genuinely different invertible weights
        second = CycloLaurent({1: CycloInt.a_power(1)})  # a*x
        third = LaurentInt.x_power(3)
        for d in enumerate_tl(n, n):
            m1 = mask(r_matrix(d))
            assert m1 == mask(r_matrix(d, unit=second))
            assert m1 == mask(r_matrix(d, unit=third))

    @pytest.mark.parametrize("n", [3, 4])
    def test_overlay_product_mask(self, n):
        # nonzero overlays of the factors keep the product's support
        rng = random.Random(19)
        menu = [ONE, LaurentInt.x_power(1), LaurentInt.from_int(2),
                LaurentInt.from_int(3)]
        diagrams = enumerate_tl(n, n)
        for d1, d2 in itertools.product(diagrams, repeat=2):
            res = compose_tl(d1, d2)
            if res.plain_loops:
                continue
            x = SparseRepMatrix(n, n, {k: rng.choice(menu)
                                       for k in r_matrix(d1).entries}, "laurent")
            y = SparseRepMatrix(n, n, {k: rng.choice(menu)
                                       for k in r_matrix(d2).entries}, "laurent")
            assert mask(x.mul(y)) == mask(r_matrix(res.diagram))


def reference_product(a, b):
    """a * b from ring * and + alone, one position at a time."""
    out = {}
    for (u, w), x in a.entries.items():
        for (v, c), y in b.entries.items():
            if v == w:
                out[(u, c)] = out[(u, c)] + x * y if (u, c) in out else x * y
    return {k: v for k, v in out.items() if v}


X = LaurentInt.x_power(1)
A = CycloLaurent.a_power(1)
# Right entries 1, -1, +-a^k x^e (k + k' >= 4 against the left menu, negative
# e) and non-monomials such as [2], in each ring; CycloInt keeps the class rule
# of mixed products in play.
KERNEL_MENUS = {
    "laurent": [ONE, -ONE, X, -X ** 3, X.unit_inverse(), DELTA, X + 2, 3 * X.unit_inverse() ** 2],
    "cyclo": [CycloLaurent.one(), -CycloLaurent.one(), A ** 3, -(A ** 2) * X ** 2,
              CycloLaurent.a_power(-1, -1), CycloLaurent.from_laurent(DELTA), A + X,
              CycloInt(0, 0, 5), CycloInt(1), 2 * A ** 3 * X],
}


def kernel_matrices(ring):
    dims = st.integers(0, 2)
    menu = st.sampled_from(KERNEL_MENUS[ring])

    def matrix(rows, cols):
        keys = st.tuples(st.integers(0, (1 << rows) - 1), st.integers(0, (1 << cols) - 1))
        return st.dictionaries(keys, menu, max_size=10).map(
            lambda entries: SparseRepMatrix(rows, cols, entries, ring))

    return st.tuples(dims, dims, dims).flatmap(
        lambda d: st.tuples(matrix(d[0], d[1]), matrix(d[1], d[2])))


class TestProductKernel:
    """``mul`` sums the ring products; entries and their classes must match
    the plain double loop."""

    @pytest.mark.parametrize("ring", ["laurent", "cyclo"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_reference_product(self, ring, data):
        a, b = data.draw(kernel_matrices(ring))
        product = a.mul(b)
        expected = reference_product(a, b)
        assert product.entries == expected
        assert {k: type(v) for k, v in product.entries.items()} == \
            {k: type(v) for k, v in expected.items()}
        assert (product.rows_log2, product.cols_log2, product.ring) == \
            (a.rows_log2, b.cols_log2, ring)

    @pytest.mark.parametrize("unit", [X, CycloLaurent.a_power(3, -1)])
    def test_cancelled_position_is_absent(self, unit):
        ring = unit.ring
        a = SparseRepMatrix(1, 1, {(0, 0): unit, (0, 1): -unit, (1, 1): unit}, ring)
        b = SparseRepMatrix(1, 1, {(0, 0): unit, (1, 0): unit, (1, 1): unit}, ring)
        product = a.mul(b)
        assert (0, 0) not in product.entries
        assert product.entries == {(0, 1): -unit * unit, (1, 0): unit * unit,
                                   (1, 1): unit * unit}

    def test_empty_rows(self):
        a = SparseRepMatrix(1, 1, {(0, 1): X, (1, 1): DELTA}, "laurent")
        b = SparseRepMatrix(1, 1, {(0, 0): ONE, (0, 1): X}, "laurent")
        assert a.mul(b).entries == {}
        assert b.mul(a).entries == {(0, 1): X + X * DELTA}


def decode(coded):
    """A CodedMatrix as the SparseRepMatrix of its decoded entries."""
    shift = coded.dim_log2
    low = (1 << shift) - 1
    entries = {(k >> shift, k & low): _code_element(c) for k, c in coded.entries.items()}
    ring = "cyclo" if any(c & 14 for c in coded.entries.values()) else "laurent"
    return SparseRepMatrix(shift, shift, entries, ring)


# +-a^k x^e with negative and positive e; a-parts up to 3, so k1 + k2 >= 4
# (the fold) is drawn often.
unit_monomials = st.builds(
    lambda e, k, minus: (-1 if minus else 1) * CycloLaurent.a_power(k, e),
    st.integers(-3, 3), st.integers(0, 3), st.booleans())


@st.composite
def coded_pairs(draw):
    dim = draw(st.integers(0, 2))
    side = 1 << dim

    def matrix():
        keys = st.tuples(st.integers(0, side - 1), st.integers(0, side - 1))
        entries = draw(st.dictionaries(keys, unit_monomials, max_size=8))
        return SparseRepMatrix(dim, dim, entries, "cyclo")

    return matrix(), matrix()


class TestCodedProduct:
    """``CodedMatrix.mul`` is the ring product while no position collides."""

    @settings(max_examples=300, deadline=None)
    @given(coded_pairs())
    def test_matches_ring_product_or_collides(self, pair):
        a, b = pair
        ca, cb = CodedMatrix.from_matrix(a), CodedMatrix.from_matrix(b)
        assert decode(ca).entries == a.entries
        if any(v > 1 for v in product_summand_counts(a, b).values()):
            with pytest.raises(SummandCollision):
                ca.mul(cb)
        else:
            product = ca.mul(cb)
            assert decode(product).entries == a.mul(b).entries
            assert all(c & 8 == 0 for c in product.entries.values())

    def test_fold_and_negative_exponents(self):
        a3 = CycloLaurent.a_power(3, -2)
        a = SparseRepMatrix(1, 1, {(0, 1): -a3, (1, 0): a3}, "cyclo")
        b = SparseRepMatrix(1, 1, {(1, 1): CycloLaurent.a_power(2, -1),
                                   (0, 0): -CycloLaurent.a_power(1, 5)}, "cyclo")
        product = CodedMatrix.from_matrix(a).mul(CodedMatrix.from_matrix(b))
        # -a^3 x^-2 * a^2 x^-1 = -a^5 x^-3 = a x^-3
        assert decode(product).entries == {
            (0, 1): CycloLaurent.a_power(1, -3), (1, 0): a3 * -CycloLaurent.a_power(1, 5)}
        assert product.entries[1] == _unit_code(CycloLaurent.a_power(1, -3))

    def test_colliding_pair(self):
        # u1 u1 closes a loop: position (12, 12) gets q and 1.
        u = CodedMatrix.from_matrix(r_matrix(generator_u(1, 2)))
        with pytest.raises(SummandCollision):
            u.mul(u)

    @pytest.mark.parametrize("entry", [DELTA, 2 * X, LaurentInt.zero() + X + 1])
    def test_non_unit_entry_has_no_code(self, entry):
        mat = SparseRepMatrix(1, 1, {(0, 0): ONE, (1, 0): entry}, "laurent")
        assert CodedMatrix.from_matrix(mat) is None
        assert CodedMatrix.from_matrix(r_matrix(enumerate_tl(2, 4)[0])) is None

    def test_identity_and_shape(self):
        u = CodedMatrix.from_matrix(r_matrix(generator_u(1, 3)))
        assert CodedMatrix.identity(3).mul(u).entries == u.entries
        with pytest.raises(ValueError):
            u.mul(CodedMatrix.identity(2))

    @pytest.mark.parametrize("n,m", [(0, 0), (2, 2), (3, 3), (2, 4), (4, 2)])
    def test_r_matrix_codes(self, n, m):
        for d in enumerate_tl(n, m):
            mat = r_matrix(d)
            assert r_matrix_codes(d.n, d.m, d.pairs) == {
                r << m | c: _unit_code(v)
                for (r, c), v in mat.entries.items()}


def coded_letters(kind, n):
    """(full letter images, loop-free words) of a certificate chain."""
    if kind == "tl":
        pairs = enumerate_pairs(n)
        return _expanded(_tl_letter_matrices(n)), [pair_word(p) for p in pairs]
    return _expanded(rho0_placed(Rho0Config(n, 1))), _basis_words(n)


def coded_product(letters, factor, dim_log2):
    """The word's coded product with factor(letter) for each letter, as
    entries, or None on a summand collision."""
    cur = CodedMatrix.identity(dim_log2)
    try:
        for letter in letters:
            cur = cur.mul(factor(letter))
    except SummandCollision:
        return None
    return cur.entries


class TestLetterIndex:
    """A letter indexes its rows once and reuses them in every product."""

    @staticmethod
    def letters(kind, n):
        """(dim_log2, full images, coded images, loop-free words)."""
        if kind == "tl":
            dim, images = n, _tl_letter_matrices(n)
            words = [pair_word(p) for p in enumerate_pairs(n)]
        else:
            dim, images = 2 * n, rho0_placed(Rho0Config(n, 1))
            words = _basis_words(n)
        images = _expanded(images)
        coded = {k: CodedMatrix.from_matrix(m) for k, m in images.items()}
        return dim, images, coded, words

    @pytest.mark.parametrize("kind,n", [("tl", n) for n in range(1, 7)]
                             + [("rho0", n) for n in (1, 2, 3)])
    def test_reused_letters_match_fresh(self, kind, n):
        dim, images, coded, words = self.letters(kind, n)
        chain = _prefix_products(CodedMatrix.identity(dim), words, coded)
        fresh = lambda letter: CodedMatrix.from_matrix(images[letter])
        assert [m.entries for m in chain] == \
            [coded_product(w.letters, fresh, dim) for w in words]
        for letter in coded.values():
            assert letter._rows() is letter._rows()

    @pytest.mark.parametrize("kind,n", [("tl", 3), ("tl", 4), ("rho0", 2)])
    def test_reused_letter_collides_as_fresh(self, kind, n):
        dim, images, coded, _ = self.letters(kind, n)
        for letter in coded.values():  # every index built before the words
            CodedMatrix.identity(dim).mul(letter)
        fresh = lambda letter: CodedMatrix.from_matrix(images[letter])
        collisions = 0
        for letters in itertools.product(coded, repeat=3):
            product = coded_product(letters, fresh, dim)
            assert coded_product(letters, coded.get, dim) == product, letters
            collisions += product is None
        assert collisions


class TestRatio:
    def test_unit_entry_path(self):
        u = r_matrix(generator_u(1, 2))
        assert u.scalar_mul(DELTA).ratio_to(u) == DELTA

    def test_zero_numerator(self):
        u = r_matrix(generator_u(1, 2))
        zero = SparseRepMatrix(2, 2, {}, "laurent")
        assert zero.ratio_to(u) == LaurentInt.zero()

    def test_not_proportional(self):
        assert SparseRepMatrix.identity(2).ratio_to(r_matrix(generator_u(1, 2))) is None

    def test_support_mismatch(self):
        u = r_matrix(generator_u(1, 2))
        extra = SparseRepMatrix(2, 2, {**u.entries, (0, 0): ONE}, "laurent")
        assert extra.ratio_to(u) is None
        assert u.ratio_to(extra) is None

    def test_same_support_not_proportional(self):
        u = r_matrix(generator_u(1, 2))
        skewed = SparseRepMatrix(2, 2, dict(u.entries), "laurent")
        skewed.entries[(1, 1)] = skewed.entries[(1, 1)] * DELTA
        assert skewed.ratio_to(u) is None

    def test_shape_or_ring_mismatch(self):
        one = SparseRepMatrix.identity(1)
        assert one.ratio_to(SparseRepMatrix(1, 2, {(0, 0): ONE, (1, 1): ONE},
                                            "laurent")) is None
        assert one.ratio_to(SparseRepMatrix.identity(1, "cyclo")) is None

    def test_zero_numerator_shape_or_ring_mismatch(self):
        zero_1x1 = SparseRepMatrix(0, 0, {}, "laurent")
        assert zero_1x1.ratio_to(SparseRepMatrix.identity(1)) is None
        zero_cyclo = SparseRepMatrix(1, 1, {}, "cyclo")
        assert zero_cyclo.ratio_to(SparseRepMatrix.identity(1)) is None

    @pytest.mark.parametrize("ring", ["laurent", "cyclo"])
    def test_non_monomial_divisor(self, ring):
        x = LaurentInt.x_power(1)
        if ring == "laurent":
            d, c = DELTA, x + 2
        else:
            d = CycloLaurent.from_laurent(DELTA) + CycloInt.a_power(1)
            c = CycloLaurent.a_power(3, 1) + 1
        other = SparseRepMatrix(1, 1, {(0, 0): d, (1, 1): d * d * x}, ring)
        assert not any(v.is_unit_monomial() for v in other.entries.values())
        assert other.scalar_mul(c).ratio_to(other) == c
        inexact = SparseRepMatrix(1, 1, {(0, 0): x, (1, 1): d * x}, ring)
        assert inexact.ratio_to(other) is None

    def test_zero_denominator(self):
        zero = SparseRepMatrix(2, 2, {}, "laurent")
        assert zero.ratio_to(zero) is None
        assert SparseRepMatrix.identity(2).ratio_to(zero) is None


class TestLocalBlock:
    def test_displayed_entries(self):
        mat = local_u_matrix(LaurentInt.zero(), Q)
        assert mat.entries == {
            (1, 1): Q, (1, 2): ONE, (2, 1): ONE, (2, 2): Q.unit_inverse(),
        }

    def test_chi_corner(self):
        chi = LaurentInt.from_int(5)
        mat = local_u_matrix(chi, Q)
        assert mat.entries[(3, 3)] == chi

    def test_unpadded_placement(self):
        local = local_u_matrix(LaurentInt.zero(), Q)
        assert place_local(local, 1, 2, sign=+1) == local

    def test_negative_sign(self):
        local = local_u_matrix(LaurentInt.zero(), Q)
        placed = place_local(local, 1, 2, sign=-1)
        assert placed == local.scalar_mul(LaurentInt.from_int(-1))

    def test_position_out_of_range(self):
        local = local_u_matrix(LaurentInt.zero(), Q)
        with pytest.raises(ValueError):
            place_local(local, 4, 4)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_placement_mask_matches_generator(self, i):
        local = local_u_matrix(LaurentInt.zero(), Q)
        placed = place_local(local, i, 4)
        assert mask_eq(placed, r_matrix(generator_u(i, 4)))

    def test_placement_equals_generator_matrix_up_to_sign(self):
        local = local_u_matrix(LaurentInt.zero(), Q)
        for i in (1, 2, 3):
            placed = place_local(local, i, 4, sign=+1)
            assert placed == r_matrix(generator_u(i, 4))


def nested_loop_placement(local, i, total, sign):
    """The reference: place_local as one loop per factor above and below."""
    high_bits, low_bits = i - 1, total - 1 - i
    entries = {}
    for (r, c), v in local.entries.items():
        val = -v if sign == -1 else v
        for high in range(1 << high_bits):
            for low in range(1 << low_bits):
                row = (high << (total - high_bits)) | (r << low_bits) | low
                col = (high << (total - high_bits)) | (c << low_bits) | low
                entries[(row, col)] = val
    return SparseRepMatrix(total, total, entries, local.ring)


class TestPlaced:
    @pytest.mark.parametrize("total", range(2, 7))
    def test_place_local_matches_nested_loops(self, total):
        for local in (local_u_matrix(None, Q),
                      local_u_matrix(LaurentInt.from_int(5), Q.unit_inverse())):
            for i in range(1, total):
                for sign in (-1, 1):
                    placed = place_local(local, i, total, sign)
                    reference = nested_loop_placement(local, i, total, sign)
                    assert placed == reference
                    assert list(placed.entries) == list(reference.entries)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("m", [-1, 0, 1, 2, 3])
    def test_rho0_matches_full_placements(self, n, m):
        config = Rho0Config(n, m)
        rep, placed = rho0(config), rho0_placed(config)
        total = 2 * n
        e = place_local(local_u_matrix(None, config.r_param), n, total)
        assert rep.e == e.scalar_mul(CycloLaurent.a_power(-2))
        for i in range(1, n):
            x = place_local(local_u_matrix(None, config.s_param), n - i, total)
            y = place_local(local_u_matrix(None, config.t_param), n + i, total)
            assert rep.u_factors[i] == (x, y)
            assert rep.u[i] == x.mul(y)
        assert {k: p.expand() for k, p in placed.items()} == rep.letter_images()
        assert max(p.block.nnz() for p in placed.values()) <= 16

    @pytest.mark.parametrize("n", range(1, 11))
    def test_tl_letter_blocks_expand_to_r_matrices(self, n):
        letters = _tl_letter_matrices(n)
        assert sorted(letters) == list(range(1, n))
        for i, letter in letters.items():
            assert letter.support == 3 << (n - 1 - i)
            assert letter.block.nnz() == 4
            assert letter.expand() == r_matrix(generator_u(i, n))
        # The mirror certificate's mask references: shifted index j is the
        # letter at n // 2 + j.
        if n % 2 == 0:
            for j in range(1 - n // 2, n // 2):
                assert letters[n // 2 + j].expand() == \
                    r_matrix(generator_u(j, n, "shifted"))


class TestRho0:
    def test_smallest_blob_image_by_hand(self):
        rep = rho0(Rho0Config(1, 1))
        a2 = CycloLaurent.a_power(2)
        i12, i21 = 1, 2
        assert rep.e.entries == {
            (i12, i12): CycloLaurent({2: CycloInt(-1)}),       # -q
            (i12, i21): a2,
            (i21, i12): a2,
            (i21, i21): CycloLaurent({-2: CycloInt(1)}),       # 1/q
        }

    def test_masks_are_mirrored_generators(self):
        rep = rho0(Rho0Config(2, 1))
        assert mask_eq(rep.e, r_matrix(generator_u(0, 4, "shifted")))
        x1, y1 = rep.u_factors[1]
        assert mask_eq(x1, r_matrix(generator_u(-1, 4, "shifted")))
        assert mask_eq(y1, r_matrix(generator_u(1, 4, "shifted")))
        assert mask_eq(rep.u[1], r_matrix(
            compose_tl(generator_u(1, 4), generator_u(3, 4)).diagram))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_blob_square_scalar(self, m):
        rep = rho0(Rho0Config(2, m))
        observed = rep.e.mul(rep.e).ratio_to(rep.e)
        q_m = LaurentInt({2 * m: 1})
        # comes out as the negative of q^m - q^-m
        assert observed == CycloLaurent.from_laurent(
            q_m.unit_inverse() - q_m)

    def test_u_square_scalar_is_exact(self):
        rep = rho0(Rho0Config(3, 2))
        for i in (1, 2):
            u = rep.u[i]
            assert u.mul(u) == u.scalar_mul(CycloLaurent.from_laurent(DELTA))

    @pytest.mark.parametrize("n", [0, -1, -3])
    def test_size_below_one_rejected(self, n):
        with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
            Rho0Config(n, 1)

    def test_factors_commute(self):
        rep = rho0(Rho0Config(3, 1))
        for x, y in rep.u_factors.values():
            assert x.mul(y) == y.mul(x)


class TestJson:
    def test_laurent_roundtrip(self):
        mat = r_matrix(generator_u(1, 3))
        obj = matrix_to_json(mat)
        assert matrix_from_json(obj) == mat
        blob = json.dumps(obj, sort_keys=True)
        assert json.dumps(matrix_to_json(matrix_from_json(obj)),
                          sort_keys=True) == blob

    def test_cyclo_roundtrip(self):
        rep = rho0(Rho0Config(1, 2))
        obj = matrix_to_json(rep.e)
        assert obj["ring"] == "cyclo"
        assert matrix_from_json(obj) == rep.e


class TestMatrixJsonValidation:
    def good(self):
        return matrix_to_json(r_matrix(generator_u(1, 2)))

    @pytest.mark.parametrize("change", [
        {"rows_log2": -1}, {"cols_log2": -2}, {"rows_log2": 1.0},
        {"rows_log2": True}, {"rows_log2": "2"}, {"ring": "real"}, {"ring": None},
        {"entries": [[4, 0, {"0": 1}]]}, {"entries": [[0, 4, {"0": 1}]]},
        {"entries": [[-1, 0, {"0": 1}]]}, {"entries": [[0, 0]]},
        {"entries": [[0, 0, {"0": 1}], [0, 0, {"1": 1}]]},
        {"entries": [[True, 0, {"0": 1}]]}, {"entries": [[0, 0, {"0": 2.5}]]},
        {"entries": {"0": 1}},
    ])
    def test_malformed_is_value_error(self, change):
        obj = dict(self.good(), **change)
        with pytest.raises(ValueError):
            matrix_from_json(obj)

    @pytest.mark.parametrize("key", ["ring", "rows_log2", "cols_log2", "entries"])
    def test_missing_field_is_value_error(self, key):
        obj = self.good()
        del obj[key]
        with pytest.raises(ValueError):
            matrix_from_json(obj)

    def test_not_an_object(self):
        with pytest.raises(ValueError):
            matrix_from_json([1, 2])

    def test_huge_shape_is_not_materialised(self):
        obj = dict(self.good(), rows_log2=10 ** 9, entries=[[3, 0, {"0": 1}]])
        assert matrix_from_json(obj).rows_log2 == 10 ** 9

    json_values = st.one_of(st.integers(-3, 9), st.booleans(), st.none(),
                            st.floats(-2, 2), st.text(max_size=2))
    coeffs = st.one_of(
        st.dictionaries(st.text("-0123", max_size=3), json_values, max_size=2),
        st.dictionaries(st.text("-0123", max_size=3),
                        st.lists(st.integers(-3, 3), min_size=3, max_size=5), max_size=2),
        json_values)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["laurent", "cyclo", "other", None]),
           st.one_of(st.integers(-1, 3), json_values),
           st.one_of(st.integers(-1, 3), json_values),
           st.lists(st.one_of(
               st.lists(st.one_of(st.integers(-1, 8), coeffs), min_size=3, max_size=3),
               st.lists(st.integers(0, 3), max_size=4)), max_size=4))
    def test_fuzz_value_error_or_roundtrip(self, ring, rows, cols, entries):
        obj = {"ring": ring, "rows_log2": rows, "cols_log2": cols, "entries": entries}
        try:
            mat = matrix_from_json(obj)
        except ValueError:
            return
        again = matrix_from_json(json.loads(json.dumps(matrix_to_json(mat))))
        assert again == mat
        assert matrix_to_json(again) == matrix_to_json(mat)
