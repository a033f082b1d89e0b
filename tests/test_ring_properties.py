"""Property tests for Z[x, x^-1] and Z[a, x, x^-1]/(a^4 + 1), alone and mixed.

Multiplication is cross-checked against sympy, an implementation that shares
nothing with ``tlblob.rings``.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import Integer, expand, rem, symbols

from tlblob.reference import element_from_json, element_to_json
from tlblob.rings import CycloInt, CycloLaurent, ExactDivisionError, LaurentInt

SX, SA = symbols("x a")

exponents = st.integers(min_value=-5, max_value=5)
laurents = st.dictionaries(exponents, st.integers(-30, 30), max_size=4).map(LaurentInt)
cyclo_constants = st.tuples(*[st.integers(-5, 5)] * 4).map(CycloInt.from_tuple)
cyclos = st.dictionaries(exponents, cyclo_constants, max_size=3).map(CycloLaurent)
elements = st.one_of(laurents, cyclos)
signs = st.sampled_from([1, -1])
laurent_units = st.builds(LaurentInt.x_power, exponents, signs)
cyclo_units = st.builds(lambda k, e, s: CycloLaurent.a_power(k, e) * s,
                        st.integers(-9, 9), exponents, signs)
units = st.one_of(laurent_units, cyclo_units)


def is_cyclo(u):
    return isinstance(u, CycloLaurent)


def to_sympy(u):
    """The element as a sympy expression, read through its JSON payload."""
    total = Integer(0)
    for e, payload in element_to_json(u)["coeffs"].items():
        parts = payload if is_cyclo(u) else [payload]
        total += sum(c * SA ** k for k, c in enumerate(parts)) * SX ** int(e)
    return total


class TestRingAxioms:
    @settings(max_examples=150, deadline=None)
    @given(elements, elements, elements)
    def test_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f - g == f + (-g)
        assert not (f - f)
        assert f + 0 == 0 + f == f
        assert f * 1 == 1 * f == f == f * type(f).one()
        assert not f * 0 and not f * type(f).zero()

    @settings(max_examples=60, deadline=None)
    @given(elements, elements)
    def test_mixed_operands_land_in_the_cyclotomic_ring(self, f, g):
        ring = CycloLaurent if is_cyclo(f) or is_cyclo(g) else LaurentInt
        for value in (f + g, f - g, f * g):
            assert isinstance(value, ring)

    @settings(max_examples=40, deadline=None)
    @given(elements, st.integers(0, 4))
    def test_pow_is_repeated_product(self, f, k):
        expected = type(f).one()
        for _ in range(k):
            expected = expected * f
        assert f ** k == expected

    @settings(max_examples=60, deadline=None)
    @given(laurents, laurents)
    def test_from_laurent_is_a_ring_map(self, f, g):
        lift = CycloLaurent.from_laurent
        assert isinstance(lift(f), CycloLaurent)
        assert lift(f + g) == lift(f) + lift(g)
        assert lift(f * g) == lift(f) * lift(g)
        assert lift(-f) == -lift(f)
        assert lift(LaurentInt.one()) == CycloLaurent.one()
        assert lift(f) == f


class TestAgainstSympy:
    @settings(max_examples=40, deadline=None)
    @given(elements, elements)
    def test_mul(self, f, g):
        expected = rem(expand(to_sympy(f) * to_sympy(g)), SA ** 4 + 1, SA)
        assert expand(expected - to_sympy(f * g)) == 0

    @settings(max_examples=40, deadline=None)
    @given(elements, elements)
    def test_add(self, f, g):
        assert expand(to_sympy(f) + to_sympy(g) - to_sympy(f + g)) == 0


def convolve(f, g):
    """The terms of f * g by the double loop over packed keys 8e + k."""
    out = {}
    for k1, c1 in f.terms.items():
        for k2, c2 in g.terms.items():
            e, k = (k1 >> 3) + (k2 >> 3), (k1 & 7) + (k2 & 7)
            key, c = (8 * e + k - 4, -c1 * c2) if k >= 4 else (8 * e + k, c1 * c2)
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def product_class(f, g):
    if type(f) is type(g):
        return type(f)
    return CycloLaurent if is_cyclo(f) or is_cyclo(g) else LaurentInt


coefficients = st.one_of(signs, st.integers(-7, 7).filter(bool))
a_parts = st.integers(0, 3)
one_terms = st.one_of(
    st.builds(lambda e, c: LaurentInt({e: c}), exponents, coefficients),
    st.builds(lambda k, e, c: element_from_json(
        {"ring": "cyclo", "coeffs": {str(e): [c * (i == k) for i in range(4)]}}),
              a_parts, exponents, coefficients),
    st.builds(lambda k, c: CycloInt(*[c * (i == k) for i in range(4)]), a_parts, coefficients),
)


class TestOneTermProducts:
    """A one-term operand shifts the other's keys; it must agree with convolution."""

    @settings(max_examples=150, deadline=None)
    @given(one_terms, st.one_of(elements, one_terms, cyclo_constants))
    def test_either_side_matches_convolution(self, m, f):
        assert len(m.terms) == 1
        expected = convolve(f, m)
        for product in (m * f, f * m):
            assert product.terms == expected
            assert type(product) is product_class(m, f)

    @settings(max_examples=60, deadline=None)
    @given(one_terms, st.integers(-9, 9))
    def test_int_operand(self, m, k):
        expected = convolve(m, LaurentInt.from_int(k))
        assert (m * k).terms == (k * m).terms == expected
        assert type(m * k) is type(k * m) is type(m)

    def test_fold_past_a_cubed(self):
        a3 = CycloLaurent.a_power(3, -2)
        f = element_from_json({"ring": "cyclo", "coeffs": {"1": [1, 2, 3, 4]}})
        assert element_to_json(a3 * f)["coeffs"] == {"-1": [-2, -3, -4, 1]}
        assert (f * a3).terms == convolve(f, a3)


class TestDivision:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.tuples(laurents, laurents), st.tuples(cyclos, cyclos)))
    def test_divexact_undoes_mul(self, pair):
        f, g = pair
        assume(g)
        assert (f * g).divexact(g) == f

    @settings(max_examples=60, deadline=None)
    @given(cyclos, cyclos)
    def test_divexact_by_cyclotomic_non_monomial(self, f, g):
        assume(g and not g.is_unit_monomial())
        assert (f * g).divexact(g) == f

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.tuples(laurents, laurents), st.tuples(cyclos, cyclos)))
    def test_divexact_is_exact_or_raises(self, pair):
        f, g = pair
        assume(g)
        try:
            q = f.divexact(g)
        except ExactDivisionError:
            return
        assert q * g == f

    @settings(max_examples=60, deadline=None)
    @given(units)
    def test_unit_inverse(self, u):
        assert u.is_unit_monomial()
        assert u * u.unit_inverse() == 1
        assert type(u.unit_inverse()) is type(u)

    def test_unit_inverse_of_non_unit_raises(self):
        with pytest.raises(ExactDivisionError):
            (LaurentInt.x_power(1) + 1).unit_inverse()
        with pytest.raises(ExactDivisionError):
            CycloLaurent({0: CycloInt(1, 1)}).unit_inverse()

    @pytest.mark.parametrize("zero", [LaurentInt(), CycloLaurent()])
    def test_divexact_by_zero_raises(self, zero):
        with pytest.raises(ExactDivisionError):
            LaurentInt.one().divexact(zero)


class TestEqualityAndHash:
    @settings(max_examples=100, deadline=None)
    @given(laurents)
    def test_equal_elements_hash_equal_across_rings(self, f):
        lifted = CycloLaurent.from_laurent(f)
        assert lifted == f
        assert hash(lifted) == hash(f)
        assert len({f, lifted}) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-50, 50))
    def test_constants_hash_like_ints(self, c):
        for u in (LaurentInt.from_int(c), CycloLaurent.from_int(c), CycloInt(c)):
            assert u == c
            assert hash(u) == hash(c)

    @settings(max_examples=60, deadline=None)
    @given(elements, elements)
    def test_equality_implies_equal_hash(self, f, g):
        if f == g:
            assert hash(f) == hash(g)
