import copy
import functools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from tlblob.rings import (
    BlobParams,
    CycloInt,
    CycloLaurent,
    ExactDivisionError,
    LaurentInt,
    quantum_integer,
)
from tlblob.rank import (
    _evaluate_codes,
    _evaluate_rows,
    _rank_mod_p,
    _trial_points,
)
from tlblob.reference import (
    element_from_json,
    element_to_json,
    rank_exact,
    rank_modular,
)
from tlblob.rings import _code_element, _unit_code, dumps_canonical

X = LaurentInt.x_power(1)
Q = LaurentInt.x_power(2)


def fraction_rank(rows, x_values):
    """Independent rank oracle: dense Gaussian elimination over Q at sample
    points.  Specialization can only lose rank, so the max is a lower bound.
    """
    best = 0
    keys = sorted({k for r in rows for k in r})
    for x0 in x_values:
        dense = [[Fraction(r[k].evaluate(x0)) if k in r else Fraction(0)
                  for k in keys] for r in rows]
        rank = 0
        for col in range(len(keys)):
            piv = next((i for i in range(rank, len(dense)) if dense[i][col]), None)
            if piv is None:
                continue
            dense[rank], dense[piv] = dense[piv], dense[rank]
            inv = 1 / dense[rank][col]
            dense[rank] = [v * inv for v in dense[rank]]
            for i in range(len(dense)):
                if i != rank and dense[i][col]:
                    f = dense[i][col]
                    dense[i] = [a - f * b for a, b in zip(dense[i], dense[rank])]
            rank += 1
        best = max(best, rank)
    return best


class TestQuantumInteger:
    def test_zero_is_empty_sum(self):
        assert quantum_integer(0) == LaurentInt.zero()

    def test_two(self):
        assert quantum_integer(2) == Q + Q.unit_inverse()

    def test_three_expanded_by_hand(self):
        assert quantum_integer(3) == LaurentInt({4: 1, 0: 1, -4: 1})

    def test_negative_mirror(self):
        for n in range(1, 7):
            assert quantum_integer(-n) == -quantum_integer(n)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_classical_specialization(self, n):
        assert quantum_integer(n).evaluate(1) == n

    def test_evaluate_is_an_exact_fraction(self):
        value = LaurentInt({1: 1, -1: 1}).evaluate(2)
        assert type(value) is Fraction and value == Fraction(5, 2)


class TestLaurentArithmetic:
    def test_x_times_inverse_is_one(self):
        assert X * LaurentInt.x_power(-1) == LaurentInt.one()

    def test_delta_squared(self):
        delta = quantum_integer(2)
        assert delta * delta == LaurentInt({4: 1, 0: 2, -4: 1})

    def test_ring_axioms_random(self):
        rng = random.Random(11)

        def rand():
            return LaurentInt({rng.randrange(-4, 5): rng.randrange(-3, 4)
                               for _ in range(3)})

        for _ in range(200):
            a, b, c = rand(), rand(), rand()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_pow(self):
        assert (X + 1) ** 0 == LaurentInt.one()
        assert (X + 1) ** 2 == X * X + 2 * X + 1

    def test_divexact_roundtrip_random(self):
        rng = random.Random(5)
        for _ in range(60):
            f = LaurentInt({rng.randrange(-3, 4): rng.randrange(-5, 6)
                            for _ in range(3)})
            g = LaurentInt({rng.randrange(-3, 4): rng.randrange(-5, 6)
                            for _ in range(2)})
            if not f or not g:
                continue
            assert (f * g).divexact(g) == f

    def test_divexact_rejects_remainder(self):
        with pytest.raises(ExactDivisionError):
            (X + 1).divexact(X + 2)

    @pytest.mark.parametrize("coeff", [True, False])
    def test_bool_coefficient_rejected(self, coeff):
        with pytest.raises(TypeError):
            LaurentInt({1: coeff})

    def test_json_roundtrip(self):
        p = LaurentInt({3: -2, 0: 7, -5: 1})
        blob = json.dumps(element_to_json(p), sort_keys=True)
        assert element_from_json(json.loads(blob)) == p
        assert json.dumps(element_to_json(element_from_json(json.loads(blob))),
                          sort_keys=True) == blob


class TestCyclotomic:
    def test_a_fourth_is_minus_one(self):
        a = CycloInt.a_power(1)
        assert a * a * a * a == CycloInt(-1)

    def test_a_squared_plus_inverse_square_vanishes(self):
        assert CycloInt.a_power(2) + CycloInt.a_power(-2) == CycloInt(0)

    def test_inverse_of_a(self):
        assert CycloInt.a_power(-1) == -CycloInt.a_power(3)
        assert CycloInt.a_power(1) * CycloInt.a_power(-1) == CycloInt(1)

    def test_embedding_is_a_ring_map(self):
        rng = random.Random(3)
        for _ in range(50):
            f = LaurentInt({rng.randrange(-3, 4): rng.randrange(-4, 5)})
            g = LaurentInt({rng.randrange(-3, 4): rng.randrange(-4, 5)})
            lift = CycloLaurent.from_laurent
            assert lift(f * g) == lift(f) * lift(g)
            assert lift(f + g) == lift(f) + lift(g)

    def test_ring_axioms_random(self):
        rng = random.Random(17)

        def rand():
            return CycloLaurent({
                rng.randrange(-3, 4): CycloInt(*[rng.randrange(-2, 3)
                                                 for _ in range(4)])
                for _ in range(2)})

        for _ in range(150):
            a, b, c = rand(), rand(), rand()
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_norm_positive(self):
        rng = random.Random(23)
        for _ in range(40):
            d = CycloInt(*[rng.randrange(-4, 5) for _ in range(4)])
            if d:
                assert d.norm() > 0

    def test_divexact_roundtrip_random(self):
        rng = random.Random(29)
        for _ in range(40):
            f = CycloLaurent({rng.randrange(-2, 3):
                              CycloInt(*[rng.randrange(-3, 4) for _ in range(4)])
                              for _ in range(2)})
            g = CycloLaurent({rng.randrange(-2, 3):
                              CycloInt(*[rng.randrange(-3, 4) for _ in range(4)])})
            if not f or not g:
                continue
            assert (f * g).divexact(g) == f

    def test_unit_inverse(self):
        u = CycloLaurent.a_power(3, x_exp=-2)
        assert u * u.unit_inverse() == CycloLaurent.one()

    def test_json_roundtrip(self):
        v = CycloLaurent({2: CycloInt(1, 0, -3, 0), -1: CycloInt.a_power(3)})
        assert element_from_json(element_to_json(v)) == v


class TestBlobParams:
    def test_integral_form(self):
        p = BlobParams.integral_form(2)
        assert p.gamma == LaurentInt({2: 1, -2: -1})
        assert p.delta_e == LaurentInt({4: 1, -4: -1})
        assert p.delta == quantum_integer(2)

    def test_gamma_vanishes_at_m_one(self):
        assert not BlobParams.integral_form(1).gamma

    def test_scalar_assembly(self):
        p = BlobParams.integral_form(2)
        assert p.composition_scalar(0, 0, 0) == LaurentInt.one()
        assert p.composition_scalar(2, 0, 1) == p.delta * p.delta * p.delta_e


class TestRank:
    def test_empty(self):
        assert rank_exact([]) == 0
        assert rank_exact([{}]) == 0

    def test_scalar_multiple(self):
        v = {0: X, 3: LaurentInt.one()}
        w = {0: 2 * X, 3: LaurentInt.from_int(2)}
        assert rank_exact([v, w]) == 1
        assert rank_modular([v, w], trials=3, seed=1) == 1

    def test_against_fraction_oracle(self):
        from tlblob.reference import enumerate_tl
        from tlblob.tensorrep import r_matrix

        rows = [r_matrix(d).flatten() for d in enumerate_tl(3, 3)]
        exact = rank_exact(rows)
        oracle = fraction_rank(rows, [Fraction(7, 3), Fraction(2), Fraction(-3, 5)])
        assert oracle <= exact
        assert exact == oracle == 5

    def test_random_against_fraction_oracle(self):
        rng = random.Random(41)
        for _ in range(10):
            rows = []
            for _ in range(5):
                rows.append({k: LaurentInt({rng.randrange(-2, 3):
                                            rng.randrange(-2, 3)})
                             for k in rng.sample(range(8), 4)})
            exact = rank_exact(rows)
            oracle = fraction_rank(rows, [Fraction(7, 3), Fraction(11, 2)])
            assert oracle <= exact
            # generic sample points: equality expected every time here
            assert oracle == exact

    def test_modular_monotone_in_trials(self):
        from tlblob.reference import enumerate_tl
        from tlblob.tensorrep import r_matrix

        rows = [r_matrix(d).flatten() for d in enumerate_tl(3, 3)]
        r1 = rank_modular(rows, trials=1, seed=9)
        r5 = rank_modular(rows, trials=5, seed=9)
        assert r1 <= r5 <= rank_exact(rows)
        assert r5 == 5

    def test_cyclo_rank(self):
        a = CycloLaurent.a_power(1)
        one = CycloLaurent.one()
        rows = [{0: one, 1: a}, {0: a, 1: a * a}, {1: one}]
        # second row = a * first row, third independent
        assert rank_exact(rows) == 2
        assert rank_modular(rows, trials=4, seed=2) == 2

    def test_rank_invariant_under_row_scaling(self):
        from tlblob.reference import enumerate_tl
        from tlblob.tensorrep import r_matrix

        rows = [r_matrix(d).flatten() for d in enumerate_tl(3, 3)]
        scaled = [
            {k: v * LaurentInt.x_power(3 * i - 4) for k, v in row.items()}
            for i, row in enumerate(rows)
        ]
        assert rank_exact(scaled) == rank_exact(rows) == 5


P = 998244353  # the modular witness prime
# a root of a^4 + 1 mod P: 3 generates F_P^*, so 3^((P-1)/8) has order 8
A8 = pow(3, (P - 1) // 8, P)

exponents = st.integers(min_value=-6, max_value=6)
laurents = st.dictionaries(exponents, st.integers(-50, 50), max_size=5).map(LaurentInt)
cyclos = st.dictionaries(
    exponents,
    st.tuples(*[st.integers(-20, 20)] * 4).map(CycloInt.from_tuple),
    max_size=4,
).map(CycloLaurent)
# x ranges over the units mod P; a over the four roots of a^4 + 1
points = st.tuples(st.integers(1, P - 1), st.sampled_from([1, 3, 5, 7]).map(
    lambda k: pow(A8, k, P)))


class TestEvaluateModIsHomomorphism:
    """x -> x0, a -> a0 (a0^4 = -1) is a ring map to F_p; witnesses rest on it."""

    def test_root(self):
        assert pow(A8, 4, P) == P - 1

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.tuples(laurents, laurents), st.tuples(cyclos, cyclos)), points)
    def test_add_and_mul(self, pair, point):
        f, g = pair
        x0, a0 = point

        def ev(u):
            return u.evaluate_mod(x0, a0, P)

        assert ev(f + g) == (ev(f) + ev(g)) % P
        assert ev(f * g) == ev(f) * ev(g) % P
        assert ev(-f) == -ev(f) % P
        assert ev(type(f).one()) == 1

    @settings(max_examples=30, deadline=None)
    @given(laurents, points)
    def test_cyclo_injection_commutes(self, f, point):
        x0, a0 = point
        assert CycloLaurent.from_laurent(f).evaluate_mod(x0, a0, P) == \
            f.evaluate_mod(x0, a0, P)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.dictionaries(st.integers(0, 5), st.one_of(laurents, cyclos),
                                    max_size=5), max_size=4),
           points, st.booleans())
    def test_evaluate_rows_table_matches_evaluate_mod(self, vectors, point, some_cols):
        x0, a0 = point
        cols = [5, 0, 3, 9] if some_cols else None
        rows = _evaluate_rows(vectors, x0, a0, P, cols)
        assert len(rows) == len(vectors)
        for v, row in zip(vectors, rows):
            keys = v if cols is None else [c for c in cols if c in v]
            expected = {k: v[k].evaluate_mod(x0, a0, P) for k in keys}
            assert row == {k: r for k, r in expected.items() if r}


unit_codes = st.builds(lambda e, k, minus: (8 * e + k) << 1 | minus,
                       st.integers(-4, 4), st.integers(0, 3), st.integers(0, 1))


def eager_rank_mod_p(int_rows, p):
    """Eager Gaussian elimination mod p, the reference for ``_rank_mod_p``.

    Each popped row is normalized and its leading column cleared from every
    remaining row, so the remaining rows fill in.
    """
    rows = [dict(r) for r in int_rows if any(v % p for v in r.values())]
    pivots = []
    while rows:
        row = rows.pop()
        row = {k: v % p for k, v in row.items() if v % p}
        if not row:
            continue
        col = min(row)
        inv = pow(row[col], p - 2, p)
        row = {k: (v * inv) % p for k, v in row.items()}
        pivots.append(col)
        for other in rows:
            f = other.get(col)
            if f:
                for k, v in row.items():
                    other[k] = (other.get(k, 0) - f * v) % p
                other.pop(col, None)
    return pivots


@st.composite
def int_row_families(draw):
    """(p, rows): sparse int rows with zero residues, negative entries,
    int or tuple keys, and dependent or duplicate rows, shuffled."""
    p = draw(st.sampled_from([2, 3, 7, P]))
    keys = draw(st.sampled_from([st.integers(0, 7),
                                 st.tuples(st.integers(0, 2), st.integers(0, 2))]))
    values = st.one_of(st.integers(-30, 30), st.integers(-2, 2).map(lambda k: k * p))
    rows = draw(st.lists(st.dictionaries(keys, values, max_size=6), max_size=6))
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
        c, d = (draw(st.integers(-3, 3)) for _ in range(2))
        rows.append({k: c * rows[i].get(k, 0) + d * rows[j].get(k, 0)
                     for k in rows[i].keys() | rows[j].keys()})
    return p, draw(st.permutations(rows))


@functools.lru_cache(maxsize=None)
def family_vectors(n, m=None):
    """Coded word-matrix vectors: TL walk pairs, or rho0(n, m) basis words."""
    from tlblob import faithful, reference
    from tlblob.tensorrep import Rho0Config, rho0
    from tlblob.words import blob_basis_words

    if m is None:
        return reference._pair_word_vectors(n)[2]
    images = rho0(Rho0Config(n, m)).letter_images()
    return faithful._word_vectors(blob_basis_words(n).values(), images, 2 * n, "cyclo")


class TestEchelonRank:
    """``_rank_mod_p`` names the pivot set of eager elimination."""

    @settings(max_examples=300, deadline=None)
    @given(int_row_families())
    def test_matches_eager_elimination(self, family):
        p, rows = family
        before = copy.deepcopy(rows)
        pivots = _rank_mod_p(rows, p)
        assert rows == before
        assert len(set(pivots)) == len(pivots)
        assert sorted(pivots) == sorted(eager_rank_mod_p(rows, p))

    def test_reduces_to_later_columns(self):
        rows = [{0: 1, 1: 2, 2: 3}, {0: 3, 1: 6, 2: 1}, {0: 5, 1: 4, 2: 1}]
        assert sorted(_rank_mod_p(rows, 7)) == [0, 1, 2]
        rows[2] = {0: 4, 1: 1, 2: 4}  # rows[0] + rows[1] mod 7
        assert sorted(_rank_mod_p(rows, 7)) == [0, 2]

    @pytest.mark.parametrize("seed", [7, 11])
    @pytest.mark.parametrize("family", [(n,) for n in range(1, 8)] +
                             [(n, m) for n in range(1, 6) for m in (1, 2, 3)],
                             ids=lambda f: "-".join(map(str, f)))
    def test_word_matrices_match_eager_elimination(self, family, seed):
        vectors = family_vectors(*family)
        (x0, a0), = _trial_points(1, seed, P)
        rows = _evaluate_codes(vectors, x0, a0, P)
        pivots = _rank_mod_p(rows, P)
        assert len(pivots) == len(vectors)
        assert sorted(pivots) == sorted(eager_rank_mod_p(rows, P))


class TestUnitCodes:
    """A code (8e + k) << 1 | sign stands for +-a^k x^e."""

    @settings(max_examples=60, deadline=None)
    @given(unit_codes)
    def test_roundtrip(self, code):
        elem = _code_element(code)
        key = code >> 1
        assert elem == (-1 if code & 1 else 1) * CycloLaurent.a_power(key & 7, key >> 3)
        assert _unit_code(elem) == code
        assert type(elem) is (CycloLaurent if key & 7 else LaurentInt)

    @pytest.mark.parametrize("elem", [LaurentInt.zero(), quantum_integer(2), 2 * X,
                                      CycloInt(0, 3), CycloInt(1, 1)])
    def test_non_units_have_no_code(self, elem):
        assert _unit_code(elem) is None

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.dictionaries(st.integers(0, 5), unit_codes, max_size=5),
                    max_size=4), points, st.booleans())
    def test_evaluate_codes_matches_evaluate_rows(self, vectors, point, some_cols):
        x0, a0 = point
        cols = [5, 0, 3, 9] if some_cols else None
        elements = [{k: _code_element(c) for k, c in v.items()} for v in vectors]
        assert _evaluate_codes(vectors, x0, a0, P, cols) == \
            _evaluate_rows(elements, x0, a0, P, cols)

    def test_rank_exact_decodes(self):
        codes = [{0: 0, 1: 16}, {0: 3, 1: 19}, {1: 2}]  # [1, x], [-a, -a x], [0, a]
        elements = [{k: _code_element(c) for k, c in v.items()} for v in codes]
        assert rank_exact(codes) == rank_exact(elements) == 2


class TestBoolCoefficients:
    @pytest.mark.parametrize("args", [(True,), (0, False), (1, 0, 0, True)])
    def test_cyclo_int_rejects_bool(self, args):
        with pytest.raises(TypeError):
            CycloInt(*args)

    def test_from_tuple_rejects_bool_and_wrong_length(self):
        with pytest.raises(TypeError):
            CycloInt.from_tuple((True, 0, 0, 0))
        with pytest.raises(ValueError):
            CycloInt.from_tuple((1, 0, 0))
        with pytest.raises(ValueError):
            CycloInt.from_tuple((1, 0, 0, 0, 0))

    @pytest.mark.parametrize("coeff", [True, False])
    def test_cyclo_laurent_rejects_bool(self, coeff):
        with pytest.raises(TypeError):
            CycloLaurent({0: coeff})

    def test_json_of_a_constant_holds_ints(self):
        value = CycloLaurent({0: CycloInt(1, 0, -2, 0)})
        coeffs = element_to_json(value)["coeffs"]
        assert coeffs == {"0": [1, 0, -2, 0]}
        assert all(type(c) is int for c in coeffs["0"])


class TestIntExponentKeys:
    @pytest.mark.parametrize("cls", [LaurentInt, CycloLaurent])
    @pytest.mark.parametrize("key", [1.5, 2.0, "2", True, False, None, (1,)])
    def test_non_int_key_rejected(self, cls, key):
        with pytest.raises(TypeError):
            cls({key: 1})

    @pytest.mark.parametrize("cls", [LaurentInt, CycloLaurent])
    @pytest.mark.parametrize("e", [1.5, "2", True])
    def test_x_power_rejects_non_int_exponent(self, cls, e):
        with pytest.raises(TypeError):
            cls.x_power(e)

    def test_int_keys_unchanged(self):
        assert LaurentInt({-3: 2, 0: 1, 5: 0}) == \
            LaurentInt.x_power(-3, 2) + LaurentInt.one()
        assert CycloLaurent({2: CycloInt(0, 1), -1: 3}) == \
            CycloLaurent.a_power(1, 2) + CycloLaurent.x_power(-1, 3)


class TestStrictElementJson:
    @pytest.mark.parametrize("obj", [
        {"0": 2.7}, {"0": 2.0}, {"0": "3"}, {"0": True}, {"0": None}, {"0": [1]},
        {"x": 1}, {"03": 1}, {"+3": 1}, {" 3": 1}, {"": 1}, {0: 1}, [], "0", None,
    ])
    def test_laurent_rejects(self, obj):
        with pytest.raises(ValueError):
            element_from_json({"ring": "laurent", "coeffs": obj})

    @pytest.mark.parametrize("payload", [
        [1, 2, 3], [1, 2, 3, 4, 5], [], [1, 0, 0, 0.5], [1, 0, 0, "1"],
        [1, True, 0, 0], 3, {"0": 1}, None,
    ])
    def test_cyclo_rejects(self, payload):
        with pytest.raises(ValueError):
            element_from_json({"ring": "cyclo", "coeffs": {"1": payload}})

    @pytest.mark.parametrize("obj", [
        {"coeffs": {}}, {"ring": "laurent"}, {"ring": "real", "coeffs": {}},
        {"ring": ["cyclo"], "coeffs": {}}, [], None,
    ])
    def test_tagged_element_rejects(self, obj):
        with pytest.raises(ValueError):
            element_from_json(obj)

    def test_zero_coefficients_are_dropped(self):
        assert element_from_json({"ring": "laurent", "coeffs": {"1": 0, "-2": 4}}) \
            == LaurentInt({-2: 4})
        assert element_from_json({"ring": "cyclo", "coeffs": {"1": [0, 0, 0, 0]}}) \
            == CycloLaurent()

    @pytest.mark.parametrize("value", [
        LaurentInt({3: -2, 0: 7, -5: 1}),
        CycloLaurent({2: CycloInt(1, 0, -3, 0), -1: CycloInt.a_power(3)}),
    ])
    def test_tagged_roundtrip(self, value):
        obj = json.loads(json.dumps(element_to_json(value)))
        assert obj["ring"] == value.ring
        again = element_from_json(obj)
        assert again == value and type(again) is type(value)


# Strings from all of Unicode: controls, '"', '\\', DEL, lone surrogates
# and characters outside the BMP.
json_text = st.text(st.characters(blacklist_categories=()))
json_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | json_text,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=12)


class TestCanonicalJson:
    """dumps_canonical writes what json.dumps writes, without json."""

    @settings(max_examples=400, deadline=None)
    @given(json_payloads)
    @example({'"\\\x7f\x00\x1f\u2028\ud800\U0001f600': ["\b\f\n\r\t", (1, -2)],
              "": [True, False, None, 10 ** 30]})
    def test_matches_json_dumps(self, obj):
        assert dumps_canonical(obj) == \
            json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("obj", [
        1.5, 0.0, {"x": [float("nan")]}, {1, 2}, frozenset(), b"x",
        bytearray(b"x"), {1: "one"}, {None: 0}, {("a",): 0}, {"a": {2.0: 0}},
    ])
    def test_other_types_raise(self, obj):
        with pytest.raises(TypeError):
            dumps_canonical(obj)
