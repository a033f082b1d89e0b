import itertools
import json
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import tlblob.diagrams as diagrams_module
from tlblob.diagrams import (
    BlobPairing,
    Pairing,
    blob_e,
    compose_blob,
    compose_tl,
    exposed_lines,
    generator_u,
    identity,
)
from tlblob.reference import (
    _trace_concatenation,
    cut,
    diagram_from_json,
    diagram_to_json,
    enumerate_blob,
    enumerate_tl,
    propagating_number,
    reflect,
)
from tlblob.rings import BlobParams, LaurentInt


def discard_counts(res):
    return (res.plain_loops, res.blob_loops, res.blob_merges)


def reference_trace(top, bottom):
    """The side-tagged chain walk that composition used before the integer
    walk, kept as an independent reference: (result_pairs,
    open_chain_blobs, loop_blob_counts) of the concatenation."""
    tb = top if isinstance(top, BlobPairing) else BlobPairing(top)
    bb = bottom if isinstance(bottom, BlobPairing) else BlobPairing(bottom)
    t, b = tb.base, bb.base
    if t.m != b.n:
        raise ValueError(f"inner boundary mismatch: {t.m} vs {b.n}")
    t_match, b_match = t.match, b.match

    def step(side, node):
        if side == "t":
            other = t_match[node]
            return other, int(tuple(sorted((node, other))) in tb.blobbed)
        other = b_match[node]
        return other, int(tuple(sorted((node, other))) in bb.blobbed)

    def boundary_id(side, node):
        if side == "t" and node < t.n:
            return node
        if side == "b" and node >= b.n:
            return t.n + (node - b.n)
        return None

    def hop(side, other):
        # Across the junction: top southern t.n+j <-> bottom northern j.
        visited.add((side, other))
        return ("b", other - t.n) if side == "t" else ("t", other + t.n)

    visited = set()
    result_pairs = []
    open_chain_blobs = {}
    starts = [("t", i) for i in range(t.n)] + [("b", b.n + j) for j in range(b.m)]
    for side, node in starts:
        if (side, node) in visited:
            continue
        visited.add((side, node))
        blobs = 0
        cur_side, cur = side, node
        while True:
            other, blob = step(cur_side, cur)
            blobs += blob
            endpoint = boundary_id(cur_side, other)
            if endpoint is not None:
                visited.add((cur_side, other))
                pair = tuple(sorted((boundary_id(side, node), endpoint)))
                result_pairs.append(pair)
                open_chain_blobs[pair] = blobs
                break
            cur_side, cur = hop(cur_side, other)
            visited.add((cur_side, cur))
    loop_blob_counts = []
    for j in range(t.m):
        if ("t", t.n + j) in visited:
            continue
        blobs = 0
        cur_side, cur = "t", t.n + j
        start = (cur_side, cur)
        while True:
            visited.add((cur_side, cur))
            other, blob = step(cur_side, cur)
            blobs += blob
            cur_side, cur = hop(cur_side, other)
            if (cur_side, cur) == start:
                break
        loop_blob_counts.append(blobs)
    return result_pairs, open_chain_blobs, loop_blob_counts


def brute_force_planar_count(n, m):
    """Independent matcher: every perfect matching, filtered by a crossing
    scan in the circular boundary order."""
    total = n + m
    if total % 2:
        return 0

    def all_matchings(points):
        if not points:
            yield []
            return
        first, rest = points[0], points[1:]
        for i, second in enumerate(rest):
            for sub in all_matchings(rest[:i] + rest[i + 1:]):
                yield [(first, second)] + sub

    count = 0
    for match in all_matchings(list(range(total))):
        crossing = any(
            a < c < b < d or c < a < d < b
            for (a, b), (c, d) in itertools.combinations(match, 2)
        )
        if not crossing:
            count += 1
    return count


class TestConstruction:
    def test_crossing_rejected(self):
        # (t1,b2) and (t2,b1) cross inside the frame
        with pytest.raises(ValueError):
            Pairing(2, 2, ((0, 3), (1, 2)))

    def test_incomplete_rejected(self):
        with pytest.raises(ValueError):
            Pairing(2, 2, ((0, 1),))

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            Pairing(2, 1, ((0, 1), (2, 2)))

    def test_equality_is_partition_equality(self):
        d1 = Pairing(2, 2, ((0, 1), (2, 3)))
        d2 = Pairing(2, 2, ((3, 2), (1, 0)))
        assert d1 == d2 and hash(d1) == hash(d2)


class TestGenerators:
    def test_u1_at_n2(self):
        assert generator_u(1, 2).pairs == ((0, 1), (2, 3))

    def test_identity_reflects_to_itself(self):
        for n in range(1, 6):
            assert reflect(identity(n)) == identity(n)

    def test_reflect_swaps_generators(self):
        assert reflect(generator_u(1, 3)) == generator_u(2, 3)

    def test_reflect_involution(self):
        for d in enumerate_tl(4, 4):
            assert reflect(reflect(d)) == d

    def test_shifted_indexing(self):
        # Shifted index 0 on 2k strands is the middle generator.
        assert generator_u(0, 4, "shifted") == generator_u(2, 4)
        assert generator_u(-1, 4, "shifted") == generator_u(1, 4)
        assert generator_u(1, 4, "shifted") == generator_u(3, 4)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            generator_u(0, 3)
        with pytest.raises(ValueError):
            generator_u(3, 3)
        with pytest.raises(ValueError):
            generator_u(2, 4, "shifted")


class TestComposition:
    def test_cupcap_squared_drops_a_loop(self):
        u = generator_u(1, 2)
        res = compose_tl(u, u)
        assert res.diagram == u
        assert res.plain_loops == 1

    def test_identity_neutral(self):
        for n in range(5):
            for d in enumerate_tl(n, n):
                left = compose_tl(identity(n), d)
                right = compose_tl(d, identity(n))
                assert left.diagram == right.diagram == d
                assert left.plain_loops == right.plain_loops == 0

    def test_u1_after_u2_traced_by_hand(self):
        res = compose_tl(generator_u(1, 3), generator_u(2, 3))
        assert res.diagram == Pairing(3, 3, ((0, 1), (2, 3), (4, 5)))
        assert res.plain_loops == 0

    def test_rectangular_shapes(self):
        up, down = cut(generator_u(1, 3))
        res = compose_tl(up, down)
        assert res.diagram == generator_u(1, 3)

    def test_mismatch_raises(self):
        with pytest.raises(ValueError):
            compose_tl(identity(2), identity(3))

    def test_associative_with_additive_loops(self):
        # The generator-step proofs in ``faithful`` rest on this fact.
        for n in range(5):
            for d1, d2, d3 in itertools.product(enumerate_tl(n, n), repeat=3):
                r12 = compose_tl(d1, d2)
                left = compose_tl(r12.diagram, d3)
                r23 = compose_tl(d2, d3)
                right = compose_tl(d1, r23.diagram)
                assert left.diagram == right.diagram
                assert r12.plain_loops + left.plain_loops == \
                    r23.plain_loops + right.plain_loops

    def test_propagating_number_submultiplicative(self):
        diagrams = enumerate_tl(4, 4)
        for d1, d2 in itertools.product(diagrams, repeat=2):
            ha = propagating_number(compose_tl(d1, d2).diagram)
            assert ha <= min(propagating_number(d1), propagating_number(d2))


class TestPropagatingAndCut:
    def test_identity_fully_propagating(self):
        for n in range(1, 6):
            assert propagating_number(identity(n)) == n

    def test_cupcap_counts(self):
        assert propagating_number(generator_u(1, 2)) == 0
        assert propagating_number(generator_u(1, 3)) == 1

    def test_cut_identity(self):
        up, down = cut(identity(3))
        assert up == identity(3) and down == identity(3)

    def test_cut_u1_n3_is_forced(self):
        up, down = cut(generator_u(1, 3))
        assert (up.n, up.m) == (3, 1) and (down.n, down.m) == (1, 3)
        res = compose_tl(up, down)
        assert res.diagram == generator_u(1, 3) and res.plain_loops == 0
        # the loop-free decomposition is the unique one among all candidates
        candidates = [
            (u, d)
            for u in enumerate_tl(3, 1)
            for d in enumerate_tl(1, 3)
            if compose_tl(u, d) == compose_tl(up, down)
        ]
        assert candidates == [(up, down)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cut_recomposes_loop_free(self, n):
        for d in enumerate_tl(n, n):
            up, down = cut(d)
            assert up.m == down.n == propagating_number(d)
            res = compose_tl(up, down)
            assert res.diagram == d and res.plain_loops == 0


class TestEnumeration:
    def test_small_counts(self):
        assert len(enumerate_tl(2, 2)) == 2
        assert len(enumerate_tl(3, 3)) == 5

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5),
                                     (2, 4), (1, 3), (0, 4), (4, 2), (6, 6)])
    def test_against_brute_force_matcher(self, n, m):
        listed = enumerate_tl(n, m)
        assert len(set(listed)) == len(listed)
        assert len(listed) == brute_force_planar_count(n, m)

    def test_parity_gives_empty(self):
        assert enumerate_tl(2, 3) == []

    @pytest.mark.parametrize("n,m", [(-2, -2), (-1, 3), (2, -2)])
    def test_negative_size_rejected(self, n, m):
        with pytest.raises(ValueError):
            enumerate_tl(n, m)

    def test_negative_blob_size_rejected(self):
        with pytest.raises(ValueError):
            enumerate_blob(-1)

    @pytest.mark.parametrize("n,count", [(1, 2), (2, 6), (3, 20), (4, 70)])
    def test_blob_counts_match_central_binomial(self, n, count):
        diagrams = enumerate_blob(n)
        assert len(diagrams) == len(set(diagrams)) == count == comb(2 * n, n)


class TestExposedness:
    def test_identity_has_one_exposed_line(self):
        assert exposed_lines(identity(3)) == [(0, 3)]

    def test_cupcap_all_exposed_at_west(self):
        assert len(exposed_lines(generator_u(1, 3))) == 3
        assert exposed_lines(generator_u(2, 3)) == [(0, 3)]

    def test_blob_on_covered_line_rejected(self):
        with pytest.raises(ValueError):
            BlobPairing(identity(2), frozenset([(1, 3)]))

    def test_blob_on_missing_line_rejected(self):
        with pytest.raises(ValueError):
            BlobPairing(identity(2), frozenset([(0, 1)]))


class TestBlobComposition:
    def test_blob_merge(self):
        params = BlobParams.integral_form(2)
        res, scalar = compose_blob(blob_e(1), blob_e(1), params)
        assert res.diagram == blob_e(1)
        assert res.blob_merges == 1 and res.blob_loops == 0 and res.plain_loops == 0
        assert scalar == params.delta_e

    def test_blob_identity_neutral(self):
        params = BlobParams.integral_form(2)
        res, scalar = compose_blob(blob_e(2), BlobPairing(identity(2)), params)
        assert res.diagram == blob_e(2)
        assert scalar == LaurentInt.one()
        for n in range(5):
            one = BlobPairing(identity(n))
            for d in enumerate_blob(n):
                for res, _ in (compose_blob(one, d), compose_blob(d, one)):
                    assert res.diagram == d
                    assert discard_counts(res) == (0, 0, 0)

    @pytest.mark.parametrize("n", range(4))
    def test_associative_with_additive_counts(self, n):
        # The generator-step proof of the blob structure constants rests on
        # this: stacking order is immaterial, and so is the total of each
        # discard count, hence the scalar.
        for d1, d2, d3 in itertools.product(enumerate_blob(n), repeat=3):
            r12, _ = compose_blob(d1, d2)
            left, _ = compose_blob(r12.diagram, d3)
            r23, _ = compose_blob(d2, d3)
            right, _ = compose_blob(d1, r23.diagram)
            assert left.diagram == right.diagram
            assert [a + b for a, b in zip(discard_counts(r12), discard_counts(left))] == \
                [a + b for a, b in zip(discard_counts(r23), discard_counts(right))]

    def test_blobbed_loop_evaluates_to_gamma(self):
        # The blob rides onto the closed loop formed by the two cup-caps.
        params = BlobParams.integral_form(3)
        u = BlobPairing(generator_u(1, 2))
        first, _ = compose_blob(u, blob_e(2), params)
        res, scalar = compose_blob(first.diagram, u, params)
        assert res.diagram == u
        assert res.blob_loops == 1 and res.blob_merges == 0
        assert scalar == params.gamma

    def test_scalar_without_params_is_none(self):
        res, scalar = compose_blob(blob_e(1), blob_e(1))
        assert scalar is None and res.blob_merges == 1

    def test_composition_closed_exhaustively(self):
        # Every product of valid decorated diagrams is again valid (the
        # constructor re-checks exposedness), with consistent blob counts.
        diagrams = enumerate_blob(3)
        for d1, d2 in itertools.product(diagrams, repeat=2):
            res, _ = compose_blob(d1, d2)
            blobs_in = len(d1.blobbed) + len(d2.blobbed)
            blobs_out = len(res.diagram.blobbed)
            # blobs vanish only via merges and blobbed loops
            assert blobs_in - blobs_out == res.blob_merges + res.blob_loops

    def test_pure_tl_through_blob_path(self):
        for d1, d2 in itertools.product(enumerate_tl(3, 3), repeat=2):
            res, _ = compose_blob(BlobPairing(d1), BlobPairing(d2))
            tl = compose_tl(d1, d2)
            assert res.diagram.base == tl.diagram
            assert not res.diagram.blobbed
            assert res.plain_loops == tl.plain_loops
            assert res.blob_loops == res.blob_merges == 0


class TestIntegerChainWalk:
    """The integer chain walk against the side-tagged reference walk."""

    @staticmethod
    def assert_matches_reference(top, bottom):
        got = _trace_concatenation(top, bottom)
        assert got == reference_trace(top, bottom)
        assert all(type(c) is int for c in got[1].values())
        assert all(type(c) is int for c in got[2])

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_blob_pairs_match_reference(self, n):
        diagrams = enumerate_blob(n)
        for d1, d2 in itertools.product(diagrams, repeat=2):
            self.assert_matches_reference(d1, d2)
            res, _ = compose_blob(d1, d2)
            pairs, chains, loops = reference_trace(d1, d2)
            blobbed = frozenset(p for p, cnt in chains.items() if cnt)
            assert res.diagram == BlobPairing(Pairing(n, n, tuple(pairs)), blobbed)
            assert res.plain_loops == sum(1 for c in loops if not c)
            assert res.blob_loops == sum(1 for c in loops if c)
            assert res.blob_merges == sum(c - 1 for c in [*chains.values(), *loops]
                                          if c)

    def test_tl_shapes_match_reference(self):
        sizes = range(5)
        for n, k, m in itertools.product(sizes, repeat=3):
            for d1 in enumerate_tl(n, k):
                for d2 in enumerate_tl(k, m):
                    self.assert_matches_reference(d1, d2)
                    res = compose_tl(d1, d2)
                    pairs, _, loops = reference_trace(d1, d2)
                    assert res.diagram == Pairing(n, m, tuple(pairs))
                    assert res.plain_loops == len(loops)

    def test_mixed_plain_and_blob_operands(self):
        for d1, d2 in itertools.product(enumerate_tl(2, 2), enumerate_blob(2)):
            self.assert_matches_reference(d1, d2)
            self.assert_matches_reference(d2, d1)

    @pytest.mark.parametrize("top, bottom", [((2, 2), (4, 2)), ((1, 3), (1, 1)),
                                             ((3, 1), (3, 3)), ((0, 2), (0, 0))])
    def test_inner_boundary_mismatch_raises(self, top, bottom):
        d1, d2 = enumerate_tl(*top)[0], enumerate_tl(*bottom)[0]
        with pytest.raises(ValueError):
            compose_tl(d1, d2)
        with pytest.raises(ValueError):
            compose_blob(BlobPairing(d1), d2)

    def test_compose_tl_builds_no_blob_diagram(self, monkeypatch):
        calls = {"exposed_lines": 0, "BlobPairing": 0}
        exposed, init = diagrams_module.exposed_lines, BlobPairing.__init__

        def counted_exposed(d):
            calls["exposed_lines"] += 1
            return exposed(d)

        def counted_init(self, *args, **kwargs):
            calls["BlobPairing"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(diagrams_module, "exposed_lines", counted_exposed)
        monkeypatch.setattr(BlobPairing, "__init__", counted_init)
        diagrams = enumerate_tl(3, 3)
        for d1, d2 in itertools.product(diagrams, repeat=2):
            compose_tl(d1, d2)
        assert calls == {"exposed_lines": 0, "BlobPairing": 0}
        compose_blob(diagrams[0], diagrams[1])  # the counters do see blob results
        assert calls == {"exposed_lines": 1, "BlobPairing": 1}


class TestJson:
    def test_roundtrip_plain(self):
        for d in enumerate_tl(3, 3) + enumerate_tl(2, 4):
            assert diagram_from_json(diagram_to_json(d)) == d

    def test_roundtrip_blob(self):
        for d in enumerate_blob(3):
            obj = diagram_to_json(d)
            assert diagram_from_json(obj) == d
            # canonical bytes are stable
            blob = json.dumps(obj, sort_keys=True)
            assert json.dumps(diagram_to_json(diagram_from_json(obj)),
                              sort_keys=True) == blob

    def test_labels(self):
        obj = diagram_to_json(identity(2))
        assert obj == {"n": 2, "m": 2, "pairs": [["t1", "b1"], ["t2", "b2"]]}


class TestJsonValidation:
    @pytest.mark.parametrize("label", ["", "t", "b", "x1", "t0", "t3", "b3", "t-1",
                                       "t1.5", "t١", 1, None, ["t1"]])
    def test_bad_label_is_value_error(self, label):
        obj = {"n": 2, "m": 2, "pairs": [[label, "b1"], ["t2", "b2"]]}
        with pytest.raises(ValueError):
            diagram_from_json(obj)

    def test_negative_size_is_value_error(self):
        with pytest.raises(ValueError):
            diagram_from_json({"n": -1, "m": 1, "pairs": []})

    @pytest.mark.parametrize("n,m,k", [(2.9, 2.7, 2), (2.0, 2, 2), (2, 2.0, 2),
                                       (True, 1, 1), (1, True, 1), ("1", 1, 1),
                                       (1, "1", 1), (None, 1, 1)])
    def test_non_int_size_is_value_error(self, n, m, k):
        # k pairs fit the sizes that int() would have read.
        pairs = [["t1", "b1"], ["t2", "b2"]][:k]
        with pytest.raises(ValueError):
            diagram_from_json({"n": n, "m": m, "pairs": pairs})

    @pytest.mark.parametrize("blobs", [[["t1", "b1"], ["t1", "b1"]],
                                       [["t1", "b1"], ["b1", "t1"]]])
    def test_blob_line_listed_twice_is_value_error(self, blobs):
        obj = {"n": 1, "m": 1, "pairs": [["t1", "b1"]], "blobs": blobs}
        with pytest.raises(ValueError):
            diagram_from_json(obj)
        obj["blobs"] = blobs[:1]
        assert diagram_to_json(diagram_from_json(obj))["blobs"] == [["t1", "b1"]]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-2, 4), st.integers(-2, 4),
           st.lists(st.lists(st.one_of(st.text(max_size=3), st.sampled_from(
               ["t1", "t2", "t3", "b1", "b2", "b3"])), min_size=2, max_size=2),
               max_size=4))
    def test_fuzz_value_error_or_diagram(self, n, m, pairs):
        try:
            d = diagram_from_json({"n": n, "m": m, "pairs": pairs})
        except ValueError:
            return
        assert diagram_from_json(diagram_to_json(d)) == d
