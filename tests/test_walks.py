import itertools
import random

import pytest

from tlblob.diagrams import Pairing, compose_tl
from tlblob.reference import (
    cut,
    enumerate_tl,
    hasse_edges,
    leq,
    linear_extension,
    raise_at,
    tl_basis_word_table,
    walk_from_string,
)
from tlblob.codes import seq_to_index
from tlblob.tensorrep import r_matrix
from tlblob.walks import (
    Walk,
    WalkPair,
    enumerate_pairs,
    enumerate_walks,
    lower_at,
    pair_word,
)
from tlblob.words import eval_word, format_word


def brute_force_walks(n, c):
    out = []
    for steps in itertools.product((1, 2), repeat=n):
        h, ok = 0, True
        for s in steps:
            h += 1 if s == 1 else -1
            if h < 0:
                ok = False
                break
        if ok and h == c:
            out.append(steps)
    return out


class TestWalks:
    def test_negative_prefix_rejected(self):
        with pytest.raises(ValueError):
            Walk((2, 1))
        with pytest.raises(ValueError):
            Walk((1, 2, 2))

    def test_first_step_forced_up(self):
        for n in range(1, 7):
            for c in range(n % 2, n + 1, 2):
                for w in enumerate_walks(n, c):
                    assert w.steps[0] == 1

    def test_top_walk(self):
        assert [repr(w) for w in enumerate_walks(2, 2)] == ["11"]

    def test_column_one_length_three(self):
        assert sorted(repr(w) for w in enumerate_walks(3, 1)) == ["112", "121"]

    def test_parity_violation(self):
        with pytest.raises(ValueError):
            enumerate_walks(3, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_against_brute_force(self, n):
        for c in range(n % 2, n + 1, 2):
            # lexicographic order, as enumerate_walks documents
            assert [w.steps for w in enumerate_walks(n, c)] == \
                sorted(brute_force_walks(n, c))

    @pytest.mark.parametrize("n,count", [(2, 2), (3, 5), (4, 14), (5, 42), (6, 132)])
    def test_pair_count_matches_diagram_count(self, n, count):
        assert len(enumerate_pairs(n)) == count == len(enumerate_tl(n, n))

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            enumerate_pairs(-1)


class TestRaiseLower:
    def test_example(self):
        assert raise_at(walk_from_string("121"), 2) == walk_from_string("112")
        assert raise_at(walk_from_string("1212"), 2) == walk_from_string("1122")

    def test_no_descent_raises(self):
        with pytest.raises(ValueError):
            raise_at(walk_from_string("1111"), 1)

    def test_lower_inverts_raise(self):
        for w in enumerate_walks(5, 1):
            for i in range(1, 5):
                try:
                    up = raise_at(w, i)
                except ValueError:
                    continue
                assert lower_at(up, i) == w

    def test_raise_strictly_increases(self):
        for p in enumerate_pairs(4):
            for i in range(1, 4):
                try:
                    up = raise_at(p.a, i)
                except ValueError:
                    continue
                q = WalkPair(up, p.b)
                assert leq(p, q) and not leq(q, p)


class TestOrder:
    def test_reflexive(self):
        for p in enumerate_pairs(4):
            assert leq(p, p)

    def test_example(self):
        low = WalkPair(walk_from_string("121"), walk_from_string("121"))
        high = WalkPair(walk_from_string("112"), walk_from_string("112"))
        assert leq(low, high) and not leq(high, low)

    def test_cross_lattice_rule(self):
        ones = [p for p in enumerate_pairs(3) if p.endpoint == 1]
        top = WalkPair(walk_from_string("111"), walk_from_string("111"))
        for p in ones:
            assert leq(p, top) and not leq(top, p)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_partial_order_axioms(self, n):
        pairs = enumerate_pairs(n)
        for p, q in itertools.product(pairs, repeat=2):
            if leq(p, q) and leq(q, p):
                assert p == q
        rel = {(i, j) for i, p in enumerate(pairs) for j, q in enumerate(pairs)
               if leq(p, q)}
        for i, j in rel:
            for k in range(len(pairs)):
                if (j, k) in rel:
                    assert (i, k) in rel


def chain_word(p, choose):
    """The word of the lowering chain that takes ``choose(options)`` of the
    (position, lowered walk) options, built with ``lower_at``."""
    from tlblob.words import GenWord

    def lowerings(w):
        out = []
        for i in range(1, len(w.steps)):
            try:
                out.append((i, lower_at(w, i)))
            except ValueError:
                continue
        return out

    left, a = [], p.a
    while opts := lowerings(a):
        i, a = choose(opts)
        left.append(i)
    right, b = [], p.b
    while opts := lowerings(b):
        i, b = choose(opts)
        right.append(i)
    k = sum(1 for s in a.steps if s == 2)
    base = [2 * j + 1 for j in range(k)]
    return GenWord(tuple(left) + tuple(base) + tuple(reversed(right)), p.n)


class TestPairWord:
    def test_lowest_pair_base_word(self):
        low = walk_from_string("1212")
        assert format_word(pair_word(WalkPair(low, low))) == "u1 u3"

    def test_highest_pair_empty_word(self):
        top = walk_from_string("1111")
        assert pair_word(WalkPair(top, top)).letters == ()

    def test_mixed_pair_diagram(self):
        p = WalkPair(walk_from_string("112"), walk_from_string("121"))
        word = pair_word(p)
        ev = eval_word(word)
        assert ev.loop_free
        # the matrix of the word is nonzero at the pair's own position
        mat = r_matrix(ev.tl_diagram)
        pos = (seq_to_index(p.a.steps), seq_to_index(p.b.steps))
        assert pos in mat.entries
        assert ev.tl_diagram == Pairing(3, 3, ((1, 2), (0, 5), (3, 4)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_loop_free_bijection(self, n):
        seen = {}
        for p in enumerate_pairs(n):
            ev = eval_word(pair_word(p))
            assert ev.loop_free
            assert ev.tl_diagram not in seen, (p, seen[ev.tl_diagram])
            seen[ev.tl_diagram] = p
        assert set(seen) == set(enumerate_tl(n, n))

    @pytest.mark.parametrize("n", range(9))
    def test_word_is_the_lower_at_chain(self, n):
        # The canonical chain lowers Walks at the smallest legal position.
        for p in enumerate_pairs(n):
            assert pair_word(p) == chain_word(p, lambda opts: opts[0])

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_chain_independent_diagram(self, n):
        rng = random.Random(31)
        for p in enumerate_pairs(n):
            expected = eval_word(pair_word(p)).tl_diagram
            for _ in range(3):
                alt = chain_word(p, rng.choice)
                ev = eval_word(alt)
                assert ev.loop_free
                assert ev.tl_diagram == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cut_halves_track_the_two_walks(self, n):
        ups, downs = {}, {}
        for p in enumerate_pairs(n):
            d = eval_word(pair_word(p)).tl_diagram
            up, down = cut(d)
            assert ups.setdefault(p.a, up) == up
            assert downs.setdefault(p.b, down) == down

    def test_table_keys_are_diagrams(self):
        table = tl_basis_word_table(3)
        assert len(table) == 5
        for diagram, word in table.items():
            assert eval_word(word).diagram == diagram


class TestLinearExtension:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_consistent_with_order(self, n):
        ordered = linear_extension(enumerate_pairs(n))
        index = {p: i for i, p in enumerate(ordered)}
        for p, q in itertools.product(ordered, repeat=2):
            if p != q and leq(p, q):
                assert index[p] < index[q]

    def test_endpoint_blocks_ascend(self):
        ordered = linear_extension(enumerate_pairs(2))
        assert [p.endpoint for p in ordered] == [0, 2]

    def test_input_order_irrelevant(self):
        pairs = enumerate_pairs(4)
        shuffled = list(pairs)
        random.Random(3).shuffle(shuffled)
        assert linear_extension(pairs) == linear_extension(shuffled)


class TestHasse:
    def test_edges_are_covers(self):
        pairs = enumerate_pairs(3)
        edges = hasse_edges(pairs)
        for p, q in edges:
            assert p != q and leq(p, q)
            for r in pairs:
                if r not in (p, q):
                    assert not (leq(p, r) and leq(r, q))

    def test_transitive_closure_recovers_order(self):
        pairs = enumerate_pairs(4)
        edges = set(hasse_edges(pairs))
        reach = {p: {p} for p in pairs}
        changed = True
        while changed:
            changed = False
            for p, q in edges:
                new = reach[p] | {q} | reach[q]
                if new != reach[p]:
                    reach[p] = new
                    changed = True
        for p, q in itertools.product(pairs, repeat=2):
            assert (q in reach[p]) == leq(p, q)
