import random
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st
from test_faithful import VARIANTS, image_variant, scaled

from tlblob.blobrep import verify_rho0
from tlblob.diagrams import (
    BlobPairing,
    Pairing,
    blob_e,
    compose_blob,
    generator_u,
    identity,
)
from tlblob.faithful import _tl_letter_matrices
from tlblob.reference import f_map, parse_word, reflect
from tlblob.rings import BlobParams, CycloLaurent, LaurentInt, quantum_integer
from tlblob.tensorrep import Placed, Rho0Config, SparseRepMatrix, r_matrix, \
    rho0, rho0_placed
from tlblob.words import _SCALAR_RELATIONS, PresentationReport, \
    _basis_words, _discards, _is_blob_state, _partner_diagram, _search, \
    _stack
from tlblob.words import (
    GenWord,
    WordEval,
    blob_basis_words,
    eval_word,
    format_word,
    verify_presentation,
)


class TestEval:
    def test_empty_word_is_unit(self):
        ev = eval_word(GenWord((), 3))
        assert ev.diagram == BlobPairing(identity(3))
        assert ev.loop_free

    def test_square_of_cupcap_drops_a_loop(self):
        ev = eval_word(GenWord((1, 1), 2))
        assert ev.diagram.base == generator_u(1, 2)
        assert ev.plain_loops == 1 and not ev.loop_free

    def test_blob_square_merges(self):
        ev = eval_word(GenWord(("e", "e"), 2))
        assert ev.diagram == blob_e(2)
        assert ev.blob_merges == 1 and not ev.loop_free

    def test_shifted_convention(self):
        ev = eval_word(GenWord((0,), 4, "shifted"))
        assert ev.tl_diagram == generator_u(2, 4)

    def test_out_of_range_letter_rejected(self):
        with pytest.raises(ValueError):
            GenWord((3,), 3)
        with pytest.raises(ValueError):
            GenWord(("e",), 4, "shifted")
        with pytest.raises(ValueError):
            GenWord(("e",), 0)

    @pytest.mark.parametrize("letter", [True, False])
    def test_bool_letter_rejected(self, letter):
        with pytest.raises(ValueError):
            GenWord((letter,), 3)

    def test_monoid_up_to_scalars(self):
        # eval(w . w') composes the evaluated diagrams, with counts adding.
        rng = random.Random(13)
        letters = ["e", 1, 2]
        for _ in range(80):
            w1 = GenWord(tuple(rng.choice(letters) for _ in range(rng.randrange(4))), 3)
            w2 = GenWord(tuple(rng.choice(letters) for _ in range(rng.randrange(4))), 3)
            whole = eval_word(w1 * w2)
            left, right = eval_word(w1), eval_word(w2)
            res, _ = compose_blob(left.diagram, right.diagram)
            assert whole.diagram == res.diagram
            assert whole.plain_loops == left.plain_loops + right.plain_loops + res.plain_loops
            assert whole.blob_loops == left.blob_loops + right.blob_loops + res.blob_loops
            assert whole.blob_merges == left.blob_merges + right.blob_merges + res.blob_merges


def reference_eval_word(word):
    """eval_word as a left-to-right fold of composed generator diagrams."""
    cur = BlobPairing(identity(word.n))
    plain = loops = merges = 0
    for letter in word.letters:
        gen = blob_e(word.n) if letter == "e" else \
            BlobPairing(generator_u(letter, word.n, word.convention))
        res, _ = compose_blob(cur, gen)
        cur = res.diagram
        plain += res.plain_loops
        loops += res.blob_loops
        merges += res.blob_merges
    return WordEval(cur, plain, loops, merges)


def reference_blob_basis_words(n):
    """blob_basis_words as a breadth-first search that composes diagrams."""
    gens = [("e", blob_e(n))] + [
        (i, BlobPairing(generator_u(i, n))) for i in range(1, n)
    ]
    start = BlobPairing(identity(n))
    table = {start: GenWord((), n)}
    queue = [start]
    for diag in queue:
        for letter, gd in gens:
            res, _ = compose_blob(diag, gd)
            if res.plain_loops or res.blob_loops or res.blob_merges:
                continue
            if res.diagram not in table:
                table[res.diagram] = GenWord(table[diag].letters + (letter,), n)
                queue.append(res.diagram)
    return table


@st.composite
def standard_words(draw):
    n = draw(st.integers(1, 6))
    letters = st.sampled_from(["e", *range(1, n)])
    return GenWord(draw(st.lists(letters, max_size=14)), n)


class TestEvalMatchesComposition:
    """The partner-array fold gives the composed diagrams' WordEval."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_basis_words_and_their_f_map_images(self, n):
        for word in blob_basis_words(n).values():
            assert eval_word(word) == reference_eval_word(word)
            folded = f_map(word)
            assert eval_word(folded) == reference_eval_word(folded)

    @settings(max_examples=300, deadline=None)
    @given(standard_words())
    @example(GenWord((1, 1), 2))  # a loop
    @example(GenWord((1, "e", 1), 2))  # a blob loop
    @example(GenWord(("e", "e"), 2))  # a merge at e
    @example(GenWord(("e", 2, 1, "e", 2), 3))  # a merge where U_2 joins lines
    def test_random_words(self, word):
        assert eval_word(word) == reference_eval_word(word)


class TestBasisWords:
    def test_n1(self):
        table = blob_basis_words(1)
        assert table[BlobPairing(identity(1))] == GenWord((), 1)
        assert table[blob_e(1)] == GenWord(("e",), 1)
        assert len(table) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_complete_and_loop_free(self, n):
        table = blob_basis_words(n)
        assert len(table) == comb(2 * n, n)
        for diagram, word in table.items():
            ev = eval_word(word)
            assert ev.loop_free
            assert ev.diagram == diagram

    def test_deterministic(self):
        t1 = blob_basis_words(3)
        t2 = blob_basis_words(3)
        assert list(t1.items()) == list(t2.items())

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_composition_search(self, n):
        # Same keys, same words, same insertion order as the search that
        # composes whole diagrams on every edge.
        assert list(blob_basis_words(n).items()) == \
            list(reference_blob_basis_words(n).items())

    def test_n0_rejected(self):
        with pytest.raises(ValueError):
            blob_basis_words(0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_incomplete_search_raises(self, monkeypatch, n):
        import tlblob.words as words

        monkeypatch.setattr(words, "comb", lambda a, b: comb(a, b) + 1)
        with pytest.raises(RuntimeError, match="incomplete"):
            blob_basis_words(n)

    def test_incomplete_search_raises_under_optimize(self):
        # The check must not be an assert: python -O would strip it.
        import os
        import subprocess
        import sys

        import tlblob

        code = ("import tlblob.words as w; w.comb = lambda a, b: 0; "
                "w.blob_basis_words(2)")
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(tlblob.__file__)))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "RuntimeError: basis search incomplete" in proc.stderr


def as_blob_pairing(partner, blob, n):
    """The BlobPairing whose partner array and blob flags these are, or None
    when BlobPairing rejects them or they are not its arrays."""
    lines = {tuple(sorted(p)) for p in enumerate(partner)}
    flagged = {tuple(sorted((i, partner[i]))) for i in range(2 * n) if blob[i]}
    try:
        diagram = BlobPairing(Pairing(n, n, lines), flagged)
    except ValueError:
        return None
    flags = [any(i in line for line in diagram.blobbed) for i in range(2 * n)]
    if diagram.base.match != dict(enumerate(partner)) or flags != list(blob):
        return None
    return diagram


# A BlobPairing's arrays with one fault each, on n = 2 (nodes t1 t2 b1 b2,
# frame order t1 t2 b2 b1).
FAULTY_STATES = {
    "crossing": ([3, 2, 1, 0], [False] * 4),  # t1-b2 crosses t2-b1
    "blob on a covered line": ([2, 3, 0, 1], [False, True, False, True]),
    "one end flagged": ([2, 3, 0, 1], [True, False, False, False]),
    "fixed point": ([0, 3, 2, 1], [False] * 4),
}


class TestBasisSearchGuards:
    """Every state of the basis search is scanned (``_is_blob_state``) and
    agrees with what BlobPairing accepts."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_state_passes_the_scan_and_builds(self, n):
        found = 0
        for partner, blob, word in _search(n):
            assert _is_blob_state(partner, blob, n)
            diagram = as_blob_pairing(partner, blob, n)
            assert diagram == _partner_diagram(partner, blob, n)
            assert eval_word(GenWord(word, n)).diagram == diagram
            found += 1
        assert found == comb(2 * n, n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_discard_test_is_the_stack(self, n):
        # The search asks _discards before it copies a state: it must
        # answer what _stack on a copy returns, and change nothing.
        for partner, blob, _ in _search(n):
            before = partner[:], blob[:]
            for a in (None, *range(n, 2 * n - 1)):
                p, b = partner[:], blob[:]
                assert _discards(partner, blob, n, a) == \
                    bool(_stack(p, b, n, a))
                assert (partner, blob) == before

    def test_fault_free_arrays_pass(self):
        assert _is_blob_state([2, 3, 0, 1], [True, False, True, False], 2)
        assert as_blob_pairing([2, 3, 0, 1], [True, False, True, False], 2)

    @pytest.mark.parametrize("fault", sorted(FAULTY_STATES))
    def test_faulty_arrays_fail_both_checks(self, fault):
        partner, blob = FAULTY_STATES[fault]
        assert not _is_blob_state(partner, blob, 2)
        assert as_blob_pairing(partner, blob, 2) is None

    def test_a_crossing_step_raises(self, monkeypatch):
        import tlblob.words as words

        stack = words._stack

        def crossing_stack(partner, blob, n, a):
            discarded = stack(partner, blob, n, a)
            if partner[0] == n and partner[1] == n + 1:
                # t1-b1 and t2-b2 become t1-b2 and t2-b1, which cross.
                partner[0], partner[1], partner[n], partner[n + 1] = n + 1, n, 1, 0
                blob[n], blob[n + 1] = blob[n + 1], blob[n]
            return discarded
        monkeypatch.setattr(words, "_stack", crossing_stack)
        for build in (_basis_words, blob_basis_words):
            with pytest.raises(RuntimeError, match="non-diagram"):
                build(3)
        with pytest.raises(RuntimeError, match="non-diagram"):
            verify_rho0(3, 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_default_words_are_the_table_words(self, n):
        assert _basis_words(n) == list(blob_basis_words(n).values())


class TestFMap:
    def test_letter_images(self):
        assert f_map(GenWord(("e",), 2)).letters == (0,)
        assert f_map(GenWord((1,), 2)).letters == (-1, 1)
        assert f_map(GenWord((), 2)).letters == ()

    def test_target_shape(self):
        fw = f_map(GenWord(("e", 1), 3))
        assert fw.n == 6 and fw.convention == "shifted"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_loop_free_symmetric_injective(self, n):
        images = set()
        for word in blob_basis_words(n).values():
            ev = eval_word(f_map(word))
            assert ev.loop_free
            tl = ev.tl_diagram
            assert reflect(tl) == tl
            images.add(tl)
        assert len(images) == comb(2 * n, n)


class TestPresentation:
    def test_r_matrices_satisfy_relations(self):
        n = 4
        rep = {i: r_matrix(generator_u(i, n)) for i in range(1, n)}
        report = verify_presentation(rep, n, quantum_integer(2))
        assert report.ok

    def test_zero_rep_passes_homogeneous_relations(self):
        # The zero map satisfies every relation here; rank checks elsewhere
        # are what rules it out.
        from tlblob.tensorrep import SparseRepMatrix

        zero = SparseRepMatrix(2, 2, {}, "laurent")
        rep = {1: zero}
        report = verify_presentation(rep, 2, quantum_integer(2))
        assert report.ok

    def test_wrong_scalar_detected(self):
        n = 3
        rep = {i: r_matrix(generator_u(i, n)) for i in range(1, n)}
        report = verify_presentation(rep, n, quantum_integer(3))
        assert any("delta" in name for name, _ in report.violations)

    def test_broken_braid_detected(self):
        n = 3
        rep = {1: r_matrix(generator_u(1, n)), 2: r_matrix(generator_u(1, n))}
        report = verify_presentation(rep, n, quantum_integer(2))
        assert not report.ok

    @pytest.mark.parametrize("keys", [(1,), (1, 2, 3), (0, 1, 2), (1, 2, "f")])
    def test_generator_keys_must_be_one_to_n_minus_one(self, keys):
        u1 = r_matrix(generator_u(1, 3))
        with pytest.raises(ValueError):
            verify_presentation({k: u1 for k in keys}, 3, quantum_integer(2))

    def test_blob_relations_need_params(self):
        from tlblob.tensorrep import Rho0Config, rho0

        rep = rho0(Rho0Config(2, 1))
        with pytest.raises(ValueError):
            verify_presentation(rep.letter_images(), 2,
                                CycloLaurent.from_laurent(quantum_integer(2)))

    def test_blob_relations_after_sign_flip(self):
        from tlblob.tensorrep import Rho0Config, rho0

        delta = CycloLaurent.from_laurent(quantum_integer(2))
        for m in (1, 2):
            rep = rho0(Rho0Config(2, m))
            params = BlobParams.integral_form(m, cyclo=True)
            direct = verify_presentation(rep.letter_images(), 2, delta, params)
            flipped = verify_presentation(rep.letter_images(), 2, delta,
                                          params.sign_flipped())
            assert not direct.ok
            assert flipped.ok
            assert direct.empirical_scalars["delta_e"] == -params.delta_e
            assert direct.empirical_scalars["gamma"] == -params.gamma


def full_product_presentation(rep, n, delta, blob_params=None):
    """The reference: every relation as a product of full matrices."""
    violations = []
    empirical = {}

    def check(name, lhs, rhs):
        if lhs != rhs:
            violations.append((name, lhs.sub(rhs)))

    idx = [i for i in rep if i != "e"]
    assert set(idx) == set(range(1, n))
    for i in idx:
        u = rep[i]
        check(f"u{i}.u{i} = delta u{i}", u.mul(u), u.scalar_mul(delta))
        for j in idx:
            if abs(i - j) == 1:
                check(f"u{i} u{j} u{i} = u{i}", u.mul(rep[j]).mul(u), u)
            elif i != j:
                check(f"u{i} u{j} = u{j} u{i}", u.mul(rep[j]), rep[j].mul(u))
    if "e" in rep:
        e = rep["e"]
        ee = e.mul(e)
        empirical["delta_e"] = ee.ratio_to(e)
        check(_SCALAR_RELATIONS["delta_e"], ee, e.scalar_mul(blob_params.delta_e))
        if 1 in rep:
            u1 = rep[1]
            ueu = u1.mul(e).mul(u1)
            empirical["gamma"] = ueu.ratio_to(u1)
            check(_SCALAR_RELATIONS["gamma"], ueu, u1.scalar_mul(blob_params.gamma))
        for i in idx:
            if i >= 2:
                check(f"e u{i} = u{i} e", e.mul(rep[i]), rep[i].mul(e))
    return PresentationReport(violations, empirical)


def assert_same_report(rep, n, delta, blob_params=None, full=None):
    """verify_presentation on rep equals the full-product reference on full
    (rep's images expanded by default): names in order, residual blocks
    expanded, and scalars."""
    got = verify_presentation(rep, n, delta, blob_params)
    if full is None:
        full = {k: m.expand() if isinstance(m, Placed) else m
                for k, m in rep.items()}
    want = full_product_presentation(full, n, delta, blob_params)
    assert [name for name, _ in got.violations] == \
        [name for name, _ in want.violations]
    assert all(isinstance(res, Placed) for _, res in got.violations)
    assert [(name, res.expand()) for name, res in got.violations] == \
        want.violations
    assert got.empirical_scalars == want.empirical_scalars
    return got


def blob_conventions(m):
    params = BlobParams.integral_form(m, cyclo=True)
    return params.delta, (params, params.sign_flipped())


class TestLocalRelations:
    """Relations on the factors the images act on give the full reports."""

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 6)
                                     for m in (-1, 0, 1, 2, 3)])
    def test_rho0_full_and_placed(self, n, m):
        full = rho0(Rho0Config(n, m)).letter_images()
        placed = rho0_placed(Rho0Config(n, m))
        delta, conventions = blob_conventions(m)
        for params in conventions:
            assert_same_report(full, n, delta, params)
            assert_same_report(placed, n, delta, params, full=full)

    @pytest.mark.parametrize("n,m,variant", [
        (n, m, v) for n in (1, 2, 3) for m in (-1, 0, 1, 2, 3)
        for v in VARIANTS if n > 1 or "u1" not in v
    ] + [(4, 1, v) for v in ("as-built", "zero-e", "minus-e")])
    def test_perturbed_rho0_images(self, n, m, variant):
        images = image_variant(n, m, variant)
        delta, conventions = blob_conventions(m)
        for params in conventions:
            assert_same_report(images, n, delta, params)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_tl_letters(self, n):
        letters = _tl_letter_matrices(n)
        assert_same_report(letters, n, quantum_integer(2))
        assert assert_same_report(letters, n, quantum_integer(3)).ok == (n == 1)
        for i in range(1, n):
            doubled = dict(letters)
            doubled[i] = scaled(letters[i], LaurentInt.from_int(2))
            assert not assert_same_report(doubled, n, quantum_integer(2)).ok

    def unfactorable(self, variant):
        """R(u_2) on 4 strands, changed so it is no block (x) I on the
        factors its entries flip: a full matrix, read on every factor."""
        u2 = r_matrix(generator_u(2, 4))
        entries = dict(u2.entries)
        if variant == "weight":  # a diagonal weight on factor 1, never flipped
            two = LaurentInt.from_int(2)
            entries = {(r, c): two * v if r & 8 else v
                       for (r, c), v in entries.items()}
        else:  # one stray entry
            entries[(0, 1)] = LaurentInt.one()
        return SparseRepMatrix(4, 4, entries, "laurent")

    @pytest.mark.parametrize("variant", ["weight", "stray"])
    @pytest.mark.parametrize("slot", [1, 2, 3])
    def test_unfactorable_images_take_every_factor(self, variant, slot):
        odd = self.unfactorable(variant)
        rep = dict(_tl_letter_matrices(4))
        rep[slot] = odd
        report = assert_same_report(rep, 4, quantum_integer(2))
        assert not report.ok
        assert any(res.support == 15 for _, res in report.violations)

    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_sizes(self, n):
        delta, (params, _) = blob_conventions(1)
        for images in (rho0(Rho0Config(n, 1)).letter_images(),
                       image_variant(n, 1, "identity-e"),
                       image_variant(n, 1, "zero-e")):
            assert_same_report(images, n, delta, params)
            assert_same_report({k: v for k, v in images.items() if k != "e"},
                               n, delta)
        assert_same_report(_tl_letter_matrices(n), n, quantum_integer(2))


class TestPresentationValidation:
    """Bad images raise before any support is read or product skipped."""

    def rho0_images(self, n, placed):
        config = Rho0Config(n, 1)
        return rho0_placed(config) if placed else rho0(config).letter_images()

    @pytest.mark.parametrize("placed", [False, True])
    @pytest.mark.parametrize("n,key", [(2, 1), (2, "e"), (3, 2), (4, 3),
                                       (4, "e")])
    def test_two_sizes(self, n, key, placed):
        images = self.rho0_images(n, placed)
        images[key] = self.rho0_images(n + 1, placed)[key if key == "e" else 1]
        params = BlobParams.integral_form(1, cyclo=True)
        with pytest.raises(ValueError):
            verify_presentation(images, n, params.delta, params)

    @pytest.mark.parametrize("n,key", [(2, "e"), (3, 2), (4, 3), (4, 1)])
    def test_two_rings(self, n, key):
        # u1 and u3 act on disjoint factors, and so do e and u3: their
        # commutations need no product, and the ring mismatch must still raise.
        images = dict(_tl_letter_matrices(n))
        images["e"] = r_matrix(generator_u(1, n))
        cyclo_x = CycloLaurent.x_power(1)
        images[key] = r_matrix(generator_u(1 if key == "e" else key, n), cyclo_x)
        with pytest.raises(ValueError):
            verify_presentation(images, n, quantum_integer(2),
                                BlobParams.integral_form(1))

    @pytest.mark.parametrize("n,key", [(2, 1), (1, "e"), (2, "e"), (4, 3)])
    def test_non_square(self, n, key):
        images = rho0(Rho0Config(n, 1)).letter_images()
        images[key] = SparseRepMatrix(2 * n, 2 * n + 1, {}, "cyclo")
        params = BlobParams.integral_form(1, cyclo=True)
        with pytest.raises(ValueError):
            verify_presentation(images, n, params.delta, params)
        if key != "e":
            del images["e"]
            with pytest.raises(ValueError):
                verify_presentation(images, n, params.delta)


class TestTextFormat:
    def test_roundtrip(self):
        word = GenWord(("e", 1, 2, 1), 3)
        assert parse_word(format_word(word), 3) == word

    def test_signed_indices(self):
        word = parse_word("u-2 u0 u2", 6, "shifted")
        assert word.letters == (-2, 0, 2)
        assert format_word(word) == "u-2 u0 u2"

    def test_json_list_form(self):
        assert parse_word(["e", "u1"], 2) == GenWord(("e", 1), 2)
        assert parse_word(["u-1", 1], 4, "shifted") == GenWord((-1, 1), 4, "shifted")

    def test_bad_token(self):
        with pytest.raises(ValueError):
            parse_word("e q3", 3)

    @pytest.mark.parametrize("text", ["u+1", "u\uff11", "u\u0663", "u1_0", "u 1",
                                      "u", "u-", "U1", "e1", "ue", "u1.0", "u--1",
                                      " u1 x", None, 5, 1.5, {"u1": 1}])
    def test_malformed_word_rejected(self, text):
        with pytest.raises(ValueError):
            parse_word(text, 3)

    @pytest.mark.parametrize("token", [True, False, None, 1.0, ["u1"], "u\uff11",
                                       "u+1", b"u1"])
    def test_malformed_list_token_rejected(self, token):
        with pytest.raises(ValueError):
            parse_word(["e", token], 3)

    def test_tuple_and_whitespace_forms(self):
        assert parse_word(("e", "u2", 1), 3) == GenWord(("e", 2, 1), 3)
        assert parse_word("  e\tu2\n u1 ", 3) == GenWord(("e", 2, 1), 3)
        assert parse_word("", 3) == GenWord((), 3)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(alphabet="eu-+0123_ \t\uff11\u0663.U", max_size=12),
        st.lists(st.one_of(st.sampled_from(["e", "u1", "u-1", "u2", "u0", "u+1",
                                            "u1_0", "u\u0663"]),
                           st.integers(-3, 3), st.booleans(), st.none(),
                           st.floats(allow_nan=False), st.text(max_size=3)),
                 max_size=5),
        st.none(), st.integers()),
        st.integers(1, 4), st.sampled_from(["standard", "shifted"]))
    def test_fuzz_value_error_or_roundtrip(self, text, n, convention):
        try:
            word = parse_word(text, n, convention)
        except ValueError:
            return
        assert parse_word(format_word(word), n, convention) == word
