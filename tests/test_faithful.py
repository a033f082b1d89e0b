import pytest

import tlblob.faithful as faithful
import tlblob.reference as reference_module
import tlblob.tensorrep as tensorrep
import tlblob.tlcert as tlcert
import tlblob.walks as walks_module
import tlblob.words as words_module
from tlblob.blobrep import (
    prove_blob_representation,
    verify_blob_representation,
    verify_rho0,
)
from tlblob.diagrams import compose_blob, generator_u
from tlblob.rank import check_full_rank_witness, full_rank_witness
from tlblob.reference import (
    OVERLAY_MENU,
    _structure_constant_failures,
    enumerate_blob,
    f_map,
    leq,
    rank_exact,
    tl_basis_word_table,
    verify_mask_independence,
    walk_from_string,
)
from tlblob.rings import BlobParams, CycloLaurent, LaurentInt, \
    _code_element, quantum_integer
from tlblob.codes import CodedMatrix, index_to_seq, r_matrix_codes, seq_to_index
from tlblob.tensorrep import (
    Placed,
    Rho0Config,
    SparseRepMatrix,
    _rho0_placed,
    r_matrix,
    rho0,
    rho0_placed,
)
from tlblob.faithful import (
    DEFAULT_SEED,
    FaithfulnessCertificate,
    _certified_rank,
    _prefix_products,
    certify_mirror,
    certify_rho0,
    rep_word_matrix,
    tl_word_matrix,
    triangularity_report,
    verify_r_composition,
    verify_tl_faithful,
)
from tlblob.tlcert import verify_tl
from tlblob.walks import Walk, WalkPair, enumerate_pairs, pair_word
from tlblob.words import GenWord, blob_basis_words, eval_word, \
    verify_presentation


def scaled(letter, c):
    """A ``Placed`` image with its block multiplied by the ring element c."""
    return Placed(letter.support, letter.block.scalar_mul(c))


def mirror_inputs(n, m=1):
    """rho0(n, m)'s (e, {i: (X_i, Y_i)}) as blocks, then as full matrices."""
    e, factors = _rho0_placed(Rho0Config(n, m))
    rep = rho0(Rho0Config(n, m))
    return [(e, factors), (rep.e, rep.u_factors)]


def times(image, c):
    """c times a ``Placed`` image or a full matrix, in the same form."""
    return scaled(image, c) if isinstance(image, Placed) else image.scalar_mul(c)


def fold_word(start, word, images):
    out = start
    for letter in word.letters:
        out = out.mul(images[letter])
    return out


def two_pass_sweep(images, basis, params):
    """(failures, sign_normalized) from two sweeps of whole-matrix products."""
    some = next(iter(images.values()))
    start = SparseRepMatrix.identity(some.rows_log2, some.ring)
    rep_of = {d: fold_word(start, w, images) for d, w in basis.items()}

    def sweep(p):
        failures = []
        for d1, w1 in basis.items():
            for d2, w2 in basis.items():
                res, scalar = compose_blob(d1, d2, p)
                if rep_of[d1].mul(rep_of[d2]) != \
                        rep_of[res.diagram].scalar_mul(scalar):
                    failures.append((w1, w2))
        return failures

    failures = sweep(params)
    if failures and not sweep(params.sign_flipped()):
        return [], True
    return failures, False


def sweep_required(images, n, params):
    """Whether the presentation proof must fall back to the sweep: when the
    blob relations fail in both conventions."""
    return not any(verify_presentation(images, n, params.delta, p).ok
                   for p in (params, params.sign_flipped()))


def reference_triangularity(n):
    """(failures, nonwalk entries) of the per-pair triangularity check.

    Each pair's word is folded letter by letter from the identity through
    the current ``_tl_letter_matrices``; nothing is shared between pairs.
    """
    images = faithful._expanded(faithful._tl_letter_matrices(n))

    def is_walk(seq):
        return all(seq[:k].count(1) >= seq[:k].count(2)
                   for k in range(len(seq) + 1))

    failures, nonwalk = [], []
    for p in enumerate_pairs(n):
        mat = fold_word(SparseRepMatrix.identity(n), pair_word(p), images)
        own = (seq_to_index(p.a.steps), seq_to_index(p.b.steps))
        if own not in mat.entries:
            failures.append((p, own, "diagonal-zero"))
        for pos in sorted(mat.entries):
            useq, vseq = index_to_seq(pos[0], n), index_to_seq(pos[1], n)
            if not (is_walk(useq) and is_walk(vseq)):
                nonwalk.append((p, pos))
            elif not leq(WalkPair(Walk(useq), Walk(vseq)), p):
                failures.append((p, pos, "above-pair"))
    return failures, nonwalk


def count_calls(monkeypatch, name, owner=faithful):
    """Replace owner.<name> by a wrapper; the list collects its results."""
    results = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(owner, name, counted)
    return results


def without_lead(codes):
    """R(D)'s codes without the entry at their smallest key."""
    lead = min(codes)
    return {k: c for k, c in codes.items() if k != lead}


def broken_e_images(n, m):
    images = rho0(Rho0Config(n, m)).letter_images()
    two = next(iter(images["e"].entries.values())).from_int(2)
    images["e"] = images["e"].scalar_mul(two)
    return images


def tl_vectors(n):
    return [tl_word_matrix(pair_word(p)).flatten() for p in enumerate_pairs(n)]


def rho0_vectors(n, m):
    images = rho0(Rho0Config(n, m)).letter_images()
    return [rep_word_matrix(w, images, 2 * n, "cyclo").flatten()
            for w in blob_basis_words(n).values()]


class TestTriangularity:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_no_failures(self, n):
        report = triangularity_report(n)
        assert report.ok
        assert not report.failures

    def test_diagonal_anchor_value(self):
        low = walk_from_string("1212")
        word = pair_word(WalkPair(low, low))
        mat = tl_word_matrix(word)
        k = seq_to_index((1, 2, 1, 2))
        assert mat.entries[(k, k)] == LaurentInt({4: 1})

    def test_lower_lattice_block_vanishes(self):
        # The word of the two-descent lowest pair kills every row with
        # fewer than two 2-steps.
        low = walk_from_string("1212")
        mat = tl_word_matrix(pair_word(WalkPair(low, low)))
        for (u, v) in mat.entries:
            useq = index_to_seq(u, 4)
            assert sum(1 for s in useq if s == 2) >= 2

    @pytest.mark.parametrize("family", [(n,) for n in range(1, 8)] +
                             [(n, m) for n in range(1, 6) for m in (1, 2, 3)],
                             ids=lambda f: "-".join(map(str, f)))
    def test_leading_columns_are_distinct(self, family):
        # The modular witness then takes every image as a pivot row as it is.
        build = tl_family if len(family) == 1 else rho0_family
        vectors = faithful._word_vectors(*build(*family))
        assert len({min(v) for v in vectors}) == len(vectors)

    def test_nonwalk_entries_are_informational(self):
        report = triangularity_report(2)
        assert report.ok
        # (21, ...) rows exist but are not walks
        assert report.nonwalk_entries

    @pytest.mark.parametrize("n", range(7))
    def test_matches_reference(self, n):
        report = triangularity_report(n)
        failures, nonwalk = reference_triangularity(n)
        assert (report.failures, report.nonwalk_entries) == \
            (failures, len(nonwalk))

    @pytest.mark.parametrize("n,i,j,clauses", [
        (3, 1, 2, {"above-pair"}),
        (3, 2, 1, {"diagonal-zero"}),
        (4, 1, 3, {"above-pair", "diagonal-zero"}),
        (5, 3, 2, {"above-pair", "diagonal-zero"}),
        (6, 1, 2, {"above-pair"}),
        (6, 2, 1, {"diagonal-zero"}),
    ])
    def test_swapped_letter_matches_reference(self, monkeypatch, n, i, j,
                                              clauses):
        # u_i's image replaced by u_j's: the report must still be the
        # per-pair check's, failures and informational entries in order.
        original = faithful._tl_letter_matrices
        monkeypatch.setattr(faithful, "_tl_letter_matrices",
                            lambda size: {**original(size), i: original(size)[j]})
        # The pass reads R(D), not the letters: the chain's report is checked.
        pairs, _, vectors = reference_module._pair_word_vectors(n)
        report = tlcert._triangularity(n, zip(pairs, vectors))
        failures, nonwalk = reference_triangularity(n)
        assert (report.failures, report.nonwalk_entries) == \
            (failures, len(nonwalk))
        assert {clause for _, _, clause in report.failures} == clauses

    @pytest.mark.parametrize("n,products", [(5, 52), (6, 156), (7, 500)])
    def test_one_product_per_prefix(self, monkeypatch, n, products):
        prefixes = {w.letters[:k] for w in map(pair_word, enumerate_pairs(n))
                    for k in range(1, len(w.letters) + 1)}
        calls = []
        original = CodedMatrix.mul

        def counted(self, other):
            calls.append(None)
            return original(self, other)

        monkeypatch.setattr(CodedMatrix, "mul", counted)
        pairs, _, vectors = reference_module._pair_word_vectors(n)
        assert tlcert._triangularity(n, zip(pairs, vectors)).ok
        assert len(calls) == len(prefixes) == products


class TestTlFaithful:
    @pytest.mark.parametrize("n,rank", [(2, 2), (3, 5), (4, 14)])
    def test_full_rank(self, n, rank):
        cert = verify_tl_faithful(n)
        assert cert.rank == rank == cert.basis_size
        assert cert.valid
        assert cert.method == "modular-witness"
        assert check_full_rank_witness(tl_vectors(n), cert.witness)

    def test_duplicated_row_falls_back_to_exact(self):
        vectors = tl_vectors(3)
        vectors.append(dict(vectors[0]))
        assert full_rank_witness(vectors, trials=5, seed=7) is None
        assert _certified_rank(vectors, 7) == (5, "exact", None)

    def test_failed_witness_search_gives_exact_certificate(self, monkeypatch):
        # The word chain's vectors, certified when no witness is found.
        monkeypatch.setattr(faithful, "full_rank_witness", lambda *a, **k: None)
        _, _, vectors = reference_module._pair_word_vectors(3)
        rank, method, witness = _certified_rank(vectors, DEFAULT_SEED, 3)
        cert = FaithfulnessCertificate(n=3, basis_size=5, rank=rank,
                                       method=method, witness=witness)
        assert cert.method == "exact" and cert.rank == 5 and cert.valid
        assert cert.to_json()["witness"] is None

    def test_rejected_witness_gives_exact(self, monkeypatch):
        import tlblob.faithful as faithful

        vectors = tl_vectors(3)
        forged = dict(full_rank_witness(vectors, seed=7), x=0)
        monkeypatch.setattr(faithful, "full_rank_witness", lambda *a, **k: forged)
        assert _certified_rank(vectors, 7) == (5, "exact", None)

    def test_empty_basis_is_never_valid(self):
        for method in ("exact", "modular-witness"):
            cert = FaithfulnessCertificate(n=0, basis_size=0, rank=0, method=method)
            assert not cert.valid
            assert cert.to_json()["valid"] is False

    @pytest.mark.parametrize("check", [verify_tl_faithful, triangularity_report,
                                       verify_r_composition, verify_tl])
    def test_negative_n_rejected(self, check):
        with pytest.raises(ValueError):
            check(-1)

    def test_certificates_reproducible(self):
        a = verify_tl_faithful(3).dumps()
        b = verify_tl_faithful(3).dumps()
        assert a == b


class TestOneBuild:
    @pytest.mark.parametrize("n", range(6))
    def test_verify_tl_gives_the_three_results(self, n):
        assert verify_tl(n, seed=3) == (triangularity_report(n),
                                        verify_tl_faithful(n, seed=3))
        assert verify_r_composition(n) == []

    def test_cli_builds_no_word_matrix_when_the_pass_holds(self, monkeypatch,
                                                           capsys):
        from tlblob import cli

        builds = count_calls(monkeypatch, "_word_vectors")
        sweeps = count_calls(monkeypatch, "verify_r_composition")
        assert cli.main(["verify-tl", "--n", "5"]) == 0
        assert '"valid":true' in capsys.readouterr().out
        assert builds == sweeps == []

    def test_letter_table_is_fresh_per_call(self):
        # A caller may change the dict it gets; no later certificate sees it.
        expected = verify_tl(4)
        letters = faithful._tl_letter_matrices(4)
        letters[1] = letters[2]
        assert faithful._tl_letter_matrices(4)[1] is not letters[2]
        assert verify_tl(4) == expected


def tampered_folds(monkeypatch, tamper):
    """Send each word's fold through ``tamper``; the list collects them."""
    fold, folds = words_module._fold, []

    def tampered(word):
        folds.append(tamper(len(folds), fold(word), folds))
        return folds[-1]

    monkeypatch.setattr(words_module, "_fold", tampered)
    return folds


def mutated_codes(monkeypatch, mutate):
    """Pass each ``tlcert.r_matrix_codes(n, m, pairs)`` through mutate."""
    codes = tlcert.r_matrix_codes
    monkeypatch.setattr(tlcert, "r_matrix_codes", lambda n, m, pairs:
                        mutate(n, m, pairs, codes(n, m, pairs)))


def chain_codes(monkeypatch, size):
    """Give each walk pair's R(D) codes at ``size`` as its word's chain
    vector, in turn, so that only the fold and array checks can refuse."""
    chain = iter(reference_module._pair_word_vectors(size)[2])
    mutated_codes(monkeypatch, lambda n, m, pairs, codes:
                  next(chain) if n == m == size else codes)


class TestContraction:
    """``verify_tl``'s pass: R is a functor by three 2x2 identities on its
    line tensor, and each walk pair's word folds with nothing discarded to
    the diagram whose R(D) is the word's matrix, led by the pair's own
    position.  A refused check raises RuntimeError naming it."""

    def test_line_tensors_satisfy_the_identities(self):
        # C read from R of a cap and of a cup, in the ring this time.
        x = LaurentInt.x_power(1)
        for shape in ((2, 0), (0, 2)):
            codes = r_matrix_codes(*shape, ((0, 1),))
            assert {k: _code_element(c) for k, c in codes.items()} == \
                {1: x, 2: x.unit_inverse()}
        assert r_matrix_codes(1, 1, ((0, 1),)) == {0: 0, 3: 0}
        c = [[LaurentInt.zero(), x], [x.unit_inverse(), LaurentInt.zero()]]
        t = [list(col) for col in zip(*c)]

        def product(a, b):
            return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in (0, 1)]
                    for i in (0, 1)]

        one = [[LaurentInt.one(), LaurentInt.zero()],
               [LaurentInt.zero(), LaurentInt.one()]]
        assert product(c, c) == product(t, t) == one
        loop = product(c, t)
        assert loop[0][0] + loop[1][1] == quantum_integer(2)
        assert tlcert._identities_hold()

    # Line tensors that break the argument, by the shape of the R asked for.
    MUTATIONS = {
        # C C = I still, but the loop is [2] at x^2.
        "doubled": lambda n, m, pairs, codes:
            {k: 2 * c for k, c in codes.items()},
        # The cap times x: both zig-zags give x I.
        "scaled-cap": lambda n, m, pairs, codes:
            {k: c + 16 for k, c in codes.items()} if (n, m) == (2, 0)
            else codes,
        # A diagonal entry on the cup: two summands meet in a zig-zag.
        "diagonal": lambda n, m, pairs, codes:
            {**codes, 0: 0} if (n, m) == (0, 2) else codes,
        # A propagating line that is not I.
        "through": lambda n, m, pairs, codes:
            {0: 0, 3: 16} if (n, m) == (1, 1) else codes,
    }

    # Tampered folds at n = 3, word k: (k, fold, earlier folds) -> fold.
    # The crossing array 0-4, 1-3, 2-5 is a fixed-point-free involution,
    # and a blob on the line through node 0, which is always exposed, is a
    # blob state: only the crossing scan and the blob check refuse them.
    TAMPERS = {
        "crossing": lambda k, fold, earlier: ([4, 3, 5, 1, 0, 2], *fold[1:])
        if k == 1 else fold,
        "repeated": lambda k, fold, earlier: (earlier[0][0][:], *fold[1:])
        if k == 4 else fold,
        "discard": lambda k, fold, earlier: (fold[0], fold[1], [1, 0, 0])
        if k == 1 else fold,
        "blob": lambda k, fold, earlier: (
            fold[0], [i in (0, fold[0][0]) for i in range(6)], fold[2])
        if k == 1 else fold,
    }

    # Each check of the pass refused alone at n = 3, and the check its
    # error names: the line-tensor mutations, the tampered folds, u1's R(D)
    # without its lead, and words missing u1's diagram (the empty word in
    # place of u1's, so the identity's array comes twice).  Under a tamper
    # or the missing diagram each pair's codes are its word's chain vector,
    # so that the leads hold.
    REFUSALS = {**dict.fromkeys(MUTATIONS, "line-tensor identities"),
                **dict.fromkeys(("blob", "crossing", "discard"),
                                "loop-free TL fold"),
                "repeated": "distinct arrays", "lead": "lead check",
                "missing-diagram": "distinct arrays"}

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutated_line_tensor_is_refused(self, monkeypatch, mutation):
        mutated_codes(monkeypatch, self.MUTATIONS[mutation])
        assert not tlcert._identities_hold()

    @pytest.mark.parametrize("check", sorted(REFUSALS))
    def test_refused_check_raises(self, monkeypatch, check):
        if check in self.MUTATIONS:
            mutated_codes(monkeypatch, self.MUTATIONS[check])
        elif check == "lead":
            mutated_codes(monkeypatch, lambda n, m, pairs, codes:
                          without_lead(codes)
                          if pairs == generator_u(1, 3).pairs else codes)
        else:
            chain_codes(monkeypatch, 3)
            if check in self.TAMPERS:
                tampered_folds(monkeypatch, self.TAMPERS[check])
            else:
                u1 = GenWord((1,), 3)
                monkeypatch.setattr(walks_module, "pair_word", lambda p:
                                    GenWord((), 3) if pair_word(p) == u1
                                    else pair_word(p))
        with pytest.raises(RuntimeError, match=self.REFUSALS[check]):
            verify_tl(3)

    @pytest.mark.parametrize("n", range(10))
    def test_word_chain_is_r_of_the_fold(self, n):
        # The comparison the pass replaced, streamed: each walk pair's word
        # matrix from the letter chain is R of its word's fold.
        word_list = [pair_word(p) for p in enumerate_pairs(n)]
        letters = {i: CodedMatrix.from_matrix(m) for i, m in
                   faithful._expanded(faithful._tl_letter_matrices(n)).items()}
        chain = _prefix_products(CodedMatrix.identity(n), word_list, letters)
        for word, mat in zip(word_list, chain):
            partner, _, _ = words_module._fold(word)
            assert mat.entries == \
                r_matrix_codes(n, n, tlcert._lines(partner))

    @pytest.mark.parametrize("n", range(9))
    def test_streamed_witness_is_the_chain_witness(self, n):
        cert = verify_tl_faithful(n)
        _, _, vectors = reference_module._pair_word_vectors(n)
        packed = [r << n | c for r, c in cert.witness["pivots"]]
        assert check_full_rank_witness(vectors, dict(cert.witness,
                                                     pivots=packed))
        assert faithful._certified_rank(vectors, DEFAULT_SEED, n) == \
            (cert.rank, cert.method, cert.witness)


def ring_vectors(words, images, dim_log2, ring):
    """Each word's matrix entries, (row, col)-keyed, from the ring chain."""
    return [m.entries for m in
            faithful._rep_word_matrices(words, images, dim_log2, ring)]


def decoded(vectors, dim_log2):
    low = (1 << dim_log2) - 1
    return [{(k >> dim_log2, k & low): _code_element(c) for k, c in v.items()}
            for v in vectors]


def tl_family(n):
    return [pair_word(p) for p in enumerate_pairs(n)], \
        faithful._expanded(faithful._tl_letter_matrices(n)), n, "laurent"


def rho0_family(n, m):
    images = rho0(Rho0Config(n, m)).letter_images()
    return list(blob_basis_words(n).values()), images, 2 * n, "cyclo"


class TestCodedChains:
    """The certificate chains on codes decode to the ring chains' matrices."""

    @staticmethod
    def check(words, images, dim_log2, ring):
        coded = faithful._word_vectors(words, images, dim_log2, ring)
        assert all(type(c) is int for v in coded for c in v.values())
        assert decoded(coded, dim_log2) == \
            ring_vectors(words, images, dim_log2, ring)

    @pytest.mark.parametrize("n", range(7))
    def test_tl(self, n):
        self.check(*tl_family(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rho0(self, n, m):
        self.check(*rho0_family(n, m))

    @pytest.mark.parametrize("family", [tl_family(5), rho0_family(3, 1)])
    def test_packed_pivots_are_the_tuple_pivots(self, family):
        words, images, dim_log2, ring = family
        packed = faithful._word_vectors(words, images, dim_log2, ring)
        tuples = ring_vectors(words, images, dim_log2, ring)
        w_packed = full_rank_witness(packed, seed=DEFAULT_SEED)
        w_tuple = full_rank_witness(tuples, seed=DEFAULT_SEED)
        low = (1 << dim_log2) - 1
        assert [(k >> dim_log2, k & low) for k in w_packed["pivots"]] == \
            w_tuple["pivots"]
        assert dict(w_packed, pivots=None) == dict(w_tuple, pivots=None)
        assert check_full_rank_witness(packed, w_packed)


class TestExactnessGuard:
    """Images that are not all unit monomials, or a product position with two
    summands, send the chain through the ring product; the certified rank
    is then the ring chain's."""

    @staticmethod
    def tl_with_letters(monkeypatch, n, letters):
        """The certified (rank, method, witness) of the TL word chain."""
        words = [pair_word(p) for p in enumerate_pairs(n)]
        builds = count_calls(monkeypatch, "_rep_word_matrices")
        got = _certified_rank(faithful._word_vectors(words, letters, n,
                                                     "laurent"),
                              DEFAULT_SEED, n)
        assert len(builds) == 1
        assert got == _certified_rank(
            ring_vectors(words, faithful._expanded(letters), n, "laurent"),
            DEFAULT_SEED)
        return got

    def test_scaled_generator_image(self, monkeypatch):
        letters = dict(faithful._tl_letter_matrices(4))
        letters[2] = scaled(letters[2], LaurentInt.from_int(2))
        rank, method, _ = self.tl_with_letters(monkeypatch, 4, letters)
        assert (rank, method) == (14, "modular-witness")

    def test_collision(self, monkeypatch):
        # u1's image replaced by u2's: the word u1 u2 becomes u2 u2, a loop.
        letters = dict(faithful._tl_letter_matrices(3))
        letters[1] = letters[2]
        rank, method, _ = self.tl_with_letters(monkeypatch, 3, letters)
        assert rank < 5 and method == "exact"

    def test_scaled_blob_image(self, monkeypatch):
        # The same certificate from e's block and from its full matrix.
        n = 2
        rep = rho0(Rho0Config(n, 1))
        two = CycloLaurent.from_int(2)
        images = {"e": rep.e.scalar_mul(two), **rep.u}
        rank, method, witness = _certified_rank(
            ring_vectors(blob_basis_words(n).values(), images, 2 * n, "cyclo"),
            DEFAULT_SEED)
        for e, factors in mirror_inputs(n):
            builds = count_calls(monkeypatch, "_rep_word_matrices")
            cert = certify_mirror(times(e, two), factors, n)
            assert len(builds) == 1
            assert cert.dumps() == FaithfulnessCertificate(
                n=n, basis_size=6, rank=rank, method=method,
                mask_checks=cert.mask_checks, witness=witness).dumps()
            assert cert.valid and all(c["ok"] for c in cert.mask_checks)


class TestMaskIndependence:
    def test_all_ones_overlay(self):
        # overlaying the supports with 1s keeps independence
        table = tl_basis_word_table(2)
        one = LaurentInt.one()
        vectors = [{k: one for k in tl_word_matrix(w).entries}
                   for w in table.values()]
        assert rank_exact(vectors) == len(table)

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_overlays(self, n):
        report = verify_mask_independence(n, trials=8, seed=123)
        assert report.ok
        assert report.ranks == [report.basis_size] * 8

    def test_deterministic_given_seed(self):
        a = verify_mask_independence(3, trials=4, seed=5)
        b = verify_mask_independence(3, trials=4, seed=5)
        assert a.ranks == b.ranks


class TestComposition:
    @pytest.mark.parametrize("n", [2, 3])
    def test_identity_sweep(self, n):
        assert verify_r_composition(n) == []


class TestGeneratorStepProof:
    """The presentation proofs give the sweeps' results and run them only
    when the relations fail."""

    @pytest.mark.parametrize("n", range(6))
    def test_tl_correct_runs_no_sweep(self, monkeypatch, n):
        expected = verify_r_composition(n)
        sweeps = count_calls(monkeypatch, "verify_r_composition")
        report, cert = verify_tl(n)
        assert report.ok and cert.valid
        assert expected == sweeps == []

    def test_untampered_folds_prove(self, monkeypatch):
        # The harness of ``TestContraction``'s refusals refuses nothing alone.
        expected = verify_tl(3)
        folds = tampered_folds(monkeypatch, lambda k, fold, earlier: fold)
        chain_codes(monkeypatch, 3)
        assert verify_tl(3) == expected
        assert len(folds) == 5

    # The word at which each tampered fold of ``TestContraction`` is
    # refused: the fold checks refuse the tampered word itself, the
    # distinct-arrays check only after the last of the five.
    REFUSED_AT = {"blob": 1, "crossing": 1, "discard": 1, "repeated": 4}

    @pytest.mark.parametrize("tamper", sorted(REFUSED_AT))
    def test_tampered_fold_raises(self, monkeypatch, tamper):
        folds = tampered_folds(monkeypatch, TestContraction.TAMPERS[tamper])
        chain_codes(monkeypatch, 3)
        with pytest.raises(RuntimeError) as refusal:
            verify_tl(3)
        k = self.REFUSED_AT[tamper]
        assert len(folds) == k + 1
        if k < 4:
            assert repr(enumerate_pairs(3)[k]) in str(refusal.value)

    @staticmethod
    def check_blob(monkeypatch, images, n, params):
        """The proof's report; it is the sweep's, which runs iff it must."""
        required = sweep_required(images, n, params)
        sweeps = count_calls(monkeypatch, "verify_blob_representation")
        report = prove_blob_representation(images, n, params)
        assert len(sweeps) == int(required)
        if sweeps:
            assert report is sweeps[0]
        else:
            sweep = verify_blob_representation(images, n, params)
            assert report.to_json() == sweep.to_json()
            assert report.failures == sweep.failures
            assert report.empirical_scalars == sweep.empirical_scalars
        assert report.pairs_checked == len(enumerate_blob(n)) ** 2
        return report

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rho0_proved_without_sweep(self, monkeypatch, n, m):
        images = rho0(Rho0Config(n, m)).letter_images()
        report = self.check_blob(monkeypatch, images, n,
                                 BlobParams.integral_form(m, cyclo=True))
        assert report.ok and report.sign_normalized

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_broken_blob_image_falls_back(self, monkeypatch, n):
        report = self.check_blob(monkeypatch, broken_e_images(n, 1), n,
                                 BlobParams.integral_form(1, cyclo=True))
        assert not report.ok

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_zero_blob_image(self, monkeypatch, n, m):
        images = rho0(Rho0Config(n, m)).letter_images()
        images["e"] = SparseRepMatrix(2 * n, 2 * n, {}, "cyclo")
        self.check_blob(monkeypatch, images, n,
                        BlobParams.integral_form(m, cyclo=True))

    @pytest.mark.parametrize("scale_u1", [False, True])
    def test_non_prefix_closed_tl_table(self, scale_u1):
        # A caller's own table goes to the sweep, whose prefix chain takes
        # a table that is not prefix closed.
        images = {i: r_matrix(generator_u(i, 3)) for i in (1, 2)}
        if scale_u1:
            images[1] = images[1].scalar_mul(LaurentInt.from_int(2))
        report = verify_blob_representation(images, 3,
                                            BlobParams.integral_form(1),
                                            tl_basis_word_table(3))
        assert report.ok != scale_u1
        assert not report.sign_normalized
        assert report.pairs_checked == 5 ** 2

    @pytest.mark.parametrize("n,i", [(2, 1), (3, 2), (4, 1)])
    def test_tl_scaled_letter_needs_no_sweep(self, monkeypatch, n, i):
        # The scaled letter breaks u_i.u_i = [2] u_i, but the pass reads
        # R(D), which it leaves unchanged: the identities prove R a functor,
        # and the sweep, which would find no failure, does not run.
        expected = verify_tl(n)
        letters = dict(faithful._tl_letter_matrices(n))
        letters[i] = scaled(letters[i], LaurentInt.from_int(2))
        monkeypatch.setattr(faithful, "_tl_letter_matrices", lambda size: letters)
        sweeps = count_calls(monkeypatch, "verify_r_composition")
        assert verify_tl(n) == expected
        assert sweeps == []

    @pytest.mark.parametrize("flaw", ["doubled-letters", "looped-word"])
    def test_tl_table_matching_its_words_is_not_enough(self, monkeypatch,
                                                       flaw):
        # R(D) is replaced by its word's matrix, so every word matches its
        # diagram; but letters with doubled exponents (R at x^2, in the
        # pass's codes too) break u_i.u_i = [2] u_i, and the word u1 u1
        # evaluates to u1 through a loop.  The sweep finds failures, and
        # the loop identity or the fold check refuses the pass.
        n = 3
        letters = dict(faithful._tl_letter_matrices(n))
        if flaw == "doubled-letters":
            block = tensorrep.local_u_matrix(None, LaurentInt.x_power(4))
            letters = {i: tensorrep._placed_local(block, i, n, sign=1)
                       for i in letters}
            mutated_codes(monkeypatch, TestContraction.MUTATIONS["doubled"])
        looped = next(p for p in enumerate_pairs(n)
                      if pair_word(p) == GenWord((1,), n))

        def word(p):
            if flaw == "looped-word" and p == looped:
                return GenWord((1, 1), n)
            return pair_word(p)

        diagrams, _ = faithful._diagram_matrix_table(n)
        mats = {eval_word(word(p)).tl_diagram:
                rep_word_matrix(word(p), faithful._expanded(letters), n, "laurent")
                for p in enumerate_pairs(n)}
        monkeypatch.setattr(faithful, "_tl_letter_matrices", lambda size: letters)
        monkeypatch.setattr(faithful, "_diagram_matrix_table",
                            lambda size: (diagrams, mats))
        monkeypatch.setattr(walks_module, "pair_word", word)
        assert verify_r_composition(n)
        check = {"doubled-letters": "line-tensor identities",
                 "looped-word": "loop-free TL fold"}[flaw]
        with pytest.raises(RuntimeError, match=check):
            verify_tl(n)

    def test_missing_letter_or_mixed_sizes_raise(self):
        images = rho0(Rho0Config(3, 1)).letter_images()
        params = BlobParams.integral_form(1, cyclo=True)
        for missing in (2, "e"):
            with pytest.raises(KeyError):
                prove_blob_representation(
                    {k: v for k, v in images.items() if k != missing}, 3,
                    params)
        images[2] = rho0(Rho0Config(2, 1)).letter_images()[1]
        with pytest.raises(ValueError):
            prove_blob_representation(images, 3, params)


def image_variant(n, m, variant):
    """rho0(n, m)'s letter images, with e or u1 replaced as named."""
    images = rho0(Rho0Config(n, m)).letter_images()
    minus = CycloLaurent.from_int(-1)
    if variant == "zero-e":
        images["e"] = SparseRepMatrix(2 * n, 2 * n, {}, "cyclo")
    elif variant == "minus-e":
        images["e"] = images["e"].scalar_mul(minus)
    elif variant == "a2-e":
        images["e"] = images["e"].scalar_mul(CycloLaurent.a_power(2))
    elif variant == "identity-e":
        images["e"] = SparseRepMatrix.identity(2 * n, "cyclo")
    elif variant == "e-is-u1":
        images["e"] = images[1]
    elif variant == "minus-u1":
        images[1] = images[1].scalar_mul(minus)
    return images


VARIANTS = ("as-built", "zero-e", "minus-e", "a2-e", "identity-e", "e-is-u1",
            "minus-u1")


class TestProofEqualsSweep:
    """The presentation proof's report is the exhaustive sweep's."""

    @pytest.mark.parametrize("n,m,variant", [
        (n, m, v) for n in (1, 2, 3) for m in (-1, 0, 1, 2, 3)
        for v in VARIANTS if n > 1 or "u1" not in v
    ] + [(4, 1, v) for v in ("as-built", "zero-e", "minus-e")])
    def test_blob(self, n, m, variant):
        images = image_variant(n, m, variant)
        params = BlobParams.integral_form(m, cyclo=True)
        proof = prove_blob_representation(images, n, params)
        sweep = verify_blob_representation(images, n, params)
        assert proof.to_json() == sweep.to_json()
        assert proof.failures == sweep.failures

    def test_tl_table_ignores_the_blob_image(self):
        # rho0's stated blob relations fail, but no TL pair involves e: the
        # sweep finds nothing to normalize.
        images = rho0(Rho0Config(3, 1)).letter_images()
        params = BlobParams.integral_form(1, cyclo=True)
        sweep = verify_blob_representation(images, 3, params,
                                           tl_basis_word_table(3))
        assert sweep.ok and not sweep.sign_normalized


class TestPlacedImages:
    """verify-blob checks the relations on blocks and builds no full image."""

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 2), (4, 1)])
    def test_verify_blob_builds_no_full_image(self, monkeypatch, capsys, n, m):
        import tlblob.tensorrep as tensorrep
        from tlblob import cli

        params = BlobParams.integral_form(m, cyclo=True)
        assert verify_presentation(rho0_placed(Rho0Config(n, m)), n,
                                   params.delta, params).violations
        built = []
        for owner, name in ((Placed, "expand"), (tensorrep, "place_local")):
            original = getattr(owner, name)

            def counted(*args, _original=original, **kwargs):
                built.append(_original(*args, **kwargs))
                return built[-1]
            monkeypatch.setattr(owner, name, counted)
        assert cli.main(["verify-blob", "--n", str(n), "--m", str(m)]) == 0
        assert '"ok":true' in capsys.readouterr().out
        # The stated blob relations fail for rho0, and their residuals stay
        # blocks too.
        assert built == []

    def test_relation_products_stay_on_the_touched_factors(self, monkeypatch):
        operands = []
        original = SparseRepMatrix.mul

        def counted(a, b):
            operands.append((a.nnz(), b.nnz()))
            return original(a, b)
        monkeypatch.setattr(SparseRepMatrix, "mul", counted)
        n = 5
        verify_rho0(n, 1)
        assert max(max(pair) for pair in operands) <= 64
        # One Kronecker block per u_i, then u_i u_i, two products for each
        # ordered adjacent pair, e.e and u1 e u1; the commutations u_i u_j
        # (|i - j| > 1) and e u_i (i > 1) act on disjoint factors.
        assert len(operands) == (n - 1) + (n - 1) + 2 * 2 * (n - 2) + 1 + 2

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (3, 0)])
    def test_fallbacks_expand_the_images(self, n, m):
        # A doubled e fails the relations in both conventions, so the proof
        # falls back to the sweep, which expands the blocks.
        params = BlobParams.integral_form(m, cyclo=True)
        placed = rho0_placed(Rho0Config(n, m))
        placed["e"] = scaled(placed["e"], CycloLaurent.from_int(2))
        full = broken_e_images(n, m)
        assert {k: p.expand() for k, p in placed.items()} == full
        got = prove_blob_representation(placed, n, params)
        want = prove_blob_representation(full, n, params)
        assert got.failures
        assert got.to_json() == want.to_json()
        assert got.failures == want.failures


    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sweep_takes_blocks(self, n):
        params = BlobParams.integral_form(1, cyclo=True)
        placed = rho0_placed(Rho0Config(n, 1))
        got = verify_blob_representation(placed, n, params)
        want = verify_blob_representation(tensorrep._expanded(placed), n, params)
        assert got.to_json() == want.to_json()
        assert got.failures == want.failures


class TestOneRelationPass:
    """One stated relation check decides the sign-flipped relations too."""

    @pytest.mark.parametrize("n,m,variant", [
        (n, m, v) for n in (1, 2, 3) for m in (-1, 0, 1, 2, 3)
        for v in VARIANTS + ("zero-u1",) if n > 1 or "u1" not in v])
    def test_ok_with_is_a_second_pass(self, n, m, variant):
        images = image_variant(n, m, variant)
        if variant == "zero-u1":
            images[1] = SparseRepMatrix(2 * n, 2 * n, {}, "cyclo")
        params = BlobParams.integral_form(m, cyclo=True)
        stated = verify_presentation(images, n, params.delta, params)
        for other in (params, params.sign_flipped()):
            assert stated.ok_with(other) == \
                verify_presentation(images, n, params.delta, other).ok

    def test_tl_relations_ignore_blob_params(self):
        letters = faithful._tl_letter_matrices(3)
        report = verify_presentation(letters, 3, LaurentInt.from_int(2))
        assert not report.ok
        assert not report.ok_with(BlobParams.integral_form(1))

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 1)])
    def test_verify_blob_checks_the_relations_once(self, monkeypatch, capsys,
                                                   n, m):
        from tlblob import cli

        calls = count_calls(monkeypatch, "verify_presentation", words_module)
        assert cli.main(["verify-blob", "--n", str(n), "--m", str(m)]) == 0
        assert '"relations_ok_after_sign_flip":true' in capsys.readouterr().out
        assert len(calls) == 1

    def test_verify_rho0(self):
        images = rho0(Rho0Config(3, 2)).letter_images()
        params = BlobParams.integral_form(2, cyclo=True)
        report, flipped_ok = verify_rho0(3, 2)
        assert report.to_json() == \
            prove_blob_representation(images, 3, params).to_json()
        assert flipped_ok == verify_presentation(
            images, 3, params.delta, params.sign_flipped()).ok


class TestMirror:
    def test_rho0_small(self):
        cert = certify_rho0(2, 1)
        assert cert.valid
        assert cert.rank == cert.basis_size == 6
        assert all(c["ok"] for c in cert.mask_checks)

    def test_identity_blob_image_fails_mask(self):
        wrong_e = SparseRepMatrix.identity(4, "cyclo")
        certs = [certify_mirror(wrong_e, factors, 2)
                 for _, factors in mirror_inputs(2)]
        assert certs[0].to_json() == certs[1].to_json()
        cert = certs[0]
        assert not cert.valid
        assert any(c["name"] == "e" and not c["ok"] for c in cert.mask_checks)
        assert cert.method == "masks-only"

    def test_missing_factor_rejected(self):
        for e, factors in mirror_inputs(3):
            broken = dict(factors)
            del broken[2]
            with pytest.raises(ValueError):
                certify_mirror(e, broken, 3)

    def test_shape_mismatch_rejected(self):
        small = SparseRepMatrix.identity(2, "cyclo")
        for _, factors in mirror_inputs(2):
            with pytest.raises(ValueError):
                certify_mirror(small, factors, 2)

    def test_empty_frame_rejected(self):
        with pytest.raises(ValueError):
            certify_mirror(SparseRepMatrix.identity(0, "cyclo"), {}, 0)

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 6)
                                     for m in range(-1, 4)])
    def test_blocks_and_full_matrices_give_one_certificate(self, n, m):
        (e, factors), (full_e, full_factors) = mirror_inputs(n, m)
        cert = certify_mirror(e, factors, n)
        assert cert.valid
        assert cert.to_json() == \
            certify_mirror(full_e, full_factors, n).to_json()
        if n <= 3:  # the two forms mixed
            assert certify_mirror(full_e, factors, n).to_json() == \
                cert.to_json() == certify_mirror(e, full_factors, n).to_json()

    @pytest.mark.parametrize("broken", ["e-on-u1-left", "e-times-zero",
                                        "u2-factors-swapped", "u1-right-moved"])
    def test_broken_inputs_give_one_certificate(self, broken):
        n = 3
        certs = []
        for e, factors in mirror_inputs(n):
            factors = dict(factors)
            if broken == "e-on-u1-left":
                e = factors[1][0]
            elif broken == "e-times-zero":
                e = times(e, CycloLaurent.from_int(0))
            elif broken == "u2-factors-swapped":
                factors[2] = factors[2][::-1]
            else:
                factors[1] = (factors[1][0], factors[2][1])
            certs.append(certify_mirror(e, factors, n))
        assert certs[0].to_json() == certs[1].to_json()
        assert not certs[0].valid and certs[0].method == "masks-only"
        assert not all(c["ok"] for c in certs[0].mask_checks)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_negated_blob_entry_fails_the_relations(self, n):
        # Every mask passes and the rank would be full, but no gamma and
        # delta_e make the images satisfy the blob relations.
        for e, factors in mirror_inputs(n):
            block = e.block if isinstance(e, Placed) else e
            entries = dict(block.entries)
            first = min(entries)
            entries[first] = -entries[first]
            block = SparseRepMatrix(block.rows_log2, block.cols_log2, entries,
                                    block.ring)
            e = Placed(e.support, block) if isinstance(e, Placed) else block
            cert = certify_mirror(e, factors, n)
            assert all(c["ok"] for c in cert.mask_checks)
            assert (cert.valid, cert.rank, cert.method) == \
                (False, 0, "relations-failed")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_doubled_blob_image_realises_doubled_scalars(self, n):
        # broken_e_images fails the relations at rho0's own gamma and
        # delta_e in both conventions, but holds them at twice those: a
        # representation of another blob algebra, which certify_mirror,
        # reading the scalars off the images, keeps valid.
        images = broken_e_images(n, 1)
        params = BlobParams.integral_form(1, cyclo=True)
        assert not any(verify_presentation(images, n, params.delta, p).ok
                       for p in (params, params.sign_flipped()))
        _, factors = mirror_inputs(n)[1]
        cert = certify_mirror(images["e"], factors, n)
        assert cert.valid and cert.method == "modular-witness"

    def test_certify_rho0_builds_no_full_generator(self, monkeypatch):
        # Full 2^(2n)-square images would hold 4^(n-1) or more entries; the
        # mask references are the local cup-cap block, so no r_matrix runs.
        # The largest products are the relation checks' u_i u_(i+1) u_i, on
        # the six factors of two adjacent windows (64 entries).
        largest, strands = [], []
        mul, r_matrix = SparseRepMatrix.mul, tensorrep.r_matrix

        def counted_mul(a, b):
            largest.append(max(a.nnz(), b.nnz()))
            return mul(a, b)

        def counted_r_matrix(d, *args, **kwargs):
            strands.append(d.n)
            return r_matrix(d, *args, **kwargs)
        monkeypatch.setattr(SparseRepMatrix, "mul", counted_mul)
        monkeypatch.setattr(tensorrep, "r_matrix", counted_r_matrix)
        assert certify_rho0(5, 1).valid
        assert largest and max(largest) <= 64 < 4 ** (5 - 1)
        assert strands == []

    def test_certificate_reproducible(self):
        assert certify_rho0(2, 2).dumps() == certify_rho0(2, 2).dumps()

    def test_factored_u_required(self):
        rep = rho0(Rho0Config(2, 1))
        with pytest.raises(TypeError):
            certify_mirror(rep.e, None, 2)
        with pytest.raises(TypeError):
            certify_mirror(rep.e, rep.u_factors, 2, unfactored_u=rep.u)


class TestBlobRepVerification:
    def test_tl_case_no_sign_flip(self):
        images = {i: r_matrix(generator_u(i, 3)) for i in (1, 2)}
        report = verify_blob_representation(
            images, 3, BlobParams.integral_form(1),
            basis=tl_basis_word_table(3))
        assert report.ok
        assert not report.sign_normalized

    @pytest.mark.parametrize("m", [1, 2])
    def test_rho0_passes_after_global_flip(self, m):
        rep = rho0(Rho0Config(2, m))
        params = BlobParams.integral_form(m, cyclo=True)
        report = verify_blob_representation(rep.letter_images(), 2, params)
        assert report.ok
        assert report.sign_normalized
        assert report.empirical_scalars["delta_e"] == -params.delta_e
        assert report.empirical_scalars["gamma"] == -params.gamma
        assert report.expected_scalars["delta_e"] == params.delta_e

    def test_broken_rep_detected(self):
        report = verify_blob_representation(
            broken_e_images(2, 1), 2, BlobParams.integral_form(1, cyclo=True))
        assert not report.ok

    def test_word_evaluator_identity(self):
        images = {i: r_matrix(generator_u(i, 3)) for i in (1, 2)}
        out = rep_word_matrix(GenWord((), 3), images, 3, "laurent")
        assert out == SparseRepMatrix.identity(3)


class TestSharedPrefixSweep:
    @pytest.mark.parametrize("n,m,broken", [
        (1, 1, False), (1, 2, False), (2, 1, False), (2, 2, False),
        (3, 1, False), (3, 2, False), (1, 1, True), (2, 2, True), (3, 1, True),
    ])
    def test_one_pass_matches_two_pass_reference(self, n, m, broken):
        images = broken_e_images(n, m) if broken else \
            rho0(Rho0Config(n, m)).letter_images()
        params = BlobParams.integral_form(m, cyclo=True)
        report = verify_blob_representation(images, n, params)
        failures, sign_normalized = two_pass_sweep(images, blob_basis_words(n),
                                                   params)
        assert report.failures == failures
        assert report.sign_normalized == sign_normalized
        assert report.ok != broken
        assert report.pairs_checked == len(blob_basis_words(n)) ** 2
        presentation = verify_presentation(images, n, params.delta, params)
        assert report.empirical_scalars == presentation.empirical_scalars

    def test_zero_rhs_holds_only_for_zero_lhs(self):
        basis = blob_basis_words(1)
        images = rho0(Rho0Config(1, 1)).letter_images()
        (d_id, w_id), (d_e, w_e) = basis.items()
        assert w_e.letters == ("e",)
        # rep(D o D') is zero for every pair composing to the blob diagram,
        # but only (identity, e) has a nonzero left-hand side.
        rep_of = {d_id: SparseRepMatrix.identity(2, "cyclo"),
                  d_e: SparseRepMatrix(2, 2, {}, "cyclo")}
        params = BlobParams.integral_form(1, cyclo=True)
        failures = _structure_constant_failures(rep_of, basis, images, params)
        assert failures == ([(w_id, w_e)], [(w_id, w_e)])
        for p, failed in zip((params, params.sign_flipped()), failures):
            expected = []
            for d1, w1 in basis.items():
                for d2, w2 in basis.items():
                    res, scalar = compose_blob(d1, d2, p)
                    lhs = fold_word(rep_of[d1], w2, images)
                    if lhs != rep_of[res.diagram].scalar_mul(scalar):
                        expected.append((w1, w2))
            assert failed == expected

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_zero_blob_image_matches_two_pass_reference(self, n, m):
        images = rho0(Rho0Config(n, m)).letter_images()
        images["e"] = SparseRepMatrix(2 * n, 2 * n, {}, "cyclo")
        params = BlobParams.integral_form(m, cyclo=True)
        report = verify_blob_representation(images, n, params)
        assert (report.failures, report.sign_normalized) == \
            two_pass_sweep(images, blob_basis_words(n), params)

    @pytest.mark.parametrize("scale_u1", [False, True])
    def test_non_prefix_closed_tl_table(self, scale_u1):
        basis = tl_basis_word_table(3)
        words = {w.letters for w in basis.values()}
        assert any(w[:-1] not in words for w in words if w)
        images = {i: r_matrix(generator_u(i, 3)) for i in (1, 2)}
        if scale_u1:
            images[1] = images[1].scalar_mul(LaurentInt.from_int(2))
        params = BlobParams.integral_form(1)
        report = verify_blob_representation(images, 3, params, basis=basis)
        assert (report.failures, report.sign_normalized) == \
            two_pass_sweep(images, basis, params)
        assert report.ok != scale_u1

    @pytest.mark.parametrize("family", ["blob-bfs", "pair-word"])
    def test_memoised_products_match_per_word(self, family):
        if family == "blob-bfs":
            words = list(blob_basis_words(3).values())
            images = rho0(Rho0Config(3, 1)).letter_images()
            dim_log2, ring = 6, "cyclo"
        else:
            words = [pair_word(p) for p in enumerate_pairs(4)]
            images = {i: r_matrix(generator_u(i, 4)) for i in (1, 2, 3)}
            dim_log2, ring = 4, "laurent"
        start = SparseRepMatrix.identity(dim_log2, ring)
        memoised = list(_prefix_products(start, words, images))
        assert memoised == [rep_word_matrix(w, images, dim_log2, ring)
                            for w in words]
        assert memoised == [fold_word(start, w, images) for w in words]

    def test_empty_word_returns_start(self):
        images = {i: r_matrix(generator_u(i, 3)) for i in (1, 2)}
        start = images[1].mul(images[2])
        out = list(_prefix_products(start, [GenWord((), 3), GenWord((1,), 3)],
                                    images))
        assert out[0] == start
        assert out[1] == start.mul(images[1])


class TestCrossChecks:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_triangularity_agrees_with_rank(self, n):
        tri = triangularity_report(n)
        cert = verify_tl_faithful(n)
        assert tri.ok == (cert.rank == cert.basis_size)
        assert tri.ok and cert.valid

    def test_mirror_rank_agrees_with_mask_implication(self):
        # mask checks passing implies the rank check succeeds
        for n, m in ((1, 1), (2, 1), (2, 2)):
            cert = certify_rho0(n, m)
            assert all(c["ok"] for c in cert.mask_checks)
            assert cert.rank == cert.basis_size

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_folded_masks_and_mirror_rank_both_hold(self, n):
        # hypothesis side: the folded basis words land on distinct diagrams
        # and any nonzero overlay of their supports stays independent;
        # conclusion side: the mirror certificate reaches full rank.
        import random
        from math import comb

        from tlblob.words import blob_basis_words, eval_word

        rng = random.Random(99)
        diagrams = set()
        masks = []
        for word in blob_basis_words(n).values():
            tl = eval_word(f_map(word)).tl_diagram
            diagrams.add(tl)
            masks.append(sorted(r_matrix(tl).entries))
        assert len(diagrams) == comb(2 * n, n)
        for _ in range(3):
            vectors = [{pos: rng.choice(OVERLAY_MENU) for pos in m}
                       for m in masks]
            assert rank_exact(vectors) == comb(2 * n, n)
        assert certify_rho0(n, 1).rank == comb(2 * n, n)


class TestFullRankWitness:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_tl_agrees_with_exact(self, n):
        vectors = tl_vectors(n)
        assert _certified_rank(vectors, 7)[0] == rank_exact(vectors) == len(vectors)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_rho0_agrees_with_exact(self, n, m):
        vectors = rho0_vectors(n, m)
        rank, method, witness = _certified_rank(vectors, 7)
        assert method == "modular-witness"
        assert check_full_rank_witness(vectors, witness)
        assert rank == rank_exact(vectors) == len(vectors)

    def test_seed_determines_witness(self):
        vectors = rho0_vectors(2, 1)
        assert full_rank_witness(vectors, seed=3) == full_rank_witness(vectors, seed=3)
        assert full_rank_witness(vectors, seed=3) != full_rank_witness(vectors, seed=4)

    def test_json_roundtrip_rechecks(self):
        import json

        vectors = rho0_vectors(2, 2)
        witness = json.loads(json.dumps(full_rank_witness(vectors, seed=7)))
        assert check_full_rank_witness(vectors, witness)

    @pytest.fixture
    def family(self):
        vectors = tl_vectors(3)
        return vectors, full_rank_witness(vectors, seed=7)

    def test_wrong_prime_rejected(self, family):
        vectors, w = family
        assert check_full_rank_witness(vectors, w)
        assert not check_full_rank_witness(vectors, dict(w, p=1000000007))

    def test_x_divisible_by_p_rejected(self, family):
        vectors, w = family
        assert not check_full_rank_witness(vectors, dict(w, x=0))
        assert not check_full_rank_witness(vectors, dict(w, x=w["p"]))

    def test_a_not_root_of_a4_plus_1_rejected(self, family):
        vectors, w = family
        assert not check_full_rank_witness(vectors, dict(w, a=w["a"] + 1))
        assert not check_full_rank_witness(vectors, dict(w, a=1))

    def test_pivot_count_and_distinctness_rejected(self, family):
        vectors, w = family
        pivots = w["pivots"]
        assert not check_full_rank_witness(vectors, dict(w, pivots=pivots[:-1]))
        assert not check_full_rank_witness(vectors, dict(w, pivots=pivots + [(0, 0)]))
        duplicated = pivots[:-1] + [pivots[0]]
        assert not check_full_rank_witness(vectors, dict(w, pivots=duplicated))

    def test_zero_minor_rejected(self, family):
        vectors, w = family
        # a column outside every support makes the minor zero
        absent = w["pivots"][:-1] + [(99, 99)]
        assert not check_full_rank_witness(vectors, dict(w, pivots=absent))
        # a dependent family has every maximal minor zero
        dependent = vectors[:-1] + [dict(vectors[0])]
        assert not check_full_rank_witness(dependent, w)

    def test_malformed_witness_rejected(self, family):
        vectors, w = family
        for bad in (None, {}, dict(w, x="1"), dict(w, p=True), dict(w, pivots=[[[0]]] * 5)):
            assert not check_full_rank_witness(vectors, bad)
        # Pivots equal to the right ones but not ints: floats, and True in
        # place of 1.
        floats = [[float(r), float(c)] for r, c in w["pivots"]]
        bools = [[True if k == 1 else k for k in c] for c in w["pivots"]]
        assert any(True in c for c in bools)
        for pivots in (floats, bools):
            assert not check_full_rank_witness(vectors, dict(w, pivots=pivots))
        # Packed int columns, as the certificate chains key them.
        _, _, packed = reference_module._pair_word_vectors(3)
        w = full_rank_witness(packed, seed=7)
        assert check_full_rank_witness(packed, w) and 0 in w["pivots"]
        for pivots in ([float(c) for c in w["pivots"]],
                       [False if c == 0 else c for c in w["pivots"]],
                       [(c,) for c in w["pivots"]]):
            assert not check_full_rank_witness(packed, dict(w, pivots=pivots))
