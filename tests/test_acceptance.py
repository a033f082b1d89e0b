"""Acceptance suite: every criterion is exact (ring equality), desk scale.

Each test prints one pass/fail line; run with ``pytest -s`` to stream them.
"""

import itertools
import time
from math import comb

from tlblob.blobrep import verify_blob_representation
from tlblob.diagrams import compose_tl, generator_u
from tlblob.rings import BlobParams, CycloInt, CycloLaurent, LaurentInt, quantum_integer
from tlblob.codes import seq_to_index
from tlblob.tensorrep import mask, r_matrix, rho0, Rho0Config
from tlblob.faithful import (
    certify_rho0,
    tl_word_matrix,
    triangularity_report,
    verify_r_composition,
    verify_tl_faithful,
)
from tlblob.reference import (
    enumerate_blob,
    enumerate_tl,
    f_map,
    reflect,
    verify_mask_independence,
    walk_from_string,
)
from tlblob.walks import WalkPair, enumerate_pairs, pair_word
from tlblob.words import blob_basis_words, eval_word, verify_presentation

CATALAN = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132}


def report(num, desc, ok, extra=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {desc}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def test_c01_presentation_relations():
    ok = True
    for n in range(2, 9):
        images = {i: r_matrix(generator_u(i, n)) for i in range(1, n)}
        ok = ok and verify_presentation(images, n, quantum_integer(2)).ok
    report(1, "cup-cap relations hold symbolically for n = 2..8", ok)


def test_c02_composition_identity():
    t0 = time.time()
    ok = True
    for n in range(1, 6):
        ok = ok and not verify_r_composition(n)
    elapsed = time.time() - t0
    report(2, "R(D) R(D') = [2]^loops R(D o D') for all pairs, n <= 5",
           ok and elapsed < 120, f"{elapsed:.1f}s")


def test_c03_mask_parameter_independence():
    second = CycloLaurent({1: CycloInt.a_power(1)})
    third = LaurentInt.x_power(3)
    ok = True
    for d in enumerate_tl(4, 4):
        base = mask(r_matrix(d))
        ok = ok and base == mask(r_matrix(d, unit=second))
        ok = ok and base == mask(r_matrix(d, unit=third))
    report(3, "masks agree across independent formal parameters on all of D(4,4)", ok)


def test_c04_pair_words_biject():
    ok = True
    for n in range(1, 7):
        diagrams = set()
        for p in enumerate_pairs(n):
            ev = eval_word(pair_word(p))
            ok = ok and ev.loop_free
            diagrams.add(ev.tl_diagram)
        ok = ok and len(diagrams) == len(enumerate_pairs(n)) == CATALAN[n]
        ok = ok and diagrams == set(enumerate_tl(n, n))
    report(4, "pair words are loop free and diagram-bijective for n <= 6", ok)


def test_c05_triangularity():
    ok = all(triangularity_report(n).ok for n in range(2, 7))
    low = walk_from_string("1212")
    anchor = tl_word_matrix(pair_word(WalkPair(low, low)))
    k = seq_to_index((1, 2, 1, 2))
    ok = ok and anchor.entries.get((k, k)) == LaurentInt({4: 1})
    report(5, "triangularity holds for n <= 6, anchor diagonal entry is q^2", ok)


def test_c06_exact_rank():
    t0 = time.time()
    ok = True
    ranks = {}
    for n, expected in ((2, 2), (3, 5), (4, 14), (5, 42)):
        cert = verify_tl_faithful(n)
        ranks[n] = cert.rank
        ok = ok and cert.valid and cert.rank == expected
    elapsed = time.time() - t0
    report(6, "exact rank of pair-word matrices is 2, 5, 14, 42 for n = 2..5",
           ok and elapsed < 300, f"ranks={ranks}, {elapsed:.1f}s")


def test_c07_mask_overlays_keep_rank():
    ok = True
    for n in (2, 3, 4):
        rep = verify_mask_independence(n, trials=25, seed=7)
        ok = ok and rep.ok and len(rep.ranks) == 25
    report(7, "25 seeded unit overlays preserve full rank for n <= 4", ok)


def test_c08_blob_enumeration():
    counts = {n: len(enumerate_blob(n)) for n in range(1, 6)}
    ok = counts == {n: comb(2 * n, n) for n in range(1, 6)} \
        and list(counts.values()) == [2, 6, 20, 70, 252]
    report(8, "blob diagram counts are 2, 6, 20, 70, 252 for n = 1..5", ok,
           f"counts={list(counts.values())}")


def test_c09_basis_words_and_folding():
    ok = True
    for n in range(1, 6):
        table = blob_basis_words(n)
        ok = ok and len(table) == comb(2 * n, n)
        ok = ok and all(eval_word(w).loop_free and eval_word(w).diagram == d
                        for d, w in table.items())
    for n in range(1, 5):
        images = set()
        for word in blob_basis_words(n).values():
            ev = eval_word(f_map(word))
            ok = ok and ev.loop_free
            tl = ev.tl_diagram
            ok = ok and reflect(tl) == tl
            images.add(tl)
        ok = ok and len(images) == comb(2 * n, n)
    report(9, "loop-free basis words cover all blob diagrams (n <= 5); folded "
              "words are distinct and symmetric (n <= 4)", ok)


def test_c10_mirror_certification():
    t0 = time.time()
    ok = True
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            cert = certify_rho0(n, m)
            ok = ok and cert.valid and cert.rank == comb(2 * n, n)
            ok = ok and all(c["ok"] for c in cert.mask_checks)
    elapsed = time.time() - t0
    stretch = certify_rho0(4, 1)
    ok_stretch = stretch.valid and stretch.rank == 70
    report(10, "mirror masks pass and basis images have full rank "
               "(n <= 3, m in {1,2,3}; n = 4 stretch)",
           ok and ok_stretch and elapsed < 600,
           f"n<=3 in {elapsed:.1f}s, stretch rank {stretch.rank}/70")


def test_c11_relation_verification():
    ok = True
    lines = []
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            rep = rho0(Rho0Config(n, m))
            params = BlobParams.integral_form(m, cyclo=True)
            rpt = verify_blob_representation(rep.letter_images(), n, params)
            ok = ok and rpt.ok and rpt.sign_normalized
            ok = ok and rpt.empirical_scalars["delta_e"] == -params.delta_e
            if n >= 2:
                ok = ok and rpt.empirical_scalars["gamma"] == -params.gamma
            if n == 3:
                lines.append(
                    f"m={m}: observed gamma = {rpt.empirical_scalars['gamma']!r} "
                    f"vs q^(m-1)-q^(1-m) = {params.gamma!r}; "
                    f"observed delta_e = {rpt.empirical_scalars['delta_e']!r} "
                    f"vs q^m-q^(-m) = {params.delta_e!r}"
                )
    for line in lines:
        print("    " + line)
    report(11, "structure constants verify after one global sign normalization, "
               "with observed scalars reported (n <= 3, m in {1,2,3})", ok)


def test_c12_cross_check():
    ok = True
    for n in (2, 3, 4, 5):
        tri = triangularity_report(n)
        cert = verify_tl_faithful(n)
        ok = ok and tri.ok == (cert.rank == cert.basis_size)
        ok = ok and tri.ok and cert.valid
    report(12, "triangularity-implied independence agrees with direct rank "
               "for every n tested", ok)
