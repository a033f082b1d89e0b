"""The blob basis, the folding map, and the faithfulness certificate.

Run with:  python demos/04_blob_mirror_certification.py
"""

from math import comb

from tlblob import (
    BlobParams,
    Rho0Config,
    blob_basis_words,
    certify_rho0,
    eval_word,
    f_map,
    format_word,
    reflect,
    rho0,
    verify_blob_representation,
)

# ---------------------------------------------------------------------------
# Every blob diagram is reachable by a loop-free generator word; the search
# is breadth-first, so words are short and the table is reproducible.
# ---------------------------------------------------------------------------
n = 2
table = blob_basis_words(n)
print(f"loop-free words for the {len(table)} blob diagrams on {n} strands:")
for diagram, word in table.items():
    print(f"  '{format_word(word) or '1'}'  ->  {diagram}")

# Folding e -> u0, u_i -> u-i u_i doubles the strand count; the images are
# exactly the left-right symmetric diagrams, one per basis element.
print()
print("folded words (doubled, shifted indices):")
for diagram, word in table.items():
    fw = f_map(word)
    ev = eval_word(fw)
    assert ev.loop_free and reflect(ev.tl_diagram) == ev.tl_diagram
    print(f"  '{format_word(fw) or '1'}'  ->  {ev.tl_diagram}")

# ---------------------------------------------------------------------------
# The explicit blob representation on 2n tensor factors: the blob image is a
# weighted middle placement, each cup-cap image factors into mirrored left
# and right placements.  Certification needs only the supports of those
# factors plus one rank certificate (a modular full-rank witness).
# ---------------------------------------------------------------------------
print()
for m in (1, 2, 3):
    cert = certify_rho0(n=3, m=m)
    masks = all(c["ok"] for c in cert.mask_checks)
    print(f"n=3, m={m}: mirror masks {'pass' if masks else 'FAIL'}, "
          f"rank {cert.rank}/{cert.basis_size} = C(6,3), valid={cert.valid}")

# The defining relations hold after one global sign normalization (negating
# the blob image negates both structure scalars); the observed scalars are
# reported next to the configured ones.
print()
rep = rho0(Rho0Config(2, 2))
params = BlobParams.integral_form(2, cyclo=True)
report = verify_blob_representation(rep.letter_images(), 2, params)
print("structure constants on all basis pairs:", "pass" if report.ok else "FAIL")
print("  sign normalization applied:", report.sign_normalized)
print("  observed delta_e:", repr(report.empirical_scalars["delta_e"]))
print("  configured delta_e:", repr(params.delta_e))
print("  observed gamma:  ", repr(report.empirical_scalars["gamma"]))
print("  configured gamma:  ", repr(params.gamma))
assert comb(4, 2) == 6
