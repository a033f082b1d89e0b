"""Tensor-space matrices: exact entries, relations, masks, independence.

Run with:  python demos/03_tensor_matrices.py
"""

from tlblob import (
    enumerate_tl,
    generator_u,
    index_to_seq,
    quantum_integer,
    r_matrix,
    triangularity_report,
    verify_mask_independence,
    verify_presentation,
    verify_r_composition,
    verify_tl_faithful,
)

# ---------------------------------------------------------------------------
# The matrix of a diagram lives on rows/columns indexed by {1,2}^n.  Every
# entry is a signed power of x (q = x^2): arcs weight their two admissible
# labellings by x and 1/x, through-lines just copy labels.
# ---------------------------------------------------------------------------
mat = r_matrix(generator_u(1, 2))
print("matrix of the cup-cap generator on two strands:")
for (r, c), val in sorted(mat.entries.items()):
    print(f"  row {index_to_seq(r, 2)}, col {index_to_seq(c, 2)}: {val!r}")

# The defining relations hold symbolically, with [2] = q + 1/q.
n = 6
images = {i: r_matrix(generator_u(i, n)) for i in range(1, n)}
print()
print(f"cup-cap relations at n = {n}:",
      "all hold" if verify_presentation(images, n, quantum_integer(2)).ok else "FAIL")

# Multiplying matrices tracks diagram composition exactly, loop factors
# included -- swept over every pair of basis diagrams.
print(f"composition identity at n = 4:",
      "all 196 pairs agree" if not verify_r_composition(4) else "FAIL")

# ---------------------------------------------------------------------------
# Supports (masks) do not depend on the parameter, and the triangularity of
# word matrices over the walk order forces linear independence.
# ---------------------------------------------------------------------------
from tlblob.rings import CycloInt, CycloLaurent
from tlblob.tensorrep import mask

other_unit = CycloLaurent({1: CycloInt.a_power(1)})
same = all(mask(r_matrix(d)) == mask(r_matrix(d, unit=other_unit))
           for d in enumerate_tl(4, 4))
print()
print("masks at an independent parameter agree on D(4,4):", same)

report = triangularity_report(5)
print("triangularity at n = 5:", "clean" if report.ok else report.failures[:3])

cert = verify_tl_faithful(5)
print(f"rank of the 42 word matrices at n = 5: {cert.rank}/{cert.basis_size}",
      f"({cert.method})")

overlays = verify_mask_independence(4, trials=10)
print("10 random unit overlays at n = 4 keep full rank:", overlays.ok)
