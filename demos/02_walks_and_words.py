"""Walks, the envelope order, and the word map onto diagrams.

Run with:  python demos/02_walks_and_words.py
"""

from tlblob import (
    WalkPair,
    enumerate_pairs,
    enumerate_walks,
    eval_word,
    format_word,
    hasse_edges,
    linear_extension,
    pair_word,
)
from tlblob.reference import walk_from_string

# ---------------------------------------------------------------------------
# A walk records column moves +1/-1 that never leave the nonnegative side.
# Same-endpoint pairs of walks index the diagram basis: their count is the
# sum of squares over endpoints, a Catalan number.
# ---------------------------------------------------------------------------
n = 4
for c in range(n % 2, n + 1, 2):
    walks = enumerate_walks(n, c)
    print(f"walks of length {n} ending at column {c}:",
          ", ".join(repr(w) for w in walks))
print("total pairs:", len(enumerate_pairs(n)))

# ---------------------------------------------------------------------------
# Each pair maps to a generator word: the lowest pair of a lattice gives the
# alternating base word, and every raising move of a walk prepends (left) or
# appends (right) a generator.
# ---------------------------------------------------------------------------
print()
for a, b in (("1212", "1212"), ("1122", "1212"), ("1111", "1111")):
    p = WalkPair(walk_from_string(a), walk_from_string(b))
    word = pair_word(p)
    ev = eval_word(word)
    print(f"pair ({a},{b}) -> word '{format_word(word)}' -> {ev.tl_diagram}")
    assert ev.loop_free

# The diagrams obtained this way exhaust the diagram basis, one per pair.
diagrams = {eval_word(pair_word(p)).tl_diagram for p in enumerate_pairs(n)}
print()
print(f"distinct diagrams from {len(enumerate_pairs(n))} pairs:", len(diagrams))

# ---------------------------------------------------------------------------
# The envelope order on pairs is containment of their drawings.  Its Hasse
# diagram at n = 3, with pairs listed in a linear extension:
# ---------------------------------------------------------------------------
pairs = linear_extension(enumerate_pairs(3))
index = {p: i for i, p in enumerate(pairs)}
print()
print("pairs in linear-extension order:", [f"{p.a!r}|{p.b!r}" for p in pairs])
print("cover relations:", sorted((index[p], index[q]) for p, q in hasse_edges(pairs)))
