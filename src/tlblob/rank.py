"""Re-checkable modular full-rank witnesses.

The vectors are sparse mappings {column: entry}.  An entry is a ring
element of ``rings`` or its one-int code (``codes._unit_code``); one call
takes one kind.  ``full_rank_witness`` and ``check_full_rank_witness``
prove full rank by a minor that is nonzero at a point mod p, drawn from
the seed (``certificate._trial_points``).  The certificates' fallback,
fraction-free (Bareiss) elimination over the fraction field
(``rank_exact``), and the witness-free lower bound ``rank_modular`` live
in ``tlblob.reference``: a certificate whose witness checks never runs
them.  ``FaithfulnessCertificate``, the rank with its method and witness,
lives in ``tlblob.certificate``, so that ``verify-tl`` writes one without
loading this module.
"""

from .certificate import _MODULAR_PRIME, _trial_points

__all__ = ["full_rank_witness", "check_full_rank_witness"]


def _holds_codes(vectors):
    """Whether the vectors' entries are codes (ints) rather than ring elements."""
    for vec in vectors:
        for value in vec.values():
            return type(value) is int
    return False


def _restrict(vectors, cols):
    """The vectors' entries in ``cols``, one pass over each vector's keys."""
    cols = set(cols)
    return [{c: e for c, e in v.items() if c in cols} for v in vectors]


def _evaluate_rows(vectors, x_val, a_val, p, cols=None):
    """Each vector's image under x -> x_val, a -> a_val, as {col: residue}.

    With ``cols`` given, only those columns are evaluated.  Each packed key
    8e + k is turned into x_val^e a_val^k mod p once per call, through a
    table filled as keys appear; the residues are those of ``evaluate_mod``.
    """
    if cols is not None:
        vectors = _restrict(vectors, cols)
    table = {}
    rows = []
    for v in vectors:
        row = {}
        for col, elem in v.items():
            acc = 0
            for key, c in elem.terms.items():
                m = table.get(key)
                if m is None:
                    m = table[key] = pow(x_val, key >> 3, p) * pow(a_val, key & 7, p) % p
                acc += c * m
            if acc % p:
                row[col] = acc % p
        rows.append(row)
    return rows


def _evaluate_codes(vectors, x_val, a_val, p, cols=None):
    """``_evaluate_rows`` for vectors of codes.

    Each distinct code is evaluated once.  A unit is never zero mod p, so
    every entry is kept.
    """
    if cols is not None:
        vectors = _restrict(vectors, cols)
    table = {}
    for code in set().union(*(v.values() for v in vectors)):
        key = code >> 1
        m = pow(x_val, key >> 3, p) * pow(a_val, key & 7, p) % p
        table[code] = p - m if code & 1 else m
    return [{k: table[c] for k, c in v.items()} for v in vectors]


def _rank_mod_p(int_rows, p):
    """Pivot columns of an echelon form mod p; their count is the rank.

    Each row is keyed by its leading (smallest) column with a nonzero
    residue.  While a pivot row owns that column, the row is reduced by the
    multiple of the pivot row that clears it; a row that vanishes is
    dependent, any other becomes the pivot row of its leading column.  Only
    the row being reduced is written to (a copy, made at its first
    reduction); the input rows are never copied up front or mutated.

    The pivot set depends only on the span V of the rows mod p.  Every
    pivot row lies in V and the pivot rows have distinct leading columns,
    so they are rank(V) distinct leading columns of vectors in V.  V has
    exactly dim V leading columns (the pivots of its reduced echelon form),
    so the two sets are equal, whatever the order of the rows or of the
    reduction.  Eager Gaussian elimination meets the same conditions and
    names the same set, so a sorted witness keeps its bytes.  When every
    row yields a pivot, the minor on the pivot columns is nonzero mod p:
    ordered by leading column, the pivot rows restricted to them are
    triangular with nonzero diagonal.
    """
    pivot_rows = {}
    inverses = {}
    for row in int_rows:
        lead = min(row, default=None)
        if lead is not None and not row[lead] % p:
            lead = min((k for k, v in row.items() if v % p), default=None)
        copied = False
        while lead in pivot_rows:
            if not copied:
                row = {k: v % p for k, v in row.items() if v % p}
                copied = True
            pivot = pivot_rows[lead]
            inv = inverses.get(lead)
            if inv is None:
                inv = inverses[lead] = pow(pivot[lead], p - 2, p)
            f = row[lead] * inv % p
            for k, v in pivot.items():
                r = (row.get(k, 0) - f * v) % p
                if r:
                    row[k] = r
                else:
                    row.pop(k, None)
            row.pop(lead, None)  # already cancelled; dropping it ensures progress
            lead = min(row, default=None)
        if lead is not None:
            pivot_rows[lead] = row
    return list(pivot_rows)


def full_rank_witness(vectors, trials=5, seed=0):
    """A re-checkable proof that ``vectors`` are independent, or None.

    x -> x0 != 0 and a -> a0 with a0^4 = -1 (mod p) is a ring map from
    Z[a, x, x^-1]/(a^4 + 1) to F_p, so a nonzero minor mod p is the image of
    a nonzero minor over the ring.  The witness names the point and the
    columns of one such minor: {"p", "x", "a", "pivots"}.  None means no
    trial reached full rank; it proves nothing either way.  The entries may
    be ring elements or codes (``codes._unit_code``).
    """
    p = _MODULAR_PRIME
    points = _trial_points(trials, seed, p)
    vecs = list(vectors)
    if not vecs:
        return None
    evaluate = _evaluate_codes if _holds_codes(vecs) else _evaluate_rows
    for x_val, a_val in points:
        pivots = _rank_mod_p(evaluate(vecs, x_val, a_val, p), p)
        if len(pivots) == len(vecs):
            return {"p": p, "x": x_val, "a": a_val, "pivots": sorted(pivots)}
    return None


def _column_key(col):
    # JSON turns (row, col) keys into lists; compare them as tuples.
    return tuple(col) if isinstance(col, list) else col


def check_full_rank_witness(vectors, witness):
    """True iff ``witness`` proves that ``vectors`` have full rank.

    Checks that p, x, a and every pivot (or each part of a tuple pivot)
    are ints, not bools; the prime; that x is a unit and a a root of
    a^4 + 1 mod p; that the pivots are one distinct column per vector; and
    that the minor on those columns is nonzero mod p.  Accepts a witness
    read back from JSON.
    """
    vecs = list(vectors)
    try:
        p, x_val, a_val = (witness[k] for k in ("p", "x", "a"))
        pivots = [_column_key(c) for c in witness["pivots"]]
        one_per_vector = len(set(pivots)) == len(pivots) == len(vecs)
    except (KeyError, TypeError):  # missing field, or an unhashable column
        return False
    parts = [k for c in pivots for k in (c if type(c) is tuple else (c,))]
    if not one_per_vector or \
            not all(type(v) is int for v in (p, x_val, a_val, *parts)):
        return False
    if p != _MODULAR_PRIME or x_val % p == 0 or pow(a_val, 4, p) != p - 1:
        return False
    evaluate = _evaluate_codes if _holds_codes(vecs) else _evaluate_rows
    minor = evaluate(vecs, x_val, a_val, p, cols=pivots)
    return len(_rank_mod_p(minor, p)) == len(vecs)
