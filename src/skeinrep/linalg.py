"""Exact Gaussian elimination over the package's scalar fields.

Vectors are sparse dicts (column index -> scalar, zeros absent).  The
:class:`Eliminator` maintains a reduced row echelon basis incrementally;
since RREF is unique, its pivot columns are the lexicographically first
independent columns of the matrix whose rows were added, independent of
any pivoting heuristic.

The batch routes (:func:`rank`, :func:`column_rank_profile`,
:func:`rref_rows`, :func:`kernel_basis`) add their rows right to left, by
first column in descending order.  The RREF of a row space does not depend
on the order its rows arrive in, so every result is the same as in input
order; only the cost changes.  A row that starts left of every stored row
meets no stored row holding its pivot column, so the back-substitution
that dominates input-order elimination mostly has nothing to do.

:func:`certified_profile` stands in front of that elimination.  Given an
exact upper bound on a matrix's rank and its image under a ring map into
F_p (scalars.mod_map), it returns the columns independent mod p when
there are as many as the bound, which proves the rank; otherwise it
returns the exact column rank profile.  Either way the count is the exact
rank.  No modular rank is reported unproven, and an image of rank above
the bound, which proves the bound wrong, raises ArithmeticError.
"""

from __future__ import annotations

from .scalars import MOD_PRIME, _contract

Vec = dict


def vec_sub_scaled(u: Vec, v: Vec, c) -> Vec:
    """u - c*v as a new dict, each entry one contraction of (s, 1), (-c, x)
    in the field of c."""
    mode = c.mode
    one, neg = mode.signs[0], -c
    out = dict(u)
    for col, x in v.items():
        s = out.get(col)
        s = _contract(((neg, x),) if s is None else ((s, one), (neg, x)), mode)
        if s.is_zero():
            out.pop(col, None)
        else:
            out[col] = s
    return out


def vec_scale(v: Vec, c) -> Vec:
    if c.is_zero():
        return {}
    return {col: c * x for col, x in v.items()}


class Eliminator:
    """Incremental RREF accumulator.

    Stored rows have pivot coefficient one, are fully inter-reduced, and are
    keyed by pivot column.
    """

    def __init__(self):
        self.rows: dict = {}  # pivot column -> vec

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivots(self) -> list:
        return sorted(self.rows)

    def reduce(self, vec: Vec) -> Vec:
        """The residual of a vector fully reduced against the stored rows."""
        v = dict(vec)
        for p in sorted(self.rows):
            c = v.get(p)
            if c is not None:
                v = vec_sub_scaled(v, self.rows[p], c)
        return v

    def add(self, vec: Vec):
        """Add a vector; returns its pivot column, or None if dependent."""
        v = self.reduce(vec)
        if not v:
            return None
        p = min(v)
        v = vec_scale(v, v[p].inv())
        # back-substitute into earlier rows
        for p2, row in list(self.rows.items()):
            c = row.get(p)
            if c is not None:
                self.rows[p2] = vec_sub_scaled(row, v, c)
        self.rows[p] = v
        return p

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)

    def coordinates(self, vec: Vec) -> Vec | None:
        """Coefficients of vec against the stored rows, keyed by pivot
        column, or None if vec is outside their span.  Each row is one at
        its own pivot and zero at every other, so they are vec's entries at
        the pivots."""
        if self.reduce(vec):
            return None
        return {p: c for p, c in vec.items() if p in self.rows}


def _reduced(rows) -> Eliminator:
    # the nonzero rows, rightmost first column first (see the module doc)
    el = Eliminator()
    for r in sorted((r for r in rows if r), key=min, reverse=True):
        el.add(r)
    return el


def rank(rows) -> int:
    return _reduced(rows).rank


def column_rank_profile(rows) -> list:
    """Lexicographically first independent column set (RREF pivot columns)."""
    return _reduced(rows).pivots()


def rref_rows(rows) -> list:
    """RREF nonzero rows in pivot order."""
    el = _reduced(rows)
    return [el.rows[p] for p in el.pivots()]


def kernel_basis(rows, ncols: int, one) -> list:
    """Right kernel basis vectors, one per free column, ascending."""
    el = _reduced(rows)
    pivset = set(el.rows)
    out = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = {f: one}
        for p, row in el.rows.items():
            c = row.get(f)
            if c is not None:
                v[p] = -c
        out.append(v)
    return out


def transpose(vectors) -> list:
    """The nonzero rows of the matrix whose columns are the vectors."""
    rows: dict = {}
    for j, v in enumerate(vectors):
        for i, x in v.items():
            rows.setdefault(i, {})[j] = x
    return list(rows.values())


def independent_subset(vectors) -> list:
    """Indices of the greedy (first independent) subset, in order: the
    column rank profile of the matrix whose columns are the vectors."""
    return column_rank_profile(transpose(vectors))


# ---------------------------------------------------------------------------
# the certificate in front of the exact routes

def _mod_profile(images, bound: int) -> list:
    """Pivot columns of a matrix over F_p, p = MOD_PRIME, given as dense
    rows of ints, left to right and at most bound of them.  Each row keeps
    only its columns from the current one on, so a nonzero row left once
    bound pivots are found is one more independent column: ArithmeticError,
    since bound is meant to be an upper bound on the rank."""
    p = MOD_PRIME
    rows = [r for r in images if any(r)]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        if len(pivots) == bound:
            if any(map(any, rows)):
                raise ArithmeticError(f"more than {bound} columns are "
                                      "independent mod p, above the rank "
                                      "bound")
            break
        i = next((i for i, r in enumerate(rows) if r[0]), None)
        if i is None:
            rows = [r[1:] for r in rows]
            continue
        pivot = rows.pop(i)
        inv, tail = pow(pivot[0], -1, p), pivot[1:]
        out = []
        for r in rows:
            x = r[0]
            if x:
                f = x * inv % p
                r = [(y - f * z) % p for y, z in zip(r[1:], tail)]
            else:
                r = r[1:]
            out.append(r)
        rows = out
        pivots.append(col)
    return pivots


def certified_profile(bound: int, images, rows) -> list:
    """A column basis of a matrix M of rank at most bound, as ascending
    column indices: its rank is their count.

    images is phi(M) for a ring map phi from the field of M into F_p
    (dense rows of ints), or None when phi is undefined on M; rows() gives
    the sparse rows of M.  No ring map raises rank, so
    rank_p(phi(M)) <= rank(M) <= bound.  When bound columns of phi(M) are
    independent, the same columns of M are independent, and they number
    rank(M): a basis, proven.  Otherwise M is eliminated exactly, and the
    basis is column_rank_profile(rows()), so every count returned is the
    exact rank.  Apart from its count, a certified basis need not be the
    lexicographically first one.  An image of rank above bound proves the
    bound wrong and raises ArithmeticError; no count is returned then."""
    if images is not None:
        pivots = _mod_profile(images, bound)
        if len(pivots) == bound:
            return pivots
    elif bound == 0:
        return []
    return column_rank_profile(rows())
