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
"""

from __future__ import annotations

from .scalars import _contract

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
    keyed by pivot column.  With ``track=True`` each stored row carries the
    combination of originally added vectors that produced it, so membership
    queries can return coordinates.
    """

    def __init__(self, track: bool = False):
        self.rows: dict = {}  # pivot column -> vec
        self.augs: dict = {}  # pivot column -> aug dict (when tracking)
        self.track = track
        self._count = 0  # vectors added so far (used as default aug tags)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def pivots(self) -> list:
        return sorted(self.rows)

    def reduce(self, vec: Vec, aug: Vec | None = None):
        """Fully reduce a vector against the stored rows.

        Returns the residual, or (residual, aug_residual) when tracking.
        """
        v = dict(vec)
        a = dict(aug) if aug is not None else ({} if self.track else None)
        for p in sorted(self.rows):
            c = v.get(p)
            if c is not None:
                v = vec_sub_scaled(v, self.rows[p], c)
                if self.track:
                    a = vec_sub_scaled(a, self.augs[p], c)
        if self.track:
            return v, a
        return v

    def add(self, vec: Vec, tag=None):
        """Add a vector; returns its pivot column, or None if dependent."""
        if self.track:
            if tag is None:
                tag = self._count
            one = None
            for x in vec.values():
                one = x / x
                break
            aug = {tag: one} if one is not None else {}
            v, a = self.reduce(vec, aug)
        else:
            v = self.reduce(vec)
            a = None
        self._count += 1
        if not v:
            return None
        p = min(v)
        cinv = v[p].inv()
        v = vec_scale(v, cinv)
        if self.track:
            a = vec_scale(a, cinv)
        # back-substitute into earlier rows
        for p2, row in list(self.rows.items()):
            c = row.get(p)
            if c is not None:
                self.rows[p2] = vec_sub_scaled(row, v, c)
                if self.track:
                    self.augs[p2] = vec_sub_scaled(self.augs[p2], a, c)
        self.rows[p] = v
        if self.track:
            self.augs[p] = a
        return p

    def contains(self, vec: Vec) -> bool:
        if self.track:
            return not self.reduce(vec)[0]
        return not self.reduce(vec)

    def coordinates(self, vec: Vec) -> Vec | None:
        """Coordinates of vec in the added vectors (by tag), or None.

        Requires track=True.  An empty dict means vec is zero.
        """
        if not self.track:
            raise ValueError("Eliminator was not built with track=True")
        v, a = self.reduce(vec)
        if v:
            return None
        return {t: -c for t, c in a.items()}


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


def independent_subset(vectors) -> list:
    """Indices of the greedy (first independent) subset, in order."""
    el = Eliminator()
    out = []
    for i, v in enumerate(vectors):
        if el.add(v) is not None:
            out.append(i)
    return out
