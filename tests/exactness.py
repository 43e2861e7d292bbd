"""Hashes of exact outputs, for checking that a refactor changes no value.

Each table is written as canonical text (every scalar by ``format_scalar``,
which is unique for a canonical scalar) and hashed with sha256:

* ``jones_wenzl``: the projectors f_K for K <= 9 generic and K < r at
  r = 3..8, one line per diagram, diagrams sorted;
* ``gram``: the Gram matrices of every pair of criterion 6 and 7 colour
  sequences with |s| + |t| <= 6 and even (generic, r = 3, 4, 5).

Run ``PYTHONPATH=src:tests python tests/exactness.py`` to print the digests.
"""

import hashlib

from skeinrep.scalars import GENERIC, RootMode, format_scalar
from skeinrep.tl_category import jones_wenzl
from skeinrep.turaev import gram_matrix, seq_size

ROOTS_JW = (3, 4, 5, 6, 7, 8)
ROOTS_GRAM = (3, 4, 5)


def _color_seqs(colors, max_size):
    out, frontier = [()], [()]
    while frontier:
        frontier = [s + (c,) for s in frontier for c in colors
                    if sum(s) + c <= max_size]
        out.extend(frontier)
    return out


def jones_wenzl_lines():
    cases = [(k, GENERIC) for k in range(10)]
    cases += [(k, RootMode(r)) for r in ROOTS_JW for k in range(r)]
    for k, mode in cases:
        terms = jones_wenzl(k, mode).morphism.terms
        yield f"{mode} f_{k}: {len(terms)} terms"
        for d in sorted(terms, key=lambda d: d.match):
            yield f"{mode} f_{k} {d.match}: {format_scalar(terms[d])}"


def gram_lines():
    cases = [(GENERIC, (1, 2, 3))]
    cases += [(RootMode(r), tuple(range(1, r - 1))) for r in ROOTS_GRAM]
    for mode, colors in cases:
        seqs = _color_seqs(colors, 6)
        for s in seqs:
            for t in seqs:
                n = seq_size(s) + seq_size(t)
                if n > 6 or n % 2:
                    continue
                g = gram_matrix(s, t, mode)
                yield f"{mode} {s} {t}: {len(g)} rows"
                for i, row in enumerate(g):
                    yield f"{mode} {s} {t} {i}: " + ", ".join(
                        format_scalar(x) for x in row)


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


if __name__ == "__main__":
    print("jones_wenzl", digest(jones_wenzl_lines()))
    print("gram", digest(gram_lines()))
