"""Independent checks of every benchmark operation.

Each check recomputes the expected value by a route disjoint from the one
the operation took: hom dimensions by fusion counts and brackets by the state
sum (both from ``tests/oracles.py``), projector closures by a circle count
written here, and Gram ranks by evaluating the printed matrix at a point of
a prime field.  A check returns True or False and never raises for a wrong
value, so a tampered result is counted, not fatal.
"""

import env  # noqa: F401  (puts src/ and tests/ on sys.path)

from oracles import hom_dimension, state_sum_bracket
from skeinrep.diagrams import parse_word
from skeinrep.scalars import GENERIC, RootMode, parse_scalar, specialize
from skeinrep.tl_category import markov_closure

from inputs import word_text


def mode_of(r):
    return GENERIC if r is None else RootMode(r)


def quantum_int(n, mode):
    """[n] = q^(n-1) + q^(n-3) + ... + q^(1-n) with q = a^2."""
    out = mode.zero()
    for j in range(n):
        out = out + mode.a_power(2 * (n - 1 - 2 * j))
    return out


def expected_closure(k, mode):
    """Markov closure of the k-strand projector: (-1)^k [k+1]."""
    value = quantum_int(k + 1, mode)
    return -value if k % 2 else value


def closure_of_rows(k, rows, mode):
    """Plain closure of sum(c * diagram) from 1-indexed involution arrays.

    Bottom point i joins top point k+i around the side; circles are the
    components of the matching plus those joins, each worth delta.
    """
    delta = -(mode.a_power(2) + mode.a_power(-2))
    total = mode.zero()
    for arr, c in rows:
        parent = list(range(2 * k))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for p, q in enumerate(arr):
            parent[find(p)] = find(q - 1)
        for i in range(k):
            parent[find(i)] = find(k + i)
        circles = len({find(x) for x in range(2 * k)})
        term = c
        for _ in range(circles):
            term = term * delta
        total = total + term
    return total


def identity_array(k):
    return list(range(k + 1, 2 * k + 1)) + list(range(1, k + 1))


def check_projector(k, rows, closure, mode):
    """Identity coefficient 1, and both closures equal (-1)^k [k+1]."""
    ident = identity_array(k)
    coeff = [c for arr, c in rows if list(arr) == ident]
    want = expected_closure(k, mode)
    return (len(coeff) == 1 and coeff[0] == mode.one()
            and closure_of_rows(k, rows, mode) == want
            and (closure is None or closure == want))


def check_pair(report, s, t, r):
    return (report.verdict == "iso"
            and report.dim_diagram_side == hom_dimension(s, t, r))


def check_trace(value, endo):
    """closure_trace(f) == (-1)^n markov_closure(f)."""
    plain = markov_closure(endo)
    return value == (-plain if endo.inputs % 2 else plain)


def check_bracket(value, layers, mode):
    return value == state_sum_bracket(parse_word(word_text(layers)), mode)


# ---------------------------------------------------------------------------
# Gram ranks over a prime field

PRIME = 2305843009213693921          # 240 * k + 1, so 4r | p - 1 for r = 3, 4, 5
GENERIC_POINT = 1234567891


def _point(r):
    if r is None:
        return GENERIC_POINT
    order = 4 * r
    factors = {q for q in (2, 3, 5, 7) if order % q == 0}
    for h in range(2, 1000):
        x = pow(h, (PRIME - 1) // order, PRIME)
        if all(pow(x, order // q, PRIME) != 1 for q in factors):
            return x
    raise ValueError(f"no element of order {order}")


def _eval(laurent, x):
    return sum(c * pow(x, e, PRIME) for e, c in laurent.items()) % PRIME


def modular_rank(rows, r):
    """Rank of a matrix of printed scalars, evaluated at a = x in GF(p).

    At r the point is a primitive 4r-th root of unity, a ring map from the
    cyclotomic field; generically it is a fixed integer.  The field rank
    never exceeds the exact rank and equals it unless the point is a root
    of every nonzero maximal minor.
    """
    x = _point(r)
    mat = []
    for row in rows:
        out = []
        for text in row:
            v = parse_scalar(text)
            out.append(_eval(v.num, x) * pow(_eval(v.den, x), -1, PRIME) % PRIME)
        mat.append(out)
    rank, col, ncols = 0, 0, len(mat[0]) if mat else 0
    while rank < len(mat) and col < ncols:
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is not None:
            mat[rank], mat[piv] = mat[piv], mat[rank]
            inv = pow(mat[rank][col], -1, PRIME)
            for i in range(len(mat)):
                if i != rank and mat[i][col]:
                    f = mat[i][col] * inv % PRIME
                    mat[i] = [(a - f * b) % PRIME
                              for a, b in zip(mat[i], mat[rank])]
            rank += 1
        col += 1
    return rank


# ---------------------------------------------------------------------------
# CLI outputs

def _scalar(text, r):
    x = parse_scalar(text)
    return x if r is None else specialize(x, r)


def check_cli(query, code, out):
    """Exit code and stdout of one cold_cli query against the oracles."""
    kind, a, b, r = query
    if code != 0:
        return False
    lines = out.splitlines()
    mode = mode_of(r)
    try:
        if kind == "homdim":
            want = hom_dimension(a, b, r)
            return lines == [f"{want}, {want}, iso"]
        if kind == "gram":
            size = hom_dimension(a, b)
            rows = [line.split(" ; ") for line in lines[1:]]
            return (len(rows) == size
                    and all(len(row) == size for row in rows)
                    and modular_rank(rows, r) == hom_dimension(a, b, r))
        if kind == "jw":
            rows = []
            for line in lines:
                arr, coeff = line.split(" : ")
                rows.append(([int(p) for p in arr.split()], _scalar(coeff, r)))
            return check_projector(a, rows, None, mode)
        if len(lines) != 1:
            return False
        return check_bracket(_scalar(lines[0], r), a, mode)
    except Exception:       # output the oracles cannot read is wrong output
        return False
