"""Seeded input generators for the benchmark workloads.

Nothing here calls the package, so generating inputs never warms one of
its caches.  Every generator takes ``(seed, unit)``; the same
pair always gives the same list, in the same order.  A unit is the work one
fresh interpreter does (one sweep sample, one projector tower, one block of
CLI queries).

Each generator stratifies its sample: it fixes how many inputs fall in every
cell (object sizes, root order, crossing count, query kind) and lets the seed
pick only which inputs fill a cell and their order.  The work per unit is
then nearly the same for every seed, so runs on different seeds compare.
The inputs come from populations in the repository: the acceptance pairs
(criteria 6 and 7), every projector and traced object up to its size cap,
and the bracket corpus of ``tests/corpus.py``.  The sweeps sample their
size-8 cells to fit a run; ``cold_cli`` weighs its query kinds equally, an
assumption; see each workload's comment.

Size guards: inputs past the measured cliffs are refused, not run.  On a
2-CPU machine ``homdim 3,3 2,2`` took 230 s, ``homdim 5 5`` 103 s and
``jw 8`` 123 s; a workload of that size is a separate benchmark.
"""

import random

MAX_PAIR_SIZE = 8       # |s| + |t|
MAX_JW = 7              # projector strands, and so the largest color
MAX_CROSSINGS = 10      # the state-sum oracle enumerates 2^c states
MAX_WORD_WIDTH = 6      # strands open at once in a generated word
ROOTS = (3, 4, 5)

WORKLOADS = ("generic_sweep", "root_sweep", "projector_tower", "cold_cli")


def guard_pair(s, t):
    if sum(s) + sum(t) > MAX_PAIR_SIZE:
        raise ValueError(f"pair {s} -> {t} is past |s|+|t| <= {MAX_PAIR_SIZE}")
    if any(c > MAX_JW for c in s + t):
        raise ValueError(f"pair {s} -> {t} has a color past {MAX_JW}")


def guard_jw(k):
    if not 0 <= k <= MAX_JW:
        raise ValueError(f"projector size {k} is past {MAX_JW}")


def guard_word(layers):
    crossings = sum(1 for lay in layers if lay[0] in ("x+", "x-"))
    if crossings > MAX_CROSSINGS:
        raise ValueError(f"word has {crossings} crossings, past {MAX_CROSSINGS}")
    width = max(_widths(layers))
    if width > MAX_WORD_WIDTH:
        raise ValueError(f"word is {width} strands wide, past {MAX_WORD_WIDTH}")


def _widths(layers):
    out = [0]
    for lay in layers:
        n = lay[-1]
        out.append(n + 2 if lay[0] == "cup" else n - 2 if lay[0] == "cap" else n)
    return out


def color_seqs(colors, max_size):
    """Every color sequence over ``colors`` with sum at most max_size."""
    out, frontier = [()], [()]
    while frontier:
        new = [s + (c,) for s in frontier for c in colors
               if sum(s) + c <= max_size]
        out.extend(new)
        frontier = new
    return out


def _pairs(colors):
    seqs = color_seqs(colors, MAX_PAIR_SIZE)
    return [(s, t) for s in seqs for t in seqs
            if sum(s) + sum(t) <= MAX_PAIR_SIZE]


def generic_pairs():
    """The 963 generic pairs of acceptance criterion 6."""
    return _pairs((1, 2, 3))


def root_pairs():
    """The 1520 (r, s, t) triples of acceptance criterion 7."""
    return [(r, s, t) for r in ROOTS for s, t in _pairs(tuple(range(1, r - 1)))]


def _rng(workload, seed, unit):
    return random.Random(f"{workload}:{seed}:{unit}")


def _sweep_sample(pairs, full_below, per_cell, rng):
    """Every pair of size below ``full_below``, and ``per_cell`` seeded pairs
    from each (|s|, |t|) cell above it.

    The small pairs are cheap and, all present, give every seed the same
    median; each cell of size 8 holds one cold kernel solve, so every seed
    pays the same ones.
    """
    out, cells = [], {}
    for s, t in pairs:
        if sum(s) + sum(t) < full_below:
            out.append((s, t))
        else:
            cells.setdefault((sum(s), sum(t)), []).append((s, t))
    for key in sorted(cells):
        out += rng.sample(cells[key], min(per_cell, len(cells[key])))
    for s, t in out:
        guard_pair(s, t)
    return out


# generic: the 464 pairs up to size 7, and 8 from each cell of size 8, 536
# pairs near 17 s, 12 s of it the size-8 kernel solves.  root: the 777
# triples up to size 7, and 4 from each cell of size 8 at r = 4, 5 (all 9
# at r = 3), 858 triples near 14 s.  Either way p50 lands among the small
# pairs, which are the same for every seed, and p95 among the warm size-8
# pairs.  The order is shuffled whole: spread over the unit, the small
# pairs meet all of its contention, not the first seconds' alone.
def generic_sweep(seed, unit=0):
    rng = _rng("generic_sweep", seed, unit)
    ops = [("pair", s, t, None)
           for s, t in _sweep_sample(generic_pairs(), 8, 8, rng)]
    rng.shuffle(ops)
    return ops


def root_sweep(seed, unit=0):
    rng = _rng("root_sweep", seed, unit)
    triples = root_pairs()
    ops = [("pair", s, t, r) for r in ROOTS
           for s, t in _sweep_sample([(s, t) for q, s, t in triples if q == r],
                                     8, 4, rng)]
    rng.shuffle(ops)
    return ops


def _compositions(n):
    if n == 0:
        return [()]
    return [(p,) + rest for p in range(1, n + 1) for rest in _compositions(n - p)]


def random_word(crossings, rng, width=MAX_WORD_WIDTH):
    """A random closed word with exactly ``crossings`` crossing layers and
    at least one circle."""
    layers, n, left = [], 0, crossings
    while left or n or not layers:
        moves = []
        if n + 2 <= width and (left or not n):
            moves.append("cup")
        if n >= 2 and left:
            moves += ["x", "x", "x"]
        if n >= 2 and (not left or n > 2):
            moves.append("cap")
        move = rng.choice(moves)
        if move == "cup":
            layers.append(("cup", rng.randint(1, n + 1), n))
            n += 2
        elif move == "cap":
            layers.append(("cap", rng.randint(1, n - 1), n))
            n -= 2
        else:
            layers.append((rng.choice(("x+", "x-")), rng.randint(1, n - 1), n))
            left -= 1
    guard_word(layers)
    return tuple(layers)


def word_text(layers):
    return "\n".join(f"{k} {i} of {n}" for k, i, n in layers) + "\n"


def corpus_shapes():
    """(crossings, width) of each closed word in ``tests/corpus.py``, the
    repository's fixed bracket corpus (0 to 6 crossings, 2 to 6 strands)."""
    import env  # noqa: F401  (puts tests/ on sys.path)
    from corpus import CLOSED_WORDS
    shapes = []
    for _, text in CLOSED_WORDS:
        layers = [(k, int(i), int(n))
                  for k, i, _, n in (lay.split() for lay in text.split(";"))]
        shapes.append((sum(1 for lay in layers if lay[0] in ("x+", "x-")),
                       max(_widths(layers))))
    return shapes


def corpus_word(shape, rng):
    """A seeded random closed word with a corpus word's crossings and at
    most its width."""
    return random_word(shape[0], rng, shape[1])


# projector_tower: every projector the guard allows, every object a trace
# may close (all 31 color sequences of size 1 to 5) and one bracket per word
# of the corpus, shaped like it: 53 operations.  The projectors come
# smallest first, so each costs its own recursion step, and the traces by
# size, so the first trace of each size pays for building that size's
# closing braid.  The seed picks the coefficients (never zero) and the
# words, and scatters the brackets among the rest.
def projector_tower(seed, unit=0):
    import env  # noqa: F401  (puts tests/ on sys.path)
    from oracles import hom_dimension
    rng = _rng("projector_tower", seed, unit)
    ops = []
    for k in range(2, MAX_JW + 1):
        guard_jw(k)
        ops.append(("jw", k, None, None))
    for n in range(1, 6):
        for s in _compositions(n):
            coeffs = tuple(rng.choice((-2, -1, 1, 2))
                           for _ in range(hom_dimension(s, s)))
            ops.append(("trace", s, coeffs, None))
    for shape in corpus_shapes():
        ops.insert(rng.randint(0, len(ops)),
                   ("bracket", corpus_word(shape, rng), None, None))
    return ops


# cold_cli: a block holds every (query kind, mode) cell the CLI offers for
# this workload, each weighted the same: the repository holds no record of
# how the CLI is used.  A homdim or gram cell is sampled from its mode's
# acceptance population in two strata, size 8 and below, near equal in
# number (499 to 464 generic and at r = 5, 235 to 277 at r = 4, 9 to 36 at
# r = 3) and apart in cost: a cold generic homdim of size 8 solves a kernel
# for 1.4 to 3.2 s, a smaller one takes 0.1 s.  Within size 8 that cost is
# set by min(|s|, |t|) (1.4 s at 0 or 4, 2.1 s at 1, 2.6 s at 3, 3.2 s at
# 2), so the block takes one size-8 pair at each value of it, and as many
# smaller pairs.  jw takes every k in 2..6 generic, five seeded k in 2..r-1
# at a root; bracket words, five per mode, are shaped like seeded corpus
# words.  120 queries, in seeded order.
def _pair_strata(r):
    colors = (1, 2, 3) if r is None else tuple(range(1, r - 1))
    pairs = _pairs(colors)
    return ([p for p in pairs if sum(p[0]) + sum(p[1]) == MAX_PAIR_SIZE],
            [p for p in pairs if sum(p[0]) + sum(p[1]) < MAX_PAIR_SIZE])


def _cell(pair):
    """The size of a pair's smaller side: a pair and its mirror cost alike."""
    return min(sum(pair[0]), sum(pair[1]))


def _mode_arg(r):
    return [] if r is None else ["--mode", f"root:{r}"]


def cold_cli(seed, unit=0):
    rng = _rng("cold_cli", seed, unit)
    shapes = corpus_shapes()
    queries = []
    for r in (None,) + ROOTS:
        big, small = _pair_strata(r)
        cells = sorted({_cell(p) for p in big})
        for kind in ("homdim", "gram"):
            for cell in cells:
                for s, t in (rng.choice([p for p in big if _cell(p) == cell]),
                             rng.choice(small)):
                    guard_pair(s, t)
                    queries.append((kind, s, t, r))
        ks = range(2, 7) if r is None else [rng.randint(2, r - 1)
                                            for _ in cells]
        for k in ks:
            guard_jw(k)
            queries.append(("jw", k, None, r))
        for _ in cells:
            queries.append(("bracket", corpus_word(rng.choice(shapes), rng),
                            None, r))
    rng.shuffle(queries)
    return queries


GENERATORS = {
    "generic_sweep": generic_sweep,
    "root_sweep": root_sweep,
    "projector_tower": projector_tower,
    "cold_cli": cold_cli,
}


def cli_argv(query, word_path=None):
    """The skeinrep command line for one cold_cli query."""
    kind, a, b, r = query

    def seq(x):
        return ",".join(map(str, x)) if x else "0"

    if kind in ("homdim", "gram"):
        return [kind, seq(a), seq(b)] + _mode_arg(r)
    if kind == "jw":
        return ["jw", str(a)] + _mode_arg(r)
    return ["bracket", word_path] + _mode_arg(r)
