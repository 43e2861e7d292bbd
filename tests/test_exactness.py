"""Exact outputs against sha256 digests frozen from an earlier tree.

Root-mode Jones-Wenzl projectors divide by quantum integers, so these
tables also pin the cyclotomic inverse.  A digest may change only with a
change of value, which no refactor makes.
"""

from exactness import digest, gram_lines, jones_wenzl_lines

JONES_WENZL = "74a1a2fb691ce3adbf904a9d8466ed81bcf3ba299a5aa2a2c2d0b08d0b4a6e65"
GRAM = "aaf2e3f28e225f6068a1359bbff4bba36c190f39a5079a8299c23ff2701fdcb5"


def test_jones_wenzl_tables_match_frozen_digest():
    lines = list(jones_wenzl_lines())
    assert sum(line.endswith(" terms") for line in lines) == 43
    assert digest(lines) == JONES_WENZL


def test_gram_matrices_match_frozen_digest():
    lines = list(gram_lines())
    assert sum(line.endswith(" rows") for line in lines) == 413
    assert digest(lines) == GRAM
