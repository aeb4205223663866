"""
A first tour: tableaux, shuffling, and recognition
==================================================

Two voters hand out cards over a slate of candidates.  One voter's
choices index the rows, the other's the columns, and each cell records
who wins that pairing.  This script builds the smallest interesting
tableau family, scrambles one, and watches the recognizer put it back
together.
"""

import random

from davote.core import (
    default_names,
    enumerate_strategies,
    generate_correspondence,
    generate_form,
    permute_tableau,
    row_signature,
)
from davote.recognizer import recognize_tableau
from davote.tableau_io import dumps_tableau

# Three cards each over two candidates: four strategies per voter,
# listed with candidate a's count first.
strategies = enumerate_strategies(2, 3)
print("strategies for alpha = 3 over two candidates:")
print("  ", strategies)
print()

# The correspondence keeps every tied winner; its diagonal of ties is
# the fingerprint of the two-candidate case.
h = generate_correspondence(2, 3, 3)
print("the full correspondence (ties kept as sets):")
print(dumps_tableau(h, fmt="text"))

# A form commits to one winner per cell.  Two built-in tie rules give
# the two extreme commitments.
g_min = generate_form(2, 3, 3)
g_max = generate_form(2, 3, 3, tie_rule="max-index")
print("one form per tie rule:")
for g in (g_min, g_max):
    print(dumps_tableau(g, fmt="text"))

# Row signatures count, per candidate, how many columns it wins in that
# row.  They are what makes rows identifiable after a shuffle.
print("row signatures of the correspondence:")
for i in range(h.rows):
    print(f"  row {i} labeled {strategies[i]}: {row_signature(h, i)}")
print()

# Scramble rows and columns.  The tableau is the same object up to
# relabeling, and recognition has to rediscover who is who.
rng = random.Random(7)
row_perm = list(range(h.rows))
col_perm = list(range(h.cols))
rng.shuffle(row_perm)
rng.shuffle(col_perm)
shuffled = permute_tableau(h, row_perm, col_perm)
print("after shuffling rows and columns:")
print(dumps_tableau(shuffled, fmt="text"))

result = recognize_tableau(shuffled)
print(f"verdict: {result.verdict} (method: {result.method})")
print("recovered row labels, in shuffled row order:")
for i, x in enumerate(result.labeling.row_labels):
    print(f"  row {i} -> {x}")

# The permutation we applied, read back from the labels: row i of the
# shuffled tableau came from the strategy we planted at row_perm[i].
planted = [strategies[row_perm[i]] for i in range(h.rows)]
recovered = list(result.labeling.row_labels)
print()
print("planted labels match recovered labels:", planted == recovered)

# Candidate names are cosmetic; defaults run a, b, c, ...
print("default names for five candidates:", default_names(5))
