"""
Five ways to say yes or no
==========================

Recognition picks its method from the parameters it infers off the grid
shape: per-candidate winner counts whenever every form has distinct
rows, the same counts plus a search over the row labelings they allow
for every other form, a forbidden-pattern scan in the single-card case,
and plane ranking for two candidates.  The exhaustive oracle is a
separate cross-check.  This script sends one input down each path.
"""

import random
import time

from davote.core import Form, generate_correspondence, generate_form
from davote.oracle import oracle_recognize
from davote.recognizer import recognize_tableau
from davote.special import generate_n_tableau, permute_axes, recognize_n_tableau


def show(tag, result):
    print(f"  {tag:<34} {result.verdict:<10} via {result.method}")


print("one input per recognition path:")

# Plenty of column cards: per-row winner counts pin down each row label.
show("p=3, alpha=1, beta=3 (form)", recognize_tableau(generate_form(3, 1, 3)))

# The mirrored regime transposes first, then runs the same counting.
show("p=3, alpha=3, beta=1 (form)", recognize_tableau(generate_form(3, 3, 1)))

# One card each: winner-count row labels, forbidden patterns as witnesses.
show("p=4, alpha=beta=1 (form)", recognize_tableau(generate_form(4, 1, 1)))

# Two cards each: rows are still always distinct, so the same counting
# applies.
show("p=3, alpha=beta=2 (form)", recognize_tableau(generate_form(3, 2, 2)))

# Two candidates: a strategy is the number of cards on the first one,
# so ranking rows and columns by their winner counts labels them, for
# any card total.
show("p=2, alpha=beta=2 (form)", recognize_tableau(generate_form(2, 2, 2)))

# Some forms repeat a row here, so the counts leave several strategies
# per row; a search over the labelings they allow settles it.
show("p=3, alpha=2, beta=3 (form)", recognize_tableau(generate_form(3, 2, 3)))

# The same search rejects with a reason.  It answers "undecided" only
# if it tries more labels than its fixed node budget.
cells = [list(row) for row in generate_form(3, 3, 3).cells]
cells[0][0] = 2
res = recognize_tableau(Form(candidates=3, cells=tuple(map(tuple, cells))))
show("p=3, alpha=beta=3, one cell moved", res)
print(f"    reason: {res.witness}")
print()

# Witnesses are the other half of the contract.  Break one cell of a
# single-card grid and the rejection names the pattern it found.
bad = Form(candidates=3, cells=((0, 1, 1), (2, 0, 1), (2, 2, 0)))
res = recognize_tableau(bad)
print("a broken single-card grid:")
print(f"  verdict {res.verdict}, witness: {res.witness.describe()}")
print()

# The oracle agrees, the slow way, and counts how many labelings exist.
report = oracle_recognize(bad)
print(f"oracle on the same grid: is_dav={report.is_dav}, "
      f"nodes explored={report.nodes_explored}")
good = generate_form(2, 3, 3)
report = oracle_recognize(good, cap=50)
print(f"oracle on a valid form:  is_dav={report.is_dav}, "
      f"labelings found={report.labelings_found}")
print()

# Many voters, two candidates: recognition works axis by axis on the
# n-dimensional tableau.
nt = generate_n_tableau((2, 3, 2))
rng = random.Random(11)
perms = [rng.sample(range(w + 1), w + 1) for w in (2, 3, 2)]
res = recognize_n_tableau(permute_axes(nt, perms))
print(f"three voters with cards (2, 3, 2), axes shuffled: {res.verdict}")
print(f"  recovered axis labels: {res.labeling.axis_labels}")
print()

# Speed check: plane ranking sorts the rows and columns once and checks
# every cell once, so even sixty cards a side answers quickly.
t0 = time.monotonic()
res = recognize_tableau(generate_correspondence(2, 60, 60))
print(f"61 x 61 correspondence recognized in {time.monotonic() - t0:.3f}s "
      f"({res.verdict})")
