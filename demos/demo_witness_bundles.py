"""
Tree-scaffold witnesses in a regular graph
==========================================

To connect a far-apart pair (x, y), grow pruned d-ary trees from both
endpoints and hang deeper trees off their leaves.  The bundle holds this
scaffold, and its report gives the level sizes and the leaves excluded
by collisions.  Under a coloring, the matched pairing picks leaf pairs
whose root paths are jointly rainbow, and each matched pair is joined by
a short connector between its two hanging trees.
"""

from rainbowconn.coloring import color_greedy_power, regular_params
from rainbowconn.graphs import GenParams, gen_regular_config
from rainbowconn.pairing import build_witness_paths, bundle_text, rainbow_witness, witness_via_trees
from rainbowconn.verify import witness_ok

n, r = 2000, 5
g = gen_regular_config(GenParams(n=n, r=r, seed=0))
params = regular_params(n, r)
d = r - 2  # leave one port for the parent, one for the hanging stage
print(f"G({n},{r}): k={params.k}  gamma={params.gamma}  d={d}\n")

x, y = 3, 777
bundle = build_witness_paths(g, x, y, k=params.k, gamma=params.gamma, d=d)
print(bundle_text(bundle), end="")

# Under the greedy coloring the scaffold trees are rainbow by
# construction; whether a full composed path survives depends on color
# collisions across the three stages, so None here is an honest outcome.
c = color_greedy_power(g, radius=2 * params.k, q=params.q, seed=1)
w = rainbow_witness(g, c, x, y, bundle)
if w is None:
    print("\ngreedy coloring: no composed path survived")
else:
    print(f"\ngreedy coloring: witness of length {w.length}, "
          f"valid={witness_ok(g, c, w)}")

# the driver falls back to a direct shortest path when x and y are close
for u, v in ((3, 777), (55, 650), (210, 1333)):
    w = witness_via_trees(g, c, u, v, k=params.k, gamma=params.gamma, d=d)
    print(f"pair ({u},{v}): "
          + (f"witness length {w.length}" if w else "none from trees"))
