"""
Greedy coloring of a line-graph power
=====================================

For regular graphs the key property is local: no two edges within
line-distance 2k may share a color.  Then every depth-k BFS tree is
automatically rainbow, which is what the witness construction needs.
"""

from rainbowconn.coloring import color_greedy_power, line_distance_neighbors, regular_params
from rainbowconn.graphs import GenParams, gen_regular_config, grow_bfs_tree

n, r = 500, 4
g = gen_regular_config(GenParams(n=n, r=r, seed=5))
params = regular_params(n, r)
print(f"G({n},{r}): k={params.k}  q={params.q}  gamma={params.gamma}  "
      f"sigma={params.sigma}")

c = color_greedy_power(g, radius=2 * params.k, q=params.q, seed=0)
used = len(c.used_colors())
print(f"colored {g.m} edges with {used} of {params.q} colors")

# spot-check properness on a few edges: nothing in the 2k-ball repeats
for eid in (0, g.m // 2, g.m - 1):
    ball = line_distance_neighbors(g, eid, 2 * params.k)
    clashes = sum(1 for f in ball if f != eid and c.colors[f] == c.colors[eid])
    print(f"edge {eid}: {len(ball) - 1} edges within distance {2 * params.k}, "
          f"{clashes} color clashes")

# consequence: depth-k BFS trees are rainbow from any root
root = 17
tree_edges = grow_bfs_tree(g, root, params.k).edge_ids()
cols = [c.colors[e] for e in tree_edges]
print(f"\nBFS tree from {root}: {len(tree_edges)} edges, "
      f"{len(set(cols))} distinct colors -> "
      f"{'rainbow' if len(set(cols)) == len(cols) else 'NOT rainbow'}")
