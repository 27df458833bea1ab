"""
Matched rainbow path pairs on twin trees
========================================

Two rainbow complete d-ary trees of depth ell always admit at least
(d-1)^ell root-to-leaf path pairs whose color unions are rainbow: the
lemma matches branches level by level.  The pairing itself is one
maximum matching between the two trees' leaves, joined where their root
paths share no color, so it finds at least as many.  For d >= 3 the
guarantee is deterministic: it holds for every rainbow coloring, not
just typical ones.
"""

from rainbowconn.pairing import (build_tree_pair_graph, pair_tree_paths,
                                 random_rainbow_tree_coloring)

d, ell = 3, 2
g, t1, t2 = build_tree_pair_graph(d, ell)
print(f"twin {d}-ary trees of depth {ell}: {g.n} vertices, {g.m} edges")

c = random_rainbow_tree_coloring(g, t1, t2, palette=2 * (g.m // 2), seed=9)
res = pair_tree_paths(t1, t2, c)
print(f"pairs found: {len(res.pairs)} (guaranteed floor {res.floor})")

for i, (p1, p2) in enumerate(res.pairs):
    cols = [c.colors[e] for e in p1.edge_ids] + [c.colors[e] for e in p2.edge_ids]
    tag = "rainbow" if len(set(cols)) == len(cols) else "CLASH"
    print(f"  {i}: {'-'.join(map(str, p1.vertices))} | "
          f"{'-'.join(map(str, p2.vertices))}  colors {cols} {tag}")

# binary trees have no (d-1)^ell guarantee; every call checks the
# claimed floor of 2^(ell//2) pairs
d, ell = 2, 4
g, t1, t2 = build_tree_pair_graph(d, ell)
c = random_rainbow_tree_coloring(g, t1, t2, palette=2 * (g.m // 2), seed=9)
res = pair_tree_paths(t1, t2, c)
print(f"\nbinary depth {ell}: {len(res.pairs)} pairs (floor {res.floor})")
