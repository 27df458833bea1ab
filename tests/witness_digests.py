"""Digests of the witnesses two workloads return, for byte-identity checks.

Usage, from anywhere, with no arguments:

    python tests/witness_digests.py

It imports ``rainbowconn`` from the ``src/`` of the checkout it sits in and
prints one sha256 per workload, with counts:

- ``gate5``: gate 5's protocol.  On G(10^5, p) at the threshold (seed 0),
  colored by ``color_threshold``, its 200 sampled pairs are each answered
  by ``rainbow_path_search``.
- ``regular``: the query protocol of perfbench's regular_n2000 workload.
  Gate 4's G(2000, r) are greedy-colored, r = 3 recolored by cycle classes.
  For each run seed 1-10 and r = 3, 4, 5, round 0's 150 pairs are drawn.
  Each pair tries ``witness_via_trees`` first (d = r - 2 >= 2), then the
  search.
- ``bundles``: the scaffolds behind those tree witnesses.  For every pair
  of the regular protocol at r = 4 and 5, ``build_witness_paths`` grows
  the bundle at d = r - 2, whether or not a query would reach it.
- ``colorings``: the colorings behind the regular protocol, hashed
  directly, so a coloring change that moves no witness is still seen:
  gate 4's three greedy colorings and the r = 3 recoloring.
- ``pairings``: the leaf pairings behind those bundles, hashed directly,
  so a pairing change that moves no witness is still seen.  For every pair
  of the regular protocol at r = 4 and 5, ``pair_tree_paths`` pairs the
  two scaffold trees under the queried coloring.
- ``levels``: BFS distances, hashed directly, so a BFS change that moves
  no witness is still seen.  The double sweep's two arrays on gate 5's
  G(10^5, p), from vertex 0 and from its farthest vertex, and
  ``bfs_distances`` from vertices 0, n/2 and n - 1 on gate 4's three
  graphs.

A pair is hashed as the line ``r seed u v: v0 v1 ... vk`` (``None`` when no
witness came back), in query order.  A bundle is hashed as the line ``r
seed u v:`` followed by each scaffold tree and then each hat, leaf by leaf,
as its ``levels`` and its sorted ``parent`` items (``None`` for an excluded
leaf), or ``NoStructure`` when the scaffold cannot be grown; so a hat that
changes is seen even when no matched pair joins through it.  A coloring is
hashed as the line ``r name palette: c0 c1 ...``, its colors in edge
order.  A pairing is hashed as the line ``r seed u v:`` followed by its
(x leaf, y leaf) pairs in order, or ``GuaranteeViolation``, or
``NoStructure``.  A distance array is hashed as the line ``name source:
d0 d1 ...``.  Two checkouts that print the same digests return the
same witnesses on these 4700 pairs, grow the same 3000 bundles, pair
their trees the same, color gate 4's graphs the same and label the same
BFS distances on these 11 sweeps.  ``EXPECTED`` holds the lines the current code
prints; the script exits 1, naming each line that differs, when a
workload prints anything else.  A change that alters witnesses or
colorings on purpose records its new lines there.  The run takes about
15 s on 2 vCPUs (Python 3.11, numpy 2.4).  Not a test: pytest does not collect this file.
"""

import hashlib
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rainbowconn.coloring import (color_greedy_power, color_threshold,  # noqa: E402
                                  recolor_cycle_classes, regular_params, threshold_params)
from rainbowconn.graphs import (GenParams, bfs_distances, gen_gnp,  # noqa: E402
                                gen_regular_config)
from rainbowconn.errors import GuaranteeViolation, NoStructure  # noqa: E402
from rainbowconn.pairing import (build_witness_paths, pair_tree_paths,  # noqa: E402
                                 witness_via_trees)
from rainbowconn.rng import derive_seed, stream  # noqa: E402
from rainbowconn.verify import rainbow_path_search  # noqa: E402

BUDGET = 10 ** 6
INSTANCES = []

EXPECTED = {
    "gate5": "gate5 c1056e000b7a896af71c012465e840bb411b1e0b5d76c0384ccc1ba7d69338fe"
             " pairs=200 found=200",
    "regular": "regular 9df2099bf1faa2c6cd76691e9a5101c15e8ece0b6d6cfd7d1512ea9852607df5"
               " pairs=4500 found=4500 tree_hits=2537",
    "bundles": "bundles bc1b708493a417943d2f6bdf0a37cc8a220f1a64356f1531e8485ec94424dced"
               " pairs=3000 built=2946",
    "colorings": "colorings 4b44a8165e4b0755a7e20c06eb2af10ae64f7f2be9d6bc26ddd51c9039af2f52"
                 " colorings=4",
    "pairings": "pairings e4627c47e7b5b19919c14934c41c4dd76102264f76b3b06370d553ad926b8602"
                " pairs=3000 paired=2946 matched=25057",
    "levels": "levels 0244c28c29ae7c974dd4b50c14823adeae1ccaf356443d08a3d627fbc1fa2f8e"
              " arrays=11 sweep=6",
}


def pairs_from_stream(n, count, rng):
    """Distinct unordered pairs, drawn from the ``random.Random`` ``rng`` as
    gate 5 and perfbench draw them, sorted.  Not ``verify.sample_pairs``,
    which takes an int seed and draws from a stream of its own."""
    chosen = set()
    while len(chosen) < count:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            chosen.add((min(u, v), max(u, v)))
    return sorted(chosen)


def line(tag, u, v, w):
    body = "None" if w is None else " ".join(map(str, w.vertices))
    return f"{tag} {u} {v}: {body}\n"


def gate5_graph():
    n = 100_000
    return gen_gnp(GenParams(n=n, omega=math.log(math.log(n)), seed=0))


def gate5():
    g = gate5_graph()
    n = g.n
    c = color_threshold(g, threshold_params(n), seed=derive_seed(0, "color"))
    lines = []
    for u, v in pairs_from_stream(n, 200, stream(0, "pairs")):
        w = rainbow_path_search(g, c, u, v, budget=BUDGET, seed=derive_seed(0, f"{u}:{v}"))
        lines.append(line("gate5", u, v, w))
    found = sum(not s.endswith("None\n") for s in lines)
    return lines, f"pairs=200 found={found}"


def regular_instances():
    """Gate 4's (r, params, graph, greedy coloring, coloring queried) at
    n = 2000, built once."""
    if not INSTANCES:
        n = 2000
        for r in (3, 4, 5):
            g = gen_regular_config(GenParams(n=n, r=r, seed=0))
            rp = regular_params(n, r)
            base = color_greedy_power(g, radius=2 * rp.k, q=rp.q, seed=1)
            c = recolor_cycle_classes(g, base, rp.k)[0] if r == 3 else base
            INSTANCES.append((r, rp, g, base, c))
    return INSTANCES


def regular_pairs(g, seed, r):
    """Round 0's 150 pairs of perfbench's regular run ``seed`` at degree r."""
    return pairs_from_stream(g.n, 150, stream(seed, f"regular:{r}:0"))


def regular():
    lines = []
    tree_hits = found = 0
    for seed in range(1, 11):
        for r, rp, g, _, c in regular_instances():
            for u, v in regular_pairs(g, seed, r):
                w = None
                if r - 2 >= 2:
                    w = witness_via_trees(g, c, u, v, k=rp.k, gamma=rp.gamma, d=r - 2)
                    tree_hits += w is not None
                if w is None:
                    w = rainbow_path_search(g, c, u, v, budget=BUDGET,
                                            seed=derive_seed(seed, f"pair:{r}:{u}:{v}"))
                found += w is not None
                lines.append(line(f"{r} {seed}", u, v, w))
    return lines, f"pairs={len(lines)} found={found} tree_hits={tree_hits}"


def tree_text(t):
    return "None" if t is None else f"{t.levels} {sorted(t.parent.items())}"


def bundles():
    lines = []
    built = 0
    for seed in range(1, 11):
        for r, rp, g, _, _ in regular_instances():
            if r - 2 < 2:
                continue
            for u, v in regular_pairs(g, seed, r):
                try:
                    b = build_witness_paths(g, u, v, k=rp.k, gamma=rp.gamma, d=r - 2)
                except NoStructure:
                    body = "NoStructure"
                else:
                    built += 1
                    parts = [tree_text(b.tree_x), tree_text(b.tree_y)]
                    parts += [f"{leaf} {tree_text(hat)}" for hats in (b.hats_x, b.hats_y)
                              for leaf, hat in hats.items()]
                    body = " | ".join(parts)
                lines.append(f"{r} {seed} {u} {v}: {body}\n")
    return lines, f"pairs={len(lines)} built={built}"


def colorings():
    lines = []
    for r, _, _, base, c in regular_instances():
        named = [("greedy", base)] + ([("recolored", c)] if c is not base else [])
        lines += [f"{r} {name} {col.palette_size}: {' '.join(map(str, col.colors))}\n"
                  for name, col in named]
    return lines, f"colorings={len(lines)}"


def pairings():
    lines = []
    paired = matched = 0
    for seed in range(1, 11):
        for r, rp, g, _, c in regular_instances():
            if r - 2 < 2:
                continue
            for u, v in regular_pairs(g, seed, r):
                # the scaffold trees do not depend on gamma: grow the hats to depth 0
                try:
                    b = build_witness_paths(g, u, v, k=rp.k, gamma=0, d=r - 2)
                    res = pair_tree_paths(b.tree_x, b.tree_y, c)
                except (NoStructure, GuaranteeViolation) as exc:
                    body = type(exc).__name__
                else:
                    paired += 1
                    matched += len(res.pairs)
                    body = " ".join(f"{px.leaf},{py.leaf}" for px, py in res.pairs)
                lines.append(f"{r} {seed} {u} {v}: {body}\n")
    return lines, f"pairs={len(lines)} paired={paired} matched={matched}"


def levels():
    def dist_line(name, source, dist):
        return f"{name} {source}: {' '.join(map(str, dist.tolist()))}\n"

    g = gate5_graph()
    d0 = bfs_distances(g, 0)
    far = int(d0.argmax())  # the sweep's second source, as ``graphs.diameter`` picks it
    d1 = bfs_distances(g, far)
    lines = [dist_line("gate5", 0, d0), dist_line("gate5", far, d1)]
    for r, _, h, _, _ in regular_instances():
        lines += [dist_line(f"r{r}", s, bfs_distances(h, s)) for s in (0, h.n // 2, h.n - 1)]
    return lines, f"arrays={len(lines)} sweep={int(d1.max())}"


def main():
    mismatched = 0
    for name, workload in (("gate5", gate5), ("regular", regular), ("bundles", bundles),
                           ("colorings", colorings), ("pairings", pairings),
                           ("levels", levels)):
        lines, counts = workload()
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        got = f"{name} {digest} {counts}"
        print(got)
        if got != EXPECTED[name]:
            mismatched += 1
            print(f"MISMATCH: expected {EXPECTED[name]}", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
