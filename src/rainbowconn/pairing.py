"""Rainbow tree growth, matched path pairing, and witness-path assembly.

The witness machinery turns a colored graph into explicit rainbow paths
between a vertex pair (x, y) in three stages:

1. Grow breadth-first trees (``graphs.grow_bfs_tree``, each one record of
   parent edges and levels): a depth-k tree from x, another from y avoiding
   the first, each checked once for a vertex above depth k with fewer than
   d children and then pruned, level by level, to its d lowest-id children
   per vertex; then a depth-gamma tree ("hat") hanging off every pruned
   leaf, keyed by that leaf (None where it is excluded).  Every tree avoids
   the one live set of vertices claimed before it.  Skipped edges are read
   off the degrees and the trees' children, never counted.  A hat is judged
   on its first levels before it grows further, so an excluded one is never
   grown to gamma.
2. Pair root-to-leaf paths of the two pruned trees so that each pair's color
   union stays rainbow; the arity d is read off the trees.  Both trees are
   rainbow, so a pair qualifies exactly when its two root paths share no
   color.  The pairs are one maximum matching (``bipartite_matching``) of
   the bipartite graph of x leaves and y leaves joined where their root
   paths share no color (``pair_tree_paths``).  The paper's lemma, which
   matches branches level by level, shows that this graph has a matching
   of size (d-1)^depth for d >= 3; for d = 2 the floor 2^(depth//2) is a
   claim each call checks.  A root-to-leaf path is fixed by its leaf, so
   ``RootedTree.path_from_root`` builds each leaf's path once.
3. Join each matched leaf pair, and only those, through their hanging
   trees and a connecting edge found between the two leaf sets
   (``rainbow_witness``).  Every x..y path is the same join (root path,
   middle, reversed root path), and every returned witness runs from x to
   y and goes through ``verify.make_witness``, the one checked constructor,
   which re-checks the path and its colors.  The bundle holds the scaffold
   trees and hanging trees, built once; its report (``bundle_text``) is
   derived from them.

Failure is always explicit: GuaranteeViolation when a matching falls below
its floor (non-rainbow input, a bug, or for d = 2 a coloring that refutes
the claimed floor), NoStructure when the graph cannot host the disjoint
scaffold trees, None when no matched pair yields a rainbow path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Optional, Sequence

from .coloring import EdgeColoring, check_coloring
from .errors import GuaranteeViolation, NoStructure
from .graphs import Graph, RootedTree, TreePath, bfs_distances, check_vertices, grow_bfs_tree
from .verify import PathWitness, make_witness

__all__ = [
    "PairingResult",
    "WitnessBundle",
    "bipartite_matching",
    "pair_tree_paths",
    "pairing_floor",
    "build_witness_paths",
    "bundle_text",
    "rainbow_witness",
    "witness_via_trees",
    "build_tree_pair_graph",
    "random_rainbow_tree_coloring",
]


@dataclass(frozen=True)
class PairingResult:
    """Matched (x-side path, y-side path) pairs with rainbow unions, in
    x-leaf order.

    ``floor`` is the pair count ``pairing_floor`` promises for the trees'
    arity and depth, proved for d >= 3 and checked for d = 2.
    """

    pairs: tuple[tuple[TreePath, TreePath], ...]
    floor: int


def bipartite_matching(adjacency: Sequence[Sequence[bool]]) -> set[tuple[int, int]]:
    """Maximum matching of a bipartite adjacency matrix.

    Kuhn's augmenting-path search, rows in order, each row's columns in
    order, so the same matrix always yields the same matching.  The search
    path is a list, not recursion: on the nearly full matrices of
    ``pair_tree_paths`` the path from row i runs through most rows before
    it, past Python's recursion limit at about a thousand leaves.  ``after``
    links each column the search has visited onward, so a scan jumps over
    them.
    """
    rows = len(adjacency)
    cols = len(adjacency[0]) if rows else 0
    match_col: list[Optional[int]] = [None] * cols
    for root in range(rows):
        after = list(range(cols + 1))  # after[j] == j: column j not yet visited
        path = [root]  # the rows the search has reached, in order
        taken: list[int] = []  # taken[k]: the column path[k] took, matched to path[k + 1]
        while path:
            # the row's first unvisited column it reaches; the columns an
            # earlier scan of this row passed are visited or not its own,
            # so every scan can start at 0
            row = adjacency[path[-1]]
            j = 0
            while True:
                while after[j] != j:
                    after[j] = after[after[j]]
                    j = after[j]
                if j == cols or row[j]:
                    break
                j += 1
            if j == cols:  # dead end: back to the row before this one
                path.pop()
                if taken:
                    taken.pop()
                continue
            after[j] = j + 1
            taken.append(j)
            if match_col[j] is None:  # augment: every row on the path takes its column
                for i, col in zip(path, taken):
                    match_col[col] = i
                break
            path.append(match_col[j])
    return {(i, j) for j, i in enumerate(match_col) if i is not None}


# ----------------------------------------------------------------------------
# matched path pairing
# ----------------------------------------------------------------------------

def _check_complete(t: RootedTree, d: int) -> None:
    for level in t.levels[:-1]:
        for v in level:
            if len(t.children[v]) != d:
                raise ValueError(f"tree at {t.root}: vertex {v} has {len(t.children[v])} "
                                 f"children, expected exactly {d}")


def _rainbow(c: EdgeColoring, eids) -> bool:
    cols = [c.colors[e] for e in eids]
    return len(set(cols)) == len(cols)


def pairing_floor(d: int, depth: int) -> int:
    """Pairs ``pair_tree_paths`` promises on two rainbow d-ary trees of this
    depth: (d-1)^depth for d >= 3, which the level-by-level matching lemma
    proves, and 2^(depth//2) for d = 2, a claim that every call checks but
    no proof backs."""
    return 2 ** (depth // 2) if d == 2 else (d - 1) ** depth


def pair_tree_paths(t1: RootedTree, t2: RootedTree, c: EdgeColoring) -> PairingResult:
    """Pair root-to-leaf paths across two rainbow d-ary trees, d >= 2.

    The arity d is the trees' own, read off t1's root and required of every
    interior vertex of both trees (ValueError otherwise).

    Both trees are rainbow, so a pair's color union is rainbow exactly when
    its two root paths share no color.  The pairs are one maximum matching
    (``bipartite_matching``) of the bipartite graph with the x leaves on one
    side, the y leaves on the other and an edge where the two root paths
    share no color, listed in x-leaf order.  For d >= 3 the lemma's
    level-by-level matching, of size d-1 below every matched node pair, is
    one such matching, so at least (d-1)^depth pairs come out.  Fewer pairs
    than ``pairing_floor`` raise GuaranteeViolation: for d >= 3 the input
    was not rainbow or the implementation broke; for d = 2 the floor
    2^(depth//2) is a claim each call checks, not a proof, so there a
    violation would also refute the claim.
    """
    d = t1.arity()
    if d < 2:
        raise ValueError(f"pairing needs arity >= 2, got {d}")
    if t2.arity() != d:
        raise ValueError(f"tree arities {d} and {t2.arity()} differ")
    if t1.target_depth != t2.target_depth:
        raise ValueError("trees must share depth")
    if t1.vertices() & t2.vertices():
        raise ValueError("trees must be vertex-disjoint")
    for t in (t1, t2):
        _check_complete(t, d)
        if not _rainbow(c, t.edge_ids()):
            raise GuaranteeViolation(f"tree at {t.root} is not rainbow under this coloring")
    paths1 = [t1.path_from_root(v) for v in t1.leaves]
    paths2 = [t2.path_from_root(v) for v in t2.leaves]
    cols1 = [{c.colors[e] for e in p.edge_ids} for p in paths1]
    cols2 = [{c.colors[e] for e in p.edge_ids} for p in paths2]
    matched = bipartite_matching([[a.isdisjoint(b) for b in cols2] for a in cols1])
    floor = pairing_floor(d, t1.target_depth)
    if len(matched) < floor:
        raise GuaranteeViolation(f"{len(matched)} pairs matched, floor is {floor}")
    pairs = tuple((paths1[i], paths2[j]) for i, j in sorted(matched))
    if not all(_rainbow(c, p1.edge_ids + p2.edge_ids) for p1, p2 in pairs):
        raise GuaranteeViolation("paired paths share a color; pairing is broken")
    if any(len({pair[side].leaf for pair in pairs}) < len(pairs) for side in (0, 1)):
        raise GuaranteeViolation("leaf reused within one side")
    return PairingResult(pairs, floor)


# ----------------------------------------------------------------------------
# witness bundles
# ----------------------------------------------------------------------------

@dataclass
class WitnessBundle:
    """The tree scaffold between x and y: two pruned trees and the hanging
    trees ("hats") off their leaves.

    ``hats_x``/``hats_y`` map each leaf of ``tree_x``/``tree_y``, in leaf order,
    to its hat, None where that leaf was excluded.  ``bundle_text`` derives its
    report from these; ``rainbow_witness`` pairs the leaves under a coloring
    and finds the connector of each matched pair in the graph it is given.
    """

    gamma: int
    tree_x: RootedTree
    tree_y: RootedTree
    hats_x: dict[int, Optional[RootedTree]]
    hats_y: dict[int, Optional[RootedTree]]


def _hat_is_bad(g: Graph, hat: RootedTree, cutoff: int) -> bool:
    """Bad: no leaves at its depth, or a vertex above depth min(cutoff, depth)
    with fewer than degree - 1 children, that is, an edge skipped in the first
    ``cutoff`` levels besides a vertex's parent edge (for the root, its edge
    back into the scaffold).  Only those levels are read, so a hat grown to
    that depth is judged as it would be grown to gamma, leaves at gamma aside.
    """
    if not hat.leaves:
        return True
    children = hat.children
    return any(len(children[v]) < g.degree(v) - 1
               for level in hat.levels[:-1][:cutoff] for v in level)


def _join(up: TreePath, middle, down: TreePath):
    """(vertices, edge ids) of up's root ->..-> up.leaf, then ``middle`` (a
    (vertices, edge ids) path between the leaves), then down.leaf ->..-> down's root."""
    verts, eids = middle
    return (up.vertices + verts[1:-1] + tuple(reversed(down.vertices)),
            up.edge_ids + eids + tuple(reversed(down.edge_ids)))


def _find_connector(g: Graph, hx: Optional[RootedTree], hy: Optional[RootedTree]):
    """(vertices, edge_ids) of the path hx.root ->..-> u - v ->..-> hy.root,
    or None: no edge joins the leaf sets, or a hanging tree is None (its
    leaf was excluded).  Scans the smaller leaf set in canonical order for
    the first graph edge into the other."""
    if hx is None or hy is None:
        return None
    flip = len(hy.leaves) < len(hx.leaves)
    if flip:
        hx, hy = hy, hx
    members_y = set(hy.leaves)
    adj = g.adj
    for u in hx.leaves:
        for v, eid in adj[u]:
            if v in members_y:
                verts, eids = _join(hx.path_from_root(u), ((u, v), (eid,)), hy.path_from_root(v))
                return (verts[::-1], eids[::-1]) if flip else (verts, eids)
    return None


def _check_scaffold(g: Graph, x: int, y: int, k: int, gamma: int, d: int) -> None:
    """Reject an x or y outside the graph, scaffold shapes the pairing cannot
    use (k < 1, gamma < 0 or d < 2) and depths no tree on n vertices has."""
    check_vertices(g, ("x", x), ("y", y))
    if k < 1:
        raise ValueError(f"scaffold depth k={k} is zero or negative; need k >= 1")
    if gamma < 0:
        raise ValueError(f"hanging depth gamma={gamma} is negative; need gamma >= 0")
    for name, depth in (("scaffold depth k", k), ("hanging depth gamma", gamma)):
        if depth >= g.n:
            raise ValueError(f"{name}={depth} reaches n={g.n}; no tree is that deep")
    if d < 2:
        raise ValueError(f"scaffold arity d={d} is below 2; pairing needs d >= 2")


def _scaffold_tree(g: Graph, root: int, k: int, d: int, forbidden: AbstractSet[int]
                   ) -> RootedTree:
    """The depth-k BFS tree at root pruned to arity d: the complete d-ary
    tree that keeps the d lowest-id children of every kept vertex above
    depth k.  NoStructure naming the first vertex of the unpruned tree above
    depth k with fewer than d children, so every kept vertex has d to keep.
    No backtracking is attempted, matching the deterministic contract."""
    raw = grow_bfs_tree(g, root, k, forbidden=forbidden)
    children = raw.children
    for level in raw.levels[:-1]:
        for v in level:
            if len(children[v]) < d:
                raise NoStructure(f"tree at {root}: branching shortfall at {v}")
    levels = [(root,)]
    for _ in range(k):
        levels.append(tuple(w for v in levels[-1] for w in children[v][:d]))
    return RootedTree(parent={v: raw.parent[v] for level in levels[1:] for v in level},
                      levels=tuple(levels))


def build_witness_paths(g: Graph, x: int, y: int, k: int, gamma: int, d: int
                        ) -> WitnessBundle:
    """Grow the disjoint tree scaffold between x and y.

    A hanging tree disqualifies its leaf when it collides within its first
    tenth of the hanging depth (at least one level): only the thin early
    levels are vulnerable (a single lost branch low down costs a constant
    fraction of the leaf set, while losses higher up are negligible).  So
    each hat is grown to depth min(cutoff, gamma) and judged there
    (``_hat_is_bad``); only a hat that passes is grown to gamma, and it is
    still excluded when it has no leaves there.

    Raises ValueError when x or y is not a vertex of g, or k < 1, gamma < 0
    or d < 2, before anything is grown.  Raises NoStructure when either
    pruned depth-k d-ary tree cannot be grown: a branching shortfall, or y
    falling inside x's tree.  Otherwise returns the bundle; excluded leaves
    surface in its report instead of failing the build, and which leaves get
    joined is left to the matched pairing (``rainbow_witness``).
    """
    if x == y:
        raise ValueError("x and y must differ")
    _check_scaffold(g, x, y, k, gamma, d)
    cutoff = max(1, -(-gamma // 10))
    top = min(cutoff, gamma)
    tree_x = _scaffold_tree(g, x, k, d, frozenset())
    used = tree_x.vertices()
    if y in used:
        raise NoStructure(f"{y} lies inside the depth-{k} tree of {x}")
    tree_y = _scaffold_tree(g, y, k, d, used)
    used |= tree_y.vertices()

    hats_x: dict[int, Optional[RootedTree]] = {}
    hats_y: dict[int, Optional[RootedTree]] = {}
    for tree, hats in ((tree_x, hats_x), (tree_y, hats_y)):
        for leaf in tree.leaves:
            hat = grow_bfs_tree(g, leaf, top, forbidden=used)
            if _hat_is_bad(g, hat, cutoff):
                hat = None
            elif top < gamma:
                full = grow_bfs_tree(g, leaf, gamma, forbidden=used)
                hat = full if full.leaves else None
            hats[leaf] = hat
            if hat is not None:
                used |= hat.vertices()

    return WitnessBundle(gamma=gamma, tree_x=tree_x, tree_y=tree_y,
                         hats_x=hats_x, hats_y=hats_y)


def bundle_text(bundle: WitnessBundle) -> str:
    """Bundle diagnostics as key=value lines, derived from its trees and
    hats: x, y, d, k, gamma, the two trees' level sizes and the leaves
    each side excluded."""
    tree_x, tree_y = bundle.tree_x, bundle.tree_y
    report = {
        "x": tree_x.root, "y": tree_y.root, "d": tree_x.arity(), "k": tree_x.target_depth,
        "gamma": bundle.gamma,
        "levels_x": ",".join(str(len(level)) for level in tree_x.levels),
        "levels_y": ",".join(str(len(level)) for level in tree_y.levels),
        "excluded_x": list(bundle.hats_x.values()).count(None),
        "excluded_y": list(bundle.hats_y.values()).count(None),
    }
    return "".join(f"{key}={value}\n" for key, value in report.items())


def rainbow_witness(g: Graph, c: EdgeColoring, x: int, y: int,
                    bundle: WitnessBundle) -> Optional[PathWitness]:
    """First fully rainbow x..y path assembled from the bundle under c.

    Runs the matched pairing on the two pruned trees, then walks the pairs
    in order, joining each matched leaf pair through its connector.  A
    composition whose colors repeat is skipped; the first rainbow one is
    returned through ``make_witness``.  None before any pairing when one
    side excluded every leaf (no pair has a connector) or either tree is not
    rainbow under c, and None when no composition is rainbow.
    GuaranteeViolation when the pairing of two rainbow trees breaks (see
    ``pair_tree_paths``), or a rainbow composition fails the re-check or
    does not run x..y; ValueError when c does not color g's edges.
    """
    check_coloring(g, c)
    trees = (bundle.tree_x, bundle.tree_y)
    if (not any(bundle.hats_x.values()) or not any(bundle.hats_y.values())
            or not all(_rainbow(c, t.edge_ids()) for t in trees)):
        return None
    for px, py in pair_tree_paths(*trees, c).pairs:
        conn = _find_connector(g, bundle.hats_x[px.leaf], bundle.hats_y[py.leaf])
        if conn is None:
            continue
        verts, eids = _join(px, conn, py)
        if _rainbow(c, eids):
            if (verts[0], verts[-1]) != (x, y):
                raise GuaranteeViolation(f"witness runs {verts[0]}..{verts[-1]}, not {x}..{y}")
            return make_witness(g, c, verts, eids)
    return None


def witness_via_trees(g: Graph, c: EdgeColoring, x: int, y: int,
                      k: int, gamma: int, d: int) -> Optional[PathWitness]:
    """End-to-end driver: direct short path when the trees would overlap,
    otherwise the scaffold (``build_witness_paths``) joined at its matched
    leaf pairs (``rainbow_witness``).  Every witness it returns runs x..y and
    was re-checked by ``make_witness``; None when y is unreachable, the
    scaffold cannot be grown or is not rainbow, or no matched pair yields a
    rainbow path.  GuaranteeViolation when a rainbow scaffold's pairing
    breaks; ValueError when x or y is not a vertex of g, k < 1, gamma < 0,
    d < 2 or c does not color g's edges, for close and far pairs alike.

    The BFS from x stops at y's level or at level 2k + 1, whichever comes
    first, so y reads -1 when it lies farther out or in another component.
    Both go to the scaffold, which finds no witness for an unreachable y:
    either it cannot grow, or no edge joins the two sides' hanging trees."""
    _check_scaffold(g, x, y, k, gamma, d)
    check_coloring(g, c)
    dist = bfs_distances(g, x, target=y, cutoff=2 * k + 1)
    if dist[y] >= 0:
        # close pair: the shortest path spans at most the two tree depths,
        # so under a distance-2k proper coloring it is rainbow as-is
        w = _shortest_path_witness(g, c, x, y, dist)
        if w is not None:
            return w
    try:
        bundle = build_witness_paths(g, x, y, k, gamma, d)
    except NoStructure:
        return None
    return rainbow_witness(g, c, x, y, bundle)


def _shortest_path_witness(g: Graph, c: EdgeColoring, x: int, y: int,
                           dist) -> Optional[PathWitness]:
    """Walk back from y along ``dist``: BFS distances from x, exact on every
    level up to y's.  Each step takes a neighbor one level nearer x, at
    least 0, so a vertex beyond y's level, which may read -1, is never
    taken."""
    adj = g.adj
    verts = [y]
    eids = []
    cur = y
    while cur != x:
        for w, eid in adj[cur]:
            if dist[w] == dist[cur] - 1:
                eids.append(eid)
                verts.append(w)
                cur = w
                break
    return make_witness(g, c, verts[::-1], eids[::-1]) if _rainbow(c, eids) else None


# ----------------------------------------------------------------------------
# fixtures: disjoint complete d-ary tree pairs
# ----------------------------------------------------------------------------

def build_tree_pair_graph(d: int, depth: int) -> tuple[Graph, RootedTree, RootedTree]:
    """One graph holding two disjoint complete d-ary trees of the given depth.

    Tree 1 occupies vertices 0..size-1 in BFS order, tree 2 the next block;
    the returned RootedTree structures are grown from the two roots.
    """
    if d < 1 or depth < 0:
        raise ValueError("need d >= 1 and depth >= 0")
    size = sum(d ** i for i in range(depth + 1))
    # in BFS numbering the parent of vertex w of a complete d-ary tree is (w-1)//d
    edges = [(base + (w - 1) // d, base + w) for base in (0, size) for w in range(1, size)]
    g = Graph(2 * size, sorted(edges))
    t1 = grow_bfs_tree(g, 0, depth)
    t2 = grow_bfs_tree(g, size, depth)
    return g, t1, t2


def random_rainbow_tree_coloring(g: Graph, t1: RootedTree, t2: RootedTree,
                                 palette: int, seed: int = 0) -> EdgeColoring:
    """Random coloring rainbow within each tree; palettes may overlap across.

    Each tree's edges draw distinct colors from [0, palette); edges outside
    both trees (none, for fixture graphs) draw uniformly.
    """
    from .rng import stream

    n_edges = [len(t1.edge_ids()), len(t2.edge_ids())]
    if palette < max(n_edges):
        raise ValueError("palette smaller than a tree's edge count")
    rng = stream(seed, "tree-pair-coloring")
    colors = [rng.randrange(palette) for _ in range(g.m)]
    for t in (t1, t2):
        sample = rng.sample(range(palette), len(t.edge_ids()))
        for eid, col in zip(t.edge_ids(), sample):
            colors[eid] = col
    return EdgeColoring(tuple(colors), palette, ("random",) * g.m)
