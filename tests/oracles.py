"""Deliberately naive reference implementations for cross-checking.

Everything here trades speed for obviousness: plain dict adjacency, full
enumeration, no pruning beyond what correctness requires.  Library results
are compared against these on instances small enough for the naive cost.

The ``*_before`` functions are different: they are the implementations a
hot-path rewrite replaced, kept verbatim (less the argument checks) so a
differential test can demand identical results from the rewrite, or, where
the rewrite changed results on purpose, results at least as good.
"""

import math
from collections import deque
from functools import lru_cache
from itertools import product
from types import SimpleNamespace

import numpy as np

from rainbowconn import graphs, pairing
from rainbowconn.coloring import EdgeColoring, check_coloring
from rainbowconn.errors import GuaranteeViolation, NoStructure, PaletteExhausted
from rainbowconn.graphs import bfs_distances as graph_bfs_distances
from rainbowconn.graphs import AMBIGUOUS, DegreeStats, Graph, default_small_threshold, diameter
from rainbowconn.rng import stream
from rainbowconn.verify import PathWitness, make_witness


def adjacency(n, edges):
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def all_simple_paths(n, edges, x, y):
    """Every simple x..y path as a vertex list, DFS order."""
    adj = adjacency(n, edges)
    out = []
    stack = [(x, [x])]
    while stack:
        v, path = stack.pop()
        if v == y:
            out.append(path)
            continue
        for w in adj[v]:
            if w not in path:
                stack.append((w, path + [w]))
    return out


def path_colors(edges, coloring, path):
    eidx = {}
    for i, (u, v) in enumerate(edges):
        eidx[(u, v)] = i
        eidx[(v, u)] = i
    return [coloring[eidx[(path[i], path[i + 1])]] for i in range(len(path) - 1)]


def has_rainbow_path(n, edges, coloring, x, y):
    for path in all_simple_paths(n, edges, x, y):
        cols = path_colors(edges, coloring, path)
        if len(set(cols)) == len(cols):
            return True
    return False


def rainbow_connected(n, edges, coloring):
    for x in range(n):
        for y in range(x + 1, n):
            if not has_rainbow_path(n, edges, coloring, x, y):
                return False
    return True


def naive_rc(n, edges, q_cap=None):
    """Smallest q admitting a rainbow-connecting coloring, by full q^m scan.

    Returns None when no q up to the cap works (disconnected input or cap
    too small).  Exponential; keep m small.
    """
    m = len(edges)
    if m == 0:
        return 0 if n <= 1 else None
    cap = q_cap if q_cap is not None else n - 1
    for q in range(1, cap + 1):
        for coloring in product(range(q), repeat=m):
            if rainbow_connected(n, edges, coloring):
                return q
    return None


def bfs_distances(n, edges, source):
    """Hop distances from source by a deque walk, -1 for unreachable; the
    walk ``graphs.bfs_distances`` took on graphs below 4096 vertices before
    the CSR level sweep served every size."""
    adj = adjacency(n, edges)
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def bfs_levels(n, edges, root):
    """Vertex count per BFS level from root."""
    adj = adjacency(n, edges)
    seen = {root}
    level = [root]
    sizes = []
    while level:
        sizes.append(len(level))
        nxt = []
        for v in level:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        level = nxt
    return sizes


def pairwise_distances(n, edges):
    """Floyd-Warshall; None stands for unreachable."""
    INF = float("inf")
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for mid in range(n):
        for i in range(n):
            dmi = dist[mid]
            di = dist[i]
            via = di[mid]
            if via == INF:
                continue
            for j in range(n):
                alt = via + dmi[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def line_distance(edges, e1, e2):
    """Distance between two edges in the line graph, by BFS over edges."""
    if e1 == e2:
        return 0
    nbrs = {}
    for i, (u, v) in enumerate(edges):
        for j, (a, b) in enumerate(edges):
            if i != j and {u, v} & {a, b}:
                nbrs.setdefault(i, []).append(j)
    seen = {e1}
    frontier = [e1]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for e in frontier:
            for f in nbrs.get(e, []):
                if f == e2:
                    return d
                if f not in seen:
                    seen.add(f)
                    nxt.append(f)
        frontier = nxt
    return None


def canonical_violation(n, edges):
    """The message the edge-by-edge constructor check gave for the first
    edge out of range or out of lexicographic order, None if there is none."""
    prev = (-1, -1)
    for u, v in edges:
        if not (0 <= u < v < n):
            return f"edge {(u, v)} violates 0 <= u < v < n={n}"
        if not prev < (u, v):
            return f"edge list not sorted/deduplicated at {(u, v)}"
        prev = (u, v)
    return None


def canonical_adjacency(n, edges):
    """Tuple-of-tuples adjacency of a canonical edge list, built the way the
    Graph constructor used to: ``adj[v]`` lists (neighbor, edge id) sorted."""
    adj = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    for lst in adj:
        lst.sort()
    return tuple(tuple(lst) for lst in adj)


def degree_stats_before(g, small_threshold=None):
    """``graphs.degree_stats`` as a Python loop over the vertices."""
    if small_threshold is None:
        small_threshold = default_small_threshold(g.n)
    hist = {}
    small = []
    for v, d in enumerate(g.degrees()):
        hist[d] = hist.get(d, 0) + 1
        if d < small_threshold:
            small.append(v)
    return DegreeStats(z1=hist.get(1, 0), small_vertices=frozenset(small), histogram=hist,
                       small_threshold=float(small_threshold))


def build_csr_before(n, u, v):
    """``graphs._build_csr`` ordering the 2m slots by a stable argsort of
    their owners, as it did before it sorted distinct keys as values."""
    m = len(u)
    owner = np.concatenate([v, u])
    order = np.argsort(owner, kind="stable")
    nbr = np.concatenate([u, v])[order]
    eid = order % max(m, 1)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
    return indptr, nbr, eid


def rainbow_path_exact_before(g, c, x, y, max_len=None):
    """``verify.rainbow_path_exact`` with a visited set kept beside ``parent``."""
    if max_len is None:
        max_len = g.n - 1
    if x == y:
        return PathWitness((x,), (), frozenset())
    colors = c.colors
    adj = g.adj
    parent = {}
    queue = deque([(x, 0, 0)])  # vertex, mask, depth
    seen = {(x, 0)}
    while queue:
        u, mask, depth = queue.popleft()
        if depth == max_len:
            continue
        for v, eid in adj[u]:
            bit = 1 << colors[eid]
            if mask & bit:
                continue
            state = (v, mask | bit)
            if state in seen:
                continue
            seen.add(state)
            parent[state] = (u, mask, eid)
            if v == y:
                verts = [v]
                eids = []
                cur = state
                while cur != (x, 0):
                    pu, pmask, peid = parent[cur]
                    eids.append(peid)
                    verts.append(pu)
                    cur = (pu, pmask)
                verts.reverse()
                eids.reverse()
                return make_witness(g, c, verts, eids)
            queue.append((v, state[1], depth + 1))
    return None


def rainbow_path_search_before(g, c, x, y, max_len=None, budget=10 ** 6, seed=0):
    """``verify.rainbow_path_search`` with (vertex, neighbor list, cursor)
    stack entries, one rebuilt per step.  Its budget rule is the search's
    own, ported: the budget counts the neighbor slots shuffled, and the
    search gives up before a shuffle that would pass it."""
    if x == y:
        return PathWitness((x,), (), frozenset())
    dist_arr = graph_bfs_distances(g, y)
    if dist_arr[x] < 0:
        return None
    dist = dist_arr.tolist()
    if max_len is None:
        d = diameter(g, "double_sweep")
        if d is None:
            finite = dist_arr[dist_arr >= 0]
            d = int(finite.max()) if finite.size else 0
        max_len = math.ceil(4 * d)
    limit_cap = min(max_len, c.palette_size, g.n - 1)
    if dist[x] > limit_cap:
        return None
    rng = stream(seed, f"search:{x}:{y}")
    colors = c.colors
    indptr, nbr, eids = g.csr()

    def incident(v):
        a, b = indptr[v], indptr[v + 1]
        return list(zip(nbr[a:b].tolist(), eids[a:b].tolist()))

    spent = 0  # neighbor slots shuffled

    for limit in range(dist[x], limit_cap + 1):
        path = [x]
        on_path = {x}
        edge_path = []
        used = set()
        first = incident(x)
        spent += len(first)
        if spent > budget:
            return None
        rng.shuffle(first)
        stack = [(x, first, 0)]
        while stack:
            u, nbrs, i = stack[-1]
            if i >= len(nbrs):
                stack.pop()
                if edge_path:
                    used.discard(colors[edge_path.pop()])
                    on_path.discard(path.pop())
                continue
            stack[-1] = (u, nbrs, i + 1)
            v, eid = nbrs[i]
            if v in on_path:
                continue
            col = colors[eid]
            if col in used:
                continue
            depth = len(edge_path) + 1
            if depth + dist[v] > limit:
                continue
            if v == y:
                return make_witness(g, c, path + [v], edge_path + [eid])
            path.append(v)
            on_path.add(v)
            edge_path.append(eid)
            used.add(col)
            nxt = incident(v)
            spent += len(nxt)
            if spent > budget:
                return None
            rng.shuffle(nxt)
            stack.append((v, nxt, 0))
    return None


def corridor_distances_before(g, x, y):
    """``graphs.corridor_distances`` with y's continued labels kept across
    limits, as ``(copy, frontier, level)``, and dropped on each growth of a
    ball.  It reads the live ``bfs_levels``, ``_gather`` and
    ``_label_fresh``, so patching ``graphs._BOTTOM_UP_COST`` reaches it."""
    sweeps = (graphs.bfs_levels(g, y), graphs.bfs_levels(g, x))  # y's ball, then x's
    (near_y, front_y), (near_x, front_x) = map(next, sweeps)
    fronts, radii = [front_y, front_x], [0, 0]
    limit = 0 if x == y else -1  # -1 until the balls meet
    cont = None  # y's labels continued inside x's ball, as (copy, frontier, level)
    while True:
        while limit < 0 or sum(radii) < limit - 1:
            cont = None
            side = int(fronts[0].size > fronts[1].size)
            step = next(sweeps[side], None)
            if step is None:
                if limit < 0:
                    return  # x lies outside y's component
                radii[side] = math.inf
                continue
            radii[side] += 1
            fronts[side] = step[1]
            other = (near_x, near_y)[side]
            if limit < 0 and other[step[1]].max() >= 0:
                limit = sum(radii)
        if radii[0] >= limit - 1:
            yield limit, near_y
        else:
            if cont is None:
                cont = near_y.copy(), fronts[0], radii[0]
            copy, frontier, level = cont
            while level < limit - 1 and frontier.size:
                level += 1
                nbrs = graphs._gather(g, frontier)[0]
                frontier = graphs._label_fresh(g, copy, nbrs[near_x[nbrs] >= 0], level)
            cont = copy, frontier, level
            yield limit, copy
        limit += 1


def _ball_before(g, x, radius):
    """Vertices within ``radius`` hops of x, mapped to their distance."""
    adj = g.adj
    dist = {x: 0}
    queue = deque([x])
    while queue:
        u = queue.popleft()
        if dist[u] == radius:
            continue
        for v, _ in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _induced_edge_count_before(g, vertices):
    adj = g.adj
    total = 0
    for u in vertices:
        for v, _ in adj[u]:
            if v in vertices:
                total += 1
    return total // 2


def neighborhood_cycle_before(g, x, depth):
    """``graphs.neighborhood_cycle`` counting the ball's induced edges, then
    peeling leaves until only the cycle is left and walking around it."""
    ball = _ball_before(g, x, depth)
    e_count = _induced_edge_count_before(g, ball)
    if e_count <= len(ball) - 1:
        return None
    if e_count >= len(ball) + 1:
        return AMBIGUOUS
    # Exactly one cycle: peel degree-1 vertices until only the cycle remains.
    adj = g.adj
    deg = {}
    for u in ball:
        deg[u] = sum(1 for v, _ in adj[u] if v in ball)
    queue = deque(u for u, d in deg.items() if d <= 1)
    alive = set(ball)
    while queue:
        u = queue.popleft()
        if u not in alive:
            continue
        alive.discard(u)
        for v, _ in adj[u]:
            if v in alive and v in deg:
                deg[v] -= 1
                if deg[v] == 1:
                    queue.append(v)
    start = min(alive)
    cycle_nbrs = sorted(v for v, _ in adj[start] if v in alive)
    order = [start, cycle_nbrs[0]]
    while True:
        here, prev = order[-1], order[-2]
        nxt = [v for v, _ in adj[here] if v in alive and v != prev]
        if nxt[0] == start:
            break
        order.append(nxt[0])
    return tuple(order)


def grow_bfs_tree_before(g, root, depth, min_branching=0, forbidden=frozenset()):
    """``graphs.grow_bfs_tree`` counting, per expanded vertex, the edges it
    skipped (``bad_edges``) and naming the first vertex with fewer than
    ``min_branching`` children (``shortfall``); returned as a namespace with
    the tree's ``root``, ``parent``, ``depth``, ``order`` and ``leaves``."""
    parent = {}
    depth_of = {root: 0}
    order = [root]
    bad = {}
    shortfall = None
    level = [root]
    adj = g.adj
    for d in range(depth):
        nxt = []
        for v in level:
            kids = 0
            skipped = 0
            for w, eid in adj[v]:
                if v != root and w == parent[v][0]:
                    continue
                if w in forbidden or w in depth_of:
                    skipped += 1
                    continue
                depth_of[w] = d + 1
                parent[w] = (v, eid)
                kids += 1
                nxt.append(w)
                order.append(w)
            bad[v] = skipped
            if kids < min_branching and shortfall is None:
                shortfall = v
        level = nxt
    return SimpleNamespace(root=root, parent=parent, depth=depth_of, order=tuple(order),
                           leaves=tuple(v for v in order if depth_of[v] == depth),
                           bad_edges=bad, shortfall=shortfall)


def line_ball_before(g, edges, e, radius, visited, stamp):
    """``coloring._line_ball``, the edge walk that vertex balls replaced:
    edge ids within line distance 1..radius of ``e``, found
    level by level over edges, ``visited`` (one slot per edge) marked with
    ``stamp``, a value not yet in it, so one array serves many calls.
    ``edges`` is ``g.edges``, read once by the caller."""
    adj = g.adj
    visited[e] = stamp
    ball = []
    frontier = [e]
    for _ in range(radius):
        nxt = []
        for f in frontier:
            for endpoint in edges[f]:
                for _, fid in adj[endpoint]:
                    if visited[fid] != stamp:
                        visited[fid] = stamp
                        nxt.append(fid)
        if not nxt:
            break
        ball.extend(nxt)
        frontier = nxt
    return ball


def line_distance_neighbors_before(g, edge_id, radius):
    """``coloring.line_distance_neighbors`` over ``line_ball_before``."""
    return set(line_ball_before(g, g.edges, edge_id, radius, [0] * g.m, 1))


def color_greedy_power_before(g, radius, q, seed=0):
    """``coloring.color_greedy_power`` over ``line_ball_before``, one stamp
    per edge: the blocked colors are those of the colored edges in the ball."""
    rng = stream(seed, "greedy")
    m = g.m
    colors = [-1] * m
    visited = [0] * m
    edges = g.edges
    for e in range(m):
        blocked = {colors[f] for f in line_ball_before(g, edges, e, radius, visited, e + 1)
                   if f < e}
        free = q - len(blocked)
        if free <= 0:
            raise PaletteExhausted(e, len(blocked), q)
        color = rng.randrange(free)
        for b in sorted(blocked):
            if b <= color:
                color += 1
            else:
                break
        colors[e] = color
    return EdgeColoring(tuple(colors), q, ("greedy",) * m)


def hat_is_bad_before(hat, cutoff):
    """``pairing._hat_is_bad`` reading the skip counts of
    ``grow_bfs_tree_before``: any skipped edge above depth ``cutoff``, the
    root's one edge back into the scaffold aside, or no leaves at all."""
    if not hat.leaves:
        return True
    for v, cnt in hat.bad_edges.items():
        if v == hat.root:
            cnt -= 1
        if cnt > 0 and hat.depth[v] < cutoff:
            return True
    return False


def gen_gnp_before(params):
    """``graphs.gen_gnp`` as the element-wise Batagelj-Brandes skip loop:
    one ``random()`` per gap, the pairs kept in Python lists, then sorted."""
    n = params.n
    clamped = False
    if params.p is not None:
        p = float(params.p)
    else:
        raw = (math.log(n) + params.omega) / n
        p = min(1.0, max(0.0, raw))
        clamped = raw != p
    rng = stream(params.seed, "gnp")
    # edges (w, v), w < v, in column order
    ws = []
    vs = []
    if p >= 1.0:
        for v in range(n):
            ws.extend(range(v))
            vs.extend([v] * v)
    elif p > 0.0:
        # Batagelj-Brandes: jump over non-edges with geometric gaps
        log1p = math.log(1.0 - p)
        v, w = 1, -1
        while v < n:
            w += 1 + int(math.log(1.0 - rng.random()) / log1p)
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                ws.append(w)
                vs.append(v)
    u_arr = np.array(ws, dtype=np.int64)
    v_arr = np.array(vs, dtype=np.int64)
    del ws, vs  # freed before the Graph is built, to keep peak memory down
    order = np.lexsort((v_arr, u_arr))
    edges = np.column_stack((u_arr[order], v_arr[order]))
    return Graph(n, edges, meta={"p": p, "p_clamped": clamped})


def bipartite_matching_before(adjacency):
    """``pairing.bipartite_matching`` as the recursive Kuhn search it
    replaced: rows in order, each row's columns in order, one visited set
    per row's search."""
    rows = len(adjacency)
    cols = len(adjacency[0]) if rows else 0
    match_col = [None] * cols

    def augment(i, visited):
        for j in range(cols):
            if adjacency[i][j] and j not in visited:
                visited.add(j)
                if match_col[j] is None or augment(match_col[j], visited):
                    match_col[j] = i
                    return True
        return False

    for i in range(rows):
        augment(i, set())
    return {(i, j) for j, i in enumerate(match_col) if i is not None}


def pair_tree_paths_before(t1, t2, c):
    """``pairing.pair_tree_paths`` as the per-level branch recursion it
    replaced, less the argument checks: the (x leaf, y leaf) pairs it
    matched, in its order.  Each round matches the branches below a node
    pair, one child deep for d >= 3 with floor d - 1, and for d = 2 two
    levels deep with floor 2 (one level, floor 1, for a last odd level).
    Raises GuaranteeViolation when a round matches fewer than its floor."""
    d = t1.arity()

    def subtree_colors(t):
        out = {}
        for level in reversed(t.levels):
            for v in level:
                acc = set()
                for w in t.children[v]:
                    acc |= out[w]
                    acc.add(c.colors[t.parent[w][1]])
                out[v] = frozenset(acc)
        return out

    def branches(t, node, step):
        out = [(node, [])]
        for _ in range(step):
            out = [(w, eids + [t.parent[w][1]]) for v, eids in out for w in t.children[v]]
        return out

    def branch_matrix(bx, by):
        cx = [{c.colors[e] for e in eids} for _, eids in bx]
        cy = [{c.colors[e] for e in eids} for _, eids in by]
        below_y = [cy[j] | sub2[end] for j, (end, _) in enumerate(by)]
        return [[cx[i].isdisjoint(below_y[j]) and cy[j].isdisjoint(sub1[end])
                 for j in range(len(by))]
                for i, (end, _) in enumerate(bx)]

    def step_of(remaining):
        return (2, 2) if d == 2 and remaining >= 2 else (1, d - 1)

    sub1 = subtree_colors(t1)
    sub2 = subtree_colors(t2)

    def recurse(xn, yn, remaining):
        if remaining == 0:
            return [(xn, yn)]
        step, floor = step_of(remaining)
        bx = branches(t1, xn, step)
        by = branches(t2, yn, step)
        matched = bipartite_matching_before(branch_matrix(bx, by))
        if len(matched) < floor:
            raise GuaranteeViolation(
                f"matching of size {len(matched)} < {floor} at nodes ({xn}, {yn})")
        return [pair for i, j in sorted(matched)
                for pair in recurse(bx[i][0], by[j][0], remaining - step)]

    return recurse(t1.root, t2.root, t1.target_depth)


def max_leaf_pairs(t1, t2, c):
    """Most (x leaf, y leaf) pairs, no leaf used twice, whose two root paths
    share no color: a DP over the x leaves in order and the set of y leaves
    used so far.  Fine up to about 16 leaves per side."""
    def path_colors(t, leaf):
        cols = set()
        while leaf != t.root:
            leaf, eid = t.parent[leaf]
            cols.add(c.colors[eid])
        return cols

    cols1 = [path_colors(t1, v) for v in t1.leaves]
    cols2 = [path_colors(t2, v) for v in t2.leaves]

    @lru_cache(maxsize=None)
    def best(i, used):
        if i == len(cols1):
            return 0
        out = best(i + 1, used)
        for j, cols in enumerate(cols2):
            if not used >> j & 1 and cols1[i].isdisjoint(cols):
                out = max(out, 1 + best(i + 1, used | 1 << j))
        return out

    return best(0, 0)


def witness_via_trees_before(g, c, x, y, k, gamma, d):
    """``pairing.witness_via_trees`` as it was while it ran a full BFS from
    x per pair, argument checks included: None at once for an unreachable
    y, the shortest path for a pair at most 2k + 1 apart when it is
    rainbow, and the scaffold otherwise."""
    pairing._check_scaffold(g, x, y, k, gamma, d)
    check_coloring(g, c)
    dist = graph_bfs_distances(g, x)
    if dist[y] < 0:
        return None
    if dist[y] <= 2 * k + 1:
        w = pairing._shortest_path_witness(g, c, x, y, dist)
        if w is not None:
            return w
    try:
        bundle = pairing.build_witness_paths(g, x, y, k, gamma, d)
    except NoStructure:
        return None
    return pairing.rainbow_witness(g, c, x, y, bundle)
