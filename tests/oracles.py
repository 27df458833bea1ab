"""Deliberately naive reference implementations for cross-checking.

Everything here trades speed for obviousness: plain dict adjacency, full
enumeration, no pruning beyond what correctness requires.  Library results
are compared against these on instances small enough for the naive cost.
"""

from collections import deque
from itertools import product


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
