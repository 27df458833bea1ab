"""Output checks for the benchmark, written apart from the package.

Nothing here imports ``rainbowconn``: every check recomputes what it needs
from plain arrays (edge list, colors, witness vertex and edge ids), so a
defect in the package cannot vouch for itself.  Every check returns a list
of problem strings, empty when the output is correct, and none of them uses
``assert``, so they hold under ``python -O`` as well.
"""

from __future__ import annotations

import math

import numpy as np


def edge_array(edges) -> np.ndarray:
    """(m, 2) int64 array of an edge sequence (empty-safe)."""
    return np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def degrees(n: int, edges: np.ndarray) -> np.ndarray:
    return np.bincount(edges.ravel(), minlength=n)


def adjacency(n: int, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Own CSR (indptr, neighbors), built from the edge array alone."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order]


def reachable_count(n: int, indptr: np.ndarray, nbr: np.ndarray, source: int = 0) -> int:
    """Vertices reachable from ``source``, by level-synchronous BFS."""
    seen = np.zeros(n, dtype=bool)
    seen[source] = True
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        offsets = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
        reached = nbr[np.repeat(starts, counts) + offsets]
        frontier = np.unique(reached[~seen[reached]])
        seen[frontier] = True
    return int(seen.sum())


def hop_distance(indptr: list, nbr: list, x: int, y: int):
    """Hop distance x..y by bidirectional BFS; None when y is unreachable.

    Each step grows the smaller frontier by one whole level.  The first
    vertex that the grown side shares with the other side's seen set closes
    a shortest path: before the step no vertex was shared, so the distance
    exceeded the sum of the two radii.
    """
    if x == y:
        return 0
    seen = ({x: 0}, {y: 0})
    frontier = ([x], [y])
    while frontier[0] and frontier[1]:
        side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        mine, other = seen[side], seen[1 - side]
        grown = []
        for u in frontier[side]:
            du = mine[u] + 1
            for v in nbr[indptr[u]:indptr[u + 1]]:
                if v in mine:
                    continue
                if v in other:
                    return du + other[v]
                mine[v] = du
                grown.append(v)
        frontier = (grown, frontier[1]) if side == 0 else (frontier[0], grown)
    return None


# ----------------------------------------------------------------------------
# graphs
# ----------------------------------------------------------------------------

def canonical_problems(n: int, edges: np.ndarray) -> list[str]:
    """Canonical and simple: 0 <= u < v < n, rows strictly increasing."""
    out = []
    if edges.size == 0:
        return out
    u, v = edges[:, 0], edges[:, 1]
    if (u < 0).any() or (v >= n).any():
        out.append("endpoint outside [0, n)")
    if (u >= v).any():
        out.append(f"{int((u >= v).sum())} edges not stored as u < v (loops or flipped)")
    key = u * n + v
    if (np.diff(key) <= 0).any():
        out.append("edge list not strictly sorted (unsorted or repeated edges)")
    return out


def regular_problems(n: int, r: int, edges: np.ndarray) -> list[str]:
    out = canonical_problems(n, edges)
    if len(edges) != n * r // 2:
        out.append(f"{len(edges)} edges, expected nr/2 = {n * r // 2}")
    deg = degrees(n, edges)
    if (deg != r).any():
        out.append(f"{int((deg != r).sum())} vertices of degree other than {r}")
    return out


def gnp_problems(n: int, omega: float, edges: np.ndarray) -> list[str]:
    """Canonical, simple, and m within 6 standard deviations of p n(n-1)/2."""
    out = canonical_problems(n, edges)
    p = min(1.0, max(0.0, (math.log(n) + omega) / n))
    pairs = n * (n - 1) / 2
    mean, sd = p * pairs, math.sqrt(pairs * p * (1 - p))
    if abs(len(edges) - mean) > 6 * sd:
        out.append(f"{len(edges)} edges, expected {mean:.0f} +- 6*{sd:.0f}")
    return out


def connectivity_problems(n: int, edges: np.ndarray, claimed_connected: bool) -> list[str]:
    indptr, nbr = adjacency(n, edges)
    actual = reachable_count(n, indptr, nbr) == n
    if actual != claimed_connected:
        return [f"instance reported {'connected' if claimed_connected else 'disconnected'}"
                f" but is {'connected' if actual else 'disconnected'}"]
    return []


# ----------------------------------------------------------------------------
# colorings
# ----------------------------------------------------------------------------

def threshold_q(n: int) -> int:
    """q = ceil((1 + 5 eps) L), eps = 1/sqrt(log log n), L = log n / log log n."""
    loglog = math.log(math.log(n))
    raw = (1.0 + 5.0 / math.sqrt(loglog)) * math.log(n) / loglog
    return math.ceil(max(raw, 1.0))


def threshold_problems(n: int, edges: np.ndarray, colors: np.ndarray, palette: int) -> list[str]:
    """Pendant edges pairwise distinct; palette = max(Z1, q) + 2."""
    out = []
    deg = degrees(n, edges)
    z1 = int((deg == 1).sum())
    want = max(z1, threshold_q(n)) + 2
    if palette != want:
        out.append(f"palette {palette}, expected max(Z1={z1}, q={threshold_q(n)}) + 2 = {want}")
    if len(colors) != len(edges):
        return out + [f"{len(colors)} colors for {len(edges)} edges"]
    if len(colors) and (colors.min() < 0 or colors.max() >= palette):
        out.append("color outside [0, palette)")
    pendant = (deg[edges[:, 0]] == 1) | (deg[edges[:, 1]] == 1)
    pc = colors[pendant]
    if len(np.unique(pc)) != len(pc):
        out.append(f"{len(pc) - len(np.unique(pc))} pendant edges repeat a color")
    return out


def within_radius(n: int, edges: np.ndarray, radius: int) -> np.ndarray:
    """Boolean n x n matrix: vertices at most ``radius`` hops apart."""
    indptr, nbr = adjacency(n, edges)
    deg = np.diff(indptr)
    reach = np.eye(n, dtype=bool)
    for _ in range(radius):
        # the trailing empty row keeps reduceat's indices in range; an empty
        # slice still yields a row, which the degree mask clears
        rows = np.concatenate([reach[nbr], np.zeros((1, n), dtype=bool)])
        grown = np.logical_or.reduceat(rows, indptr[:-1], axis=0)
        grown[deg == 0] = False
        reach |= grown
    return reach


def power_coloring_problems(n: int, edges: np.ndarray, colors: np.ndarray,
                            radius: int) -> list[str]:
    """No color repeats between edges at line-graph distance <= radius.

    Distinct edges e and f are within line distance R exactly when some
    endpoint of e is within R - 1 hops of some endpoint of f, so one vertex
    reach matrix decides every same-colored pair.
    """
    if radius < 1 or len(edges) < 2:
        return []
    reach = within_radius(n, edges, radius - 1)
    order = np.argsort(colors, kind="stable")
    bounds = np.flatnonzero(np.diff(colors[order])) + 1
    clashes = 0
    for group in np.split(order, bounds):
        if len(group) < 2:
            continue
        a, b = edges[group, 0], edges[group, 1]
        near = reach[np.ix_(a, a)] | reach[np.ix_(a, b)] | reach[np.ix_(b, a)] | reach[np.ix_(b, b)]
        clashes += int(np.triu(near, 1).sum())
    return [f"{clashes} same-colored edge pairs within line distance {radius}"] if clashes else []


def recolor_problems(base: np.ndarray, recolored: np.ndarray, base_palette: int,
                     palette: int) -> list[str]:
    """Recolored edges take fresh colors past the base palette; others keep theirs."""
    out = []
    if len(base) != len(recolored):
        return [f"{len(recolored)} recolored entries for {len(base)} edges"]
    changed = recolored != base
    fresh = recolored >= base_palette
    if (changed & ~fresh).any():
        out.append(f"{int((changed & ~fresh).sum())} edges changed to a base-palette color")
    if (recolored >= palette).any() or (recolored < 0).any():
        out.append("color outside [0, palette)")
    if palette < base_palette:
        out.append(f"palette {palette} shrank below the base {base_palette}")
    return out


# ----------------------------------------------------------------------------
# witnesses
# ----------------------------------------------------------------------------

def witness_problems(edges: np.ndarray, colors: np.ndarray, indptr: list, nbr: list,
                     x: int, y: int, vertices, edge_ids, color_set=None) -> list[str]:
    """A rainbow x..y path: real edges, simple, distinct colors, not too short."""
    vertices, edge_ids = list(vertices), list(edge_ids)
    if len(vertices) != len(edge_ids) + 1 or vertices[0] != x or vertices[-1] != y:
        return [f"{x}-{y}: path does not run from {x} to {y}"]
    out = []
    m = len(edges)
    for a, b, eid in zip(vertices, vertices[1:], edge_ids):
        if not 0 <= eid < m or tuple(edges[eid].tolist()) != (min(a, b), max(a, b)):
            out.append(f"{x}-{y}: edge id {eid} does not join {a} and {b}")
    if len(set(vertices)) != len(vertices):
        out.append(f"{x}-{y}: path repeats a vertex")
    if out:
        return out
    cols = [int(colors[e]) for e in edge_ids]
    if len(set(cols)) != len(cols):
        out.append(f"{x}-{y}: colors repeat along the path {cols}")
    if color_set is not None and set(color_set) != set(cols):
        out.append(f"{x}-{y}: reported color set differs from the path's colors")
    dist = hop_distance(indptr, nbr, x, y)
    if dist is None or len(edge_ids) < dist:
        out.append(f"{x}-{y}: length {len(edge_ids)} below hop distance {dist}")
    return out
