"""Edge colorings: parameter derivation and the three coloring passes.

Two parameter bundles drive everything.  ``threshold_params`` serves binomial
graphs near the connectivity threshold, where the optimal palette tracks
``L = log n / log log n`` and the pendant-vertex count; ``regular_params``
serves random r-regular graphs, where the palette grows like a power of
``log n`` through the local tree depth k.  Both clamp real-valued
intermediates below 1 up to 1 and record which formulas clamped, so
desk-scale parameter degeneracy is visible rather than silent.

The passes:

- ``color_threshold``: pendant edges get distinct dedicated colors, each
  low-degree vertex of degree >= 2 gets one Red and one Blue reserved edge,
  and every remaining edge draws uniformly at random.  Priority is
  pendant > red_blue > random, recorded per edge in ``provenance``.
- ``color_greedy_power``: proper coloring of the distance power of the line
  graph; edge e may not share a color with any edge within line-distance
  ``radius``.  Colors are drawn uniformly among the non-blocked ones, so the
  result is both proper and usefully random.  An edge f other than
  e = (a, b) lies within line distance R of e exactly when f has an end
  within graph distance R - 1 of a or b, so the blocked edges are those at
  the vertices of two balls.  Every vertex's ball is built once, as one
  bitset row per vertex (n^2 / 8 bytes: 0.5 MB at n = 2000, 50 MB at
  n = 2 * 10^4), and each edge reads its two rows.
  ``line_distance_neighbors`` answers one edge, so it reads two cut
  ``bfs_distances`` sweeps instead.
- ``recolor_cycle_classes``: roots whose depth-k neighborhood spans exactly
  one cycle are grouped by that cycle; each group's induced edges are
  recolored positionally from fresh palettes so that structurally identical
  groups receive identical colorings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import NotConnected, PaletteExhausted
from .graphs import (AMBIGUOUS, Graph, bfs_distances, connected, default_small_threshold,
                     neighborhood_cycle, parse_fields, pendant_edges, read_text_lines)
from .rng import np_stream, stream

__all__ = [
    "EdgeColoring",
    "check_coloring",
    "ThresholdParams",
    "RegularParams",
    "CycleClass",
    "threshold_params",
    "regular_params",
    "color_threshold",
    "line_distance_neighbors",
    "color_greedy_power",
    "recolor_cycle_classes",
    "random_coloring",
    "write_coloring",
    "read_coloring",
]

PROVENANCE_TAGS = ("pendant", "red_blue", "random", "greedy", "cycle_class")


@dataclass(frozen=True)
class EdgeColoring:
    """Colors per edge id, palette size, and one provenance tag per edge."""

    colors: tuple[int, ...]
    palette_size: int
    provenance: tuple[str, ...]
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.colors) != len(self.provenance):
            raise ValueError("colors and provenance length mismatch")
        if self.palette_size < 0:
            raise ValueError(f"palette size {self.palette_size} is negative")
        if self.colors:
            used = set(self.colors)  # a few distinct colors; one pass over the m-tuple
            for c in (min(used), max(used)):
                if not 0 <= c < self.palette_size:
                    raise ValueError(f"color {c} outside palette [0, {self.palette_size})")
        unknown = set(self.provenance).difference(PROVENANCE_TAGS)
        if unknown:
            raise ValueError(f"unknown provenance tag {min(unknown)!r}")

    @property
    def m(self) -> int:
        return len(self.colors)

    def used_colors(self) -> set[int]:
        return set(self.colors)


def check_coloring(g: Graph, c: EdgeColoring) -> None:
    """ValueError, naming both counts, when c does not color exactly g's edges."""
    if c.m != g.m:
        raise ValueError(f"coloring colors {c.m} edges but the graph has {g.m}")


@dataclass(frozen=True)
class ThresholdParams:
    """Derived quantities for coloring G(n,p) at the connectivity threshold.

    L is the length scale log n / log log n; k and gamma are the expansion
    and connector tree depths; q is the random-palette size; p0 the constant
    edge-survival rate used in sparsification arguments; branching the
    per-level growth floor log n / 101.  ``clamped`` names formulas whose
    raw value fell below 1.
    """

    n: int
    epsilon: float
    L: float
    k: int
    gamma: int
    q: int
    p0: float
    branching: float
    clamped: tuple[str, ...] = ()


@dataclass(frozen=True)
class RegularParams:
    """Derived quantities for coloring random r-regular graphs.

    k is the local tree depth (doubly logarithmic in n), q = 10 (r-1)^{2k}
    the greedy palette, gamma the connector depth at scale log_{r-1} n,
    theta_r = log(r-1)/log(r-2) the palette growth exponent (undefined for
    r = 3), and sigma the guaranteed rainbow path-pair count per tree pair.
    """

    n: int
    r: int
    k: int
    theta_r: Optional[float]
    q: int
    gamma: int
    epsilon: float
    sigma: int
    clamped: tuple[str, ...] = ()


@dataclass(frozen=True)
class CycleClass:
    """All recolored roots sharing one cycle length.

    ``fresh_palette`` is the contiguous color block appended for this
    length, disjoint from the base palette and from other lengths'.  The
    edge at canonical position j (shape offset plus traversal position) of
    a class gets color ``fresh_palette[0] + j``.
    """

    cycle_length: int
    member_roots: frozenset[int]
    fresh_palette: tuple[int, int]  # [start, stop)


# ----------------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------------

def _clamp1(raw: float, name: str, clamped: list[str]) -> float:
    if raw < 1.0:
        clamped.append(name)
        return 1.0
    return raw


def _tree_depth(raw: float, name: str, n: int, epsilon: float, clamped: list[str]) -> int:
    """ceil(raw) clamped up to 1; refused at n or more (or when epsilon
    overflowed it), since no tree on n vertices is that deep."""
    if not raw <= n - 1:
        raise ValueError(f"epsilon is too large: {name} = {raw:.6g} reaches n={n} "
                         f"at epsilon={epsilon}")
    return math.ceil(_clamp1(raw, name, clamped))


def threshold_params(n: int, epsilon: Optional[float] = None) -> ThresholdParams:
    """Palette and tree parameters for the threshold-density coloring.

    Requires n >= 16 so that log log n > 1 and L is well behaved.  The
    default epsilon = 1/sqrt(log log n) vanishes as n grows, which keeps
    q = ceil((1+5 epsilon) L) within (1+o(1)) L of the optimum.  An epsilon
    that makes k or gamma reach n is refused.
    """
    if n < 16:
        raise ValueError(f"threshold_params needs n >= 16 (log log n must exceed 1), got n={n}")
    loglog = math.log(math.log(n))
    if epsilon is None:
        epsilon = 1.0 / math.sqrt(loglog)
    if not 0.0 < epsilon < math.inf:  # NaN fails the comparison too
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    L = math.log(n) / loglog
    clamped: list[str] = []
    k = _tree_depth(epsilon * L, "k", n, epsilon, clamped)
    gamma = _tree_depth((0.5 + epsilon) * L, "gamma", n, epsilon, clamped)
    q = math.ceil(_clamp1((1.0 + 5.0 * epsilon) * L, "q", clamped))
    p0 = ((1.0 + 3.0 * epsilon) / (1.0 + 5.0 * epsilon)) ** 2
    branching = _clamp1(math.log(n) / 101.0, "branching", clamped)
    return ThresholdParams(n=n, epsilon=epsilon, L=L, k=k, gamma=gamma, q=q, p0=p0,
                           branching=branching, clamped=tuple(clamped))


def regular_params(n: int, r: int, epsilon: Optional[float] = None) -> RegularParams:
    """Palette and tree parameters for the regular-graph greedy coloring.

    The depth k switches form at r = 4: for r >= 4 it is log_{r-2} log n
    rounded up; the r = 3 expression compensates for binary branching with
    an extra doubly-log correction.  sigma, the guaranteed number of rainbow
    path pairs, is (r-2)^{k-1} - 6 for r >= 4 (clamped to 1) and 2^{floor(k/2)}
    for r = 3.  epsilon, the slack in the hanging depth gamma, defaults to 0.1;
    one that makes gamma reach n is refused.
    """
    if n < 16:
        raise ValueError(f"regular_params needs n >= 16, got n={n}")
    if r < 3:
        raise ValueError(f"regular_params needs r >= 3, got r={r}")
    if epsilon is None:
        epsilon = 0.1
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    logn = math.log(n)
    clamped: list[str] = []
    if r >= 4:
        k = math.ceil(_clamp1(math.log(logn) / math.log(r - 2), "k", clamped))
        theta_r: Optional[float] = math.log(r - 1) / math.log(r - 2)
        sigma_raw = (r - 2) ** (k - 1) - 6
        if sigma_raw < 1:
            clamped.append("sigma")
            sigma = 1
        else:
            sigma = sigma_raw
    else:
        log2 = math.log2
        k = math.ceil(_clamp1(2 * log2(logn) - 2 * log2(log2(logn)), "k", clamped))
        theta_r = None
        sigma = 2 ** (k // 2)
    q = 10 * (r - 1) ** (2 * k)
    gamma = _tree_depth((0.5 + epsilon) * logn / math.log(r - 1), "gamma", n, epsilon, clamped)
    return RegularParams(n=n, r=r, k=k, theta_r=theta_r, q=q, gamma=gamma,
                         epsilon=epsilon, sigma=sigma, clamped=tuple(clamped))


# ----------------------------------------------------------------------------
# threshold-density coloring
# ----------------------------------------------------------------------------

def color_threshold(g: Graph, params: ThresholdParams, seed: int = 0,
                    small_threshold: Optional[float] = None) -> EdgeColoring:
    """Pendant-distinct + reserved-pair + uniform random coloring.

    Palette is max(Z1, q) + 2: pendant edges take colors 0..Z1-1 (one per
    degree-1 vertex, shared when an edge is pendant at both ends), the top
    two ids are the reserved Red and Blue, and everything else draws
    uniformly from [0, max(Z1, q)).  Each low-degree vertex of degree >= 2
    gets Red and Blue on its two lowest-id non-pendant edges so that local
    detours around it stay rainbow.

    ``small_threshold`` defaults to ``default_small_threshold``, the
    analysis cutoff log n / 100, which no degree-2 vertex clears until n is
    astronomical; pass an explicit cutoff to exercise the reserved-pair rule
    on concrete graphs.
    """
    if not connected(g):
        raise NotConnected("color_threshold needs a connected graph")
    pendant = pendant_edges(g)
    base = max(len(pendant), params.q)
    palette = base + 2
    red, blue = palette - 2, palette - 1

    colors = np_stream(seed, "color-threshold").integers(0, base, size=g.m).tolist()
    provenance = ["random"] * g.m
    flags: list[str] = []

    next_pendant = 0
    for eid in pendant:
        if provenance[eid] != "pendant":
            colors[eid] = next_pendant
            provenance[eid] = "pendant"
            next_pendant += 1

    if small_threshold is None:
        small_threshold = default_small_threshold(g.n)
    indptr, _, eids = g.csr()
    degs = np.diff(indptr)
    for v in np.flatnonzero((degs >= 2) & (degs < small_threshold)).tolist():
        usable = sorted(e for e in eids[indptr[v]:indptr[v + 1]].tolist()
                        if provenance[e] != "pendant")
        reserved = {colors[e] for e in usable if provenance[e] == "red_blue"}
        missing = [want for want in (red, blue) if want not in reserved]
        open_edges = [e for e in usable if provenance[e] != "red_blue"]
        for want, e in zip(missing, open_edges):
            colors[e] = want
            provenance[e] = "red_blue"
        if len(missing) > len(open_edges):
            # fewer usable edges than reserved slots: color what exists, flag the vertex
            flags.append(f"reserved_fallback:{v}")
    return EdgeColoring(tuple(colors), palette, tuple(provenance), tuple(flags))


# ----------------------------------------------------------------------------
# greedy power coloring for regular graphs
# ----------------------------------------------------------------------------

def _ball_rows(g: Graph, depth: int) -> np.ndarray:
    """Every vertex's ball of radius ``depth`` as one bitset row per vertex.

    Row v of the ``(n, ceil(n / 8))`` uint8 array has bit w & 7 of byte
    w >> 3 set exactly when d(v, w) <= depth, so ``np.unpackbits(row,
    count=n, bitorder="little")`` reads the ball as a boolean mask.  Depth
    -1 gives empty balls.  Each level is one OR-sweep over the CSR: a row
    takes the rows of its neighbors, gathered one neighbor position at a
    time, so no temporary holds more than n rows.  The sweeps stop after
    ``depth`` levels or at the first level where no row grows.
    """
    n = g.n
    rows = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
    if depth < 0:
        return rows
    v = np.arange(n)
    rows[v, v >> 3] = np.left_shift(1, v & 7).astype(np.uint8)
    indptr, nbr = g.indptr, g.nbr
    degs = np.diff(indptr)
    # (the vertices of degree above j, their j-th neighbors) for each position j
    positions = []
    for j in range(int(degs.max(initial=0))):
        has = np.flatnonzero(degs > j)
        positions.append((has, nbr[indptr[has] + j]))
    grown = np.empty_like(rows)
    for _ in range(depth):
        np.copyto(grown, rows)
        for has, at in positions:
            if has.size == n:  # in place, with no fancy-indexed copy of grown
                grown |= rows[at]
            else:
                grown[has] |= rows[at]
        if np.array_equal(grown, rows):
            break
        rows, grown = grown, rows
    return rows


def line_distance_neighbors(g: Graph, edge_id: int, radius: int) -> set[int]:
    """Edge ids within line-graph distance <= radius of ``edge_id`` (itself excluded).

    Those are the edges with an end within graph distance radius - 1 of an
    end of ``edge_id``, read off two ``bfs_distances`` sweeps cut at that
    level (at most n - 1).
    """
    if not 0 <= edge_id < g.m:
        raise ValueError(f"edge id {edge_id} out of range")
    if radius < 1:
        return set()
    depth = min(radius - 1, g.n - 1)
    a, b = g.ends[edge_id].tolist()
    near = (bfs_distances(g, a, cutoff=depth) >= 0) | (bfs_distances(g, b, cutoff=depth) >= 0)
    return set(np.flatnonzero(near[g.ends].any(axis=1)).tolist()) - {edge_id}


def color_greedy_power(g: Graph, radius: int, q: int, seed: int = 0) -> EdgeColoring:
    """Random proper coloring of the radius-power of the line graph.

    Edges are processed in id order; each draws uniformly among the colors
    not yet used within line-distance ``radius``.  Raises PaletteExhausted
    when an edge finds every color blocked, naming the edge.  With
    q = 10 (r-1)^{2k} and radius 2k on an r-regular graph the blocked set
    stays well under q, so exhaustion signals a mis-sized palette.

    Every vertex's ball of radius min(radius - 1, n - 1) is built once by
    ``_ball_rows``, n^2 / 8 bytes (0.5 MB at n = 2000, 50 MB at
    n = 2 * 10^4).  Edge e = (a, b) is then blocked by the colored edges
    f < e with an end in ball(a) | ball(b); their colors are sorted and
    deduplicated, and the draw ``rng.randrange(free)`` is mapped to the
    idx-th unblocked color by one binary search.  No step costs more than
    O(n + e), whatever q is.  The three gate 4 colorings at n = 2000
    (r = 3, 4, 5) take 0.41-0.46 s in all, against 4.1-4.3 s for two
    ``grow_bfs_tree`` balls per edge; at n = 2 * 10^4, r = 3 takes 2.0 s
    and r = 5 9.3 s (2-vCPU VM, Python 3.11, numpy 2.4).
    """
    if q < 1:
        raise ValueError("q must be positive")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    rng = stream(seed, "greedy")
    n, m = g.n, g.m
    rows = _ball_rows(g, min(radius - 1, n - 1))
    u, v = g.ends.T
    # a palette past int64 keeps its colors as Python ints
    colors = np.zeros(m, dtype=np.int64 if q <= np.iinfo(np.int64).max else object)
    for e, (a, b) in enumerate(g.ends.tolist()):
        near = np.unpackbits(rows[a] | rows[b], count=n, bitorder="little").view(bool)
        seen = colors[:e][near[u[:e]] | near[v[:e]]]
        seen.sort()
        fresh = np.empty(seen.size, dtype=bool)
        fresh[:1] = True
        np.not_equal(seen[1:], seen[:-1], out=fresh[1:])
        blocked = seen[fresh]
        free = q - blocked.size
        if free <= 0:
            raise PaletteExhausted(e, blocked.size, q)
        # the idx-th color absent from blocked: idx plus the blocked colors
        # b_j with b_j - j <= idx
        idx = rng.randrange(free)
        colors[e] = idx + int(np.searchsorted(blocked - np.arange(blocked.size), idx,
                                              side="right"))
    return EdgeColoring(tuple(colors.tolist()), q, ("greedy",) * m)


# ----------------------------------------------------------------------------
# cycle-class recoloring (the r = 3 endgame)
# ----------------------------------------------------------------------------

def _hanging_tree(g: Graph, root: int, members: frozenset[int], on_cycle: set[int],
                  seen: set[int], edge_order: list[int]) -> tuple:
    """Preorder walk of the tree hanging off one cycle vertex.

    Children visited in ascending vertex id (adjacency order); appends each
    tree edge to ``edge_order`` and returns the nested child-shape tuple.
    """
    shape = []
    for v, eid in g.adj[root]:
        if v not in members or v in on_cycle or v in seen:
            continue
        seen.add(v)
        edge_order.append(eid)
        shape.append(_hanging_tree(g, v, members, on_cycle, seen, edge_order))
    return tuple(shape)


def _class_traversal(g: Graph, cycle: tuple[int, ...], members: frozenset[int],
                     induced: list[int]):
    """Canonical traversal of one cycle class; ``induced`` holds the ids of
    the edges within ``members`` in ascending order.

    Returns (shape, edge_order): a hashable structure (cycle length plus
    per-position hanging-tree shapes) and the induced edge ids in canonical
    position order.  Returns None when the induced subgraph is not the
    expected cycle-plus-hanging-trees form (chords, cross edges, or members
    unreachable from the cycle), in which case the caller falls back to a
    flagged per-class block.
    """
    on_cycle = set(cycle)
    if not on_cycle <= members:
        return None
    ln = len(cycle)
    edge_order = [g.edge_id(cycle[i], cycle[(i + 1) % ln]) for i in range(ln)]
    seen = set(cycle)
    shapes = []
    for c in cycle:
        shapes.append(_hanging_tree(g, c, members, on_cycle, seen, edge_order))
    if seen != set(members) or sorted(edge_order) != induced:
        return None
    return (ln, tuple(shapes)), edge_order


def recolor_cycle_classes(g: Graph, base: EdgeColoring, k: int
                          ) -> tuple[EdgeColoring, list[CycleClass]]:
    """Recolor cycle-owning neighborhoods positionally from fresh palettes.

    Every vertex whose depth-k ball spans exactly one cycle joins that
    cycle's class; each class's induced edges are rewritten from a fresh
    contiguous block appended past the base palette, ordered by a canonical
    traversal (cycle first, from its least vertex toward its smaller
    neighbor, then hanging trees preorder with children sorted by id).
    Classes with equal cycle length and identical traversal shape share
    positions and therefore colors; same-length classes of different shape
    get disjoint positions and a flag.  Roots whose ball spans two or more
    cycles are flagged and left on the base coloring, as are classes whose
    induced subgraph is not cycle-plus-trees.
    """
    check_coloring(g, base)
    if k < 0:
        raise ValueError(f"neighborhood depth k={k} is negative")
    by_cycle: dict[tuple[int, ...], list[int]] = {}
    ambiguous = 0
    for x in range(g.n):
        res = neighborhood_cycle(g, x, k)
        if res is None:
            continue
        if res is AMBIGUOUS:
            ambiguous += 1
            continue
        by_cycle.setdefault(res, []).append(x)

    colors = list(base.colors)
    provenance = list(base.provenance)
    flags = list(base.flags)
    if ambiguous:
        flags.append(f"ambiguous_roots:{ambiguous}")

    # canonical traversal per cycle; group by length, then by shape
    per_length: dict[int, list[tuple[tuple[int, ...], object, list[int]]]] = {}
    irregular = 0
    adj = g.adj
    for cycle in sorted(by_cycle):
        members = frozenset(by_cycle[cycle])
        induced = sorted(eid for u in members for v, eid in adj[u] if u < v and v in members)
        got = _class_traversal(g, cycle, members, induced)
        if got is None:
            irregular += 1
            # unique shape token so this class never shares positions
            shape: object = ("irregular", cycle)
            edge_order = induced
        else:
            shape, edge_order = got
        per_length.setdefault(len(cycle), []).append((cycle, shape, edge_order))
    if irregular:
        flags.append(f"irregular_classes:{irregular}")

    classes: list[CycleClass] = []
    next_color = base.palette_size
    for ln in sorted(per_length):
        entries = per_length[ln]
        offsets: dict[object, int] = {}
        block_size = 0
        for _, shape, edge_order in entries:
            if shape not in offsets:
                offsets[shape] = block_size
                block_size += len(edge_order)
        if len(offsets) > 1:
            flags.append(f"shape_mismatch:len{ln}:{len(offsets)}")
        start = next_color
        roots: set[int] = set()
        for cycle, shape, edge_order in entries:
            roots.update(by_cycle[cycle])
            off = offsets[shape]
            for pos, eid in enumerate(edge_order):
                colors[eid] = start + off + pos
                provenance[eid] = "cycle_class"
        next_color = start + block_size
        classes.append(CycleClass(cycle_length=ln, member_roots=frozenset(roots),
                                  fresh_palette=(start, next_color)))
    recolored = EdgeColoring(tuple(colors), next_color, tuple(provenance), tuple(flags))
    return recolored, classes


# ----------------------------------------------------------------------------
# utility coloring and file format
# ----------------------------------------------------------------------------

def random_coloring(g: Graph, q: int, seed: int = 0) -> EdgeColoring:
    """Independent uniform colors from [0, q); the null model for stress tests."""
    if q < 1:
        raise ValueError("q must be positive")
    cols = np_stream(seed, "random-coloring").integers(0, q, size=g.m)
    return EdgeColoring(tuple(int(c) for c in cols), q, ("random",) * g.m)


def write_coloring(c: EdgeColoring, path: Union[str, Path]) -> None:
    lines = [f"{c.m} {c.palette_size}\n"]
    lines.extend(f"{eid} {c.colors[eid]} {c.provenance[eid]}\n" for eid in range(c.m))
    Path(path).write_text("".join(lines))


def read_coloring(path: Union[str, Path]) -> EdgeColoring:
    lines = read_text_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty coloring file")
    m, palette = parse_fields(*lines[0], (int, int))
    if len(lines) - 1 != m:
        raise ValueError(f"{path}: expected {m} color lines")
    colors = [0] * m
    prov: list[Optional[str]] = [None] * m
    for where, body in lines[1:]:
        eid, col, tag = parse_fields(where, body, (int, int, str))
        if not 0 <= eid < m:
            raise ValueError(f"{where}: edge id {eid} outside [0, {m})")
        if prov[eid] is not None:
            raise ValueError(f"{where}: edge id {eid} colored twice")
        colors[eid] = col
        prov[eid] = tag
    return EdgeColoring(tuple(colors), palette, tuple(prov))
