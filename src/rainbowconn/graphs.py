"""Graph container, random generators, BFS, BFS trees, and the neighborhood-cycle probe.

Graphs are undirected, simple, on vertices ``0..n-1``, held in canonical form:
the edge array ``Graph.ends`` stores each edge as a row ``(u, v)`` with
``u < v``, rows sorted lexicographically, and the row of an edge is its edge
id.  The array is read-only and is the graph's identity.  The constructor
builds the adjacency once, as numpy CSR arrays with each vertex's neighbors
in increasing order; BFS and edge lookups read only the arrays.  Every BFS
level is labelled from CSR slices gathered at once, by one helper,
``_gather``.  ``bfs_levels`` is the one single-source level loop: it takes
level 1 as the source's slice and each later level top-down (the
frontier's slices) or bottom-up (the slices of the unlabelled vertices),
whichever is cheaper.  ``bfs_distances`` draws it to its end, and
``corridor_distances`` draws two sweeps, one from each end of an x-y pair,
only as far as the rainbow path search's prune reads.  A Graph caches only
what the package re-reads: ``Graph.adj``, the CSR rows as ``(neighbor,
edge_id)`` tuples, is built on first use and kept; ``Graph.edges``, the
rows of ``ends`` as int pairs, is built on each read.  Two graphs built
from the same edge set are therefore identical objects field-for-field,
and every downstream coloring or traversal that iterates "in edge order"
or "in neighbor order" is reproducible.  Constructor
violations (a pair out of range or out of order) are found by vectorized
checks, and ``read_edge_list`` reports them as ``path:line``.

The generators cover the two random families studied here: binomial graphs at
the connectivity threshold ``p = (log n + omega)/n`` via skip sampling, and
random r-regular graphs via the pairing (configuration) model with rejection
of loops and repeated edges; ``check_gnp_params`` and
``check_regular_params`` hold what each refuses.  ``grow_bfs_tree`` is the
one depth-capped BFS tree, and the one breadth-first vertex walk in Python,
behind the pairing scaffold, ``neighborhood_cycle`` and the greedy
coloring's line balls; its ``RootedTree`` is the parent edges and the
levels alone, the root, depth and leaves read off the levels and the
children derived on first use.

File format (``write_edge_list``/``read_edge_list``): line 1 is ``n m``,
followed by ``m`` lines ``u v`` in canonical order, so line ``i+1`` defines
edge id ``i``.  Blank lines and ``#`` comments are accepted on read and never
written, keeping byte-identical round trips for generated files.  The same
comment-stripping reader (``read_text_lines``) serves coloring and config
files, so a malformed line is reported as ``path:line`` in every format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import AbstractSet, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import GenerationExhausted, ParityError
from .rng import mt_continuation, stream

__all__ = [
    "Graph",
    "GenParams",
    "DegreeStats",
    "AMBIGUOUS",
    "graph_from_edges",
    "check_gnp_params",
    "check_regular_params",
    "gen_gnp",
    "gen_regular_config",
    "check_vertices",
    "bfs_levels",
    "corridor_distances",
    "bfs_distances",
    "connected",
    "diameter",
    "degree_stats",
    "pendant_edges",
    "default_small_threshold",
    "RootedTree",
    "TreePath",
    "grow_bfs_tree",
    "neighborhood_cycle",
    "write_edge_list",
    "read_edge_list",
    "read_text_lines",
    "parse_fields",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "petersen_graph",
]

class Graph:
    """Simple undirected graph in canonical form, held as arrays.

    ``ends[i]`` is the pair ``(u, v)``, ``u < v``, with edge id ``i``: a
    read-only ``(m, 2)`` int64 array, and with ``n`` the graph's identity
    for ``==`` and ``hash``.  The constructor copies an array the caller
    still holds, so no later write reaches the graph.  The adjacency is CSR,
    built once by the constructor and read-only: the neighbors of ``v`` are
    ``nbr[indptr[v]:indptr[v + 1]]`` in increasing order, and ``eid`` holds
    the id of the edge to each; ``edge_id`` binary-searches the slice of the
    smaller endpoint.  A Graph caches only what the package re-reads:
    ``adj[v]``, the same rows as ``(neighbor, edge_id)`` tuples for Python
    loops, and the double sweep's memo are built on first use and kept;
    ``edges``, the rows of ``ends`` as int pairs, is built on each read.
    ``meta`` carries generator diagnostics (attempt counts, effective p) and
    is not part of identity.
    """

    __slots__ = ("n", "ends", "indptr", "nbr", "eid", "meta",
                 "_adj_cache", "_sweep_cache")

    def __init__(self, n: int, edges: Union[Sequence[tuple[int, int]], np.ndarray],
                 meta: Optional[dict] = None):
        bad_n = _n_problem(n)
        if bad_n is not None:
            raise ValueError(bad_n)
        e = _edge_array(edges)
        bad = _first_violation(n, e)
        if bad is not None:
            raise ValueError(bad[1])
        if isinstance(edges, np.ndarray) and np.may_share_memory(e, edges):
            e = e.copy()
        e.flags.writeable = False
        self.n = n
        self.ends = e
        self.indptr, self.nbr, self.eid = _build_csr(n, e[:, 0], e[:, 1])
        self.meta: dict = dict(meta) if meta else {}
        self._adj_cache = None
        self._sweep_cache = None

    @property
    def m(self) -> int:
        return len(self.ends)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """``edges[i]``: the pair with edge id ``i``; a new tuple on each read,
        zipped from the two columns, as ``ends.tolist()`` would also hold m
        2-lists at once."""
        return tuple(zip(*self.ends.T.tolist()))

    @property
    def adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``adj[v]``: ``(neighbor, edge_id)`` tuples sorted by neighbor, the CSR row of v."""
        if self._adj_cache is None:
            slots = list(zip(self.nbr.tolist(), self.eid.tolist()))
            bounds = self.indptr.tolist()
            self._adj_cache = tuple(tuple(slots[a:b]) for a, b in zip(bounds, bounds[1:]))
        return self._adj_cache

    def degree(self, v: int) -> int:
        check_vertices(self, ("v", v))
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> list[int]:
        return np.diff(self.indptr).tolist()

    def edge_id(self, u: int, v: int) -> int:
        """Id of edge {u, v}; KeyError when absent."""
        i = self._slot(u, v)
        if i < 0:
            raise KeyError((u, v) if u < v else (v, u))
        return int(self.eid[i])

    def has_edge(self, u: int, v: int) -> bool:
        return self._slot(u, v) >= 0

    def _slot(self, u: int, v: int) -> int:
        """CSR position of edge {u, v} in the row of its smaller end; -1 if absent."""
        u, v = min(u, v), max(u, v)
        if u < 0 or v >= self.n:
            return -1
        a, b = self.indptr[u], self.indptr[u + 1]
        i = int(a + np.searchsorted(self.nbr[a:b], v))
        return i if i < b and self.nbr[i] == v else -1

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The read-only CSR arrays ``(indptr, nbr, eid)``, built by the constructor."""
        return self.indptr, self.nbr, self.eid

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.ends, other.ends))

    def __hash__(self) -> int:
        return hash((self.n, self.ends.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# The most vertices numpy can hold: indptr has n + 1 int64 entries, and no
# array may span more bytes than the largest intp.
_MAX_N = np.iinfo(np.intp).max // 8 - 1


def _n_problem(n: int) -> Optional[str]:
    """Why n cannot be a vertex count; None when it can."""
    if n < 0:
        return "n must be nonnegative"
    if n > _MAX_N:
        return f"n={n} is more vertices than numpy can index (at most {_MAX_N})"
    return None


def _edge_array(edges) -> np.ndarray:
    e = np.asarray(edges, dtype=np.int64)
    if e.size == 0:
        return e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    return e


def _first_violation(n: int, e: np.ndarray) -> Optional[tuple[int, str]]:
    """Index and message of the first edge that breaks ``0 <= u < v < n`` or
    strictly increasing lexicographic order; None when the list is canonical."""
    u, v = e[:, 0], e[:, 1]
    out_of_range = (u < 0) | (u >= v) | (v >= n)
    unordered = np.zeros(len(e), dtype=bool)
    unordered[1:] = (u[:-1] > u[1:]) | ((u[:-1] == u[1:]) & (v[:-1] >= v[1:]))
    bad = np.flatnonzero(out_of_range | unordered)
    if bad.size == 0:
        return None
    i = int(bad[0])
    pair = (int(u[i]), int(v[i]))
    if out_of_range[i]:
        return i, f"edge {pair} violates 0 <= u < v < n={n}"
    return i, f"edge list not sorted/deduplicated at {pair}"


def _build_csr(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR of a canonical edge list, neighbors in increasing order.

    Each edge is listed at v (neighbor u) in slot eid, then at u (neighbor v)
    in slot m + eid.  Sorting the distinct keys owner * 2m + slot hands every
    vertex its lower neighbors first, in edge order, which is increasing as
    the list is sorted by u, then its higher ones, also increasing.  The key
    array is then reduced in place to slots (mod 2m) and edge ids (mod m).
    """
    m = len(u)
    owner = np.concatenate([v, u])
    key = owner * (2 * m)
    key += np.arange(2 * m)
    key.sort()
    key %= max(2 * m, 1)
    nbr = np.concatenate([u, v])[key]
    eid = np.remainder(key, max(m, 1), out=key)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
    for arr in (indptr, nbr, eid):
        arr.flags.writeable = False
    return indptr, nbr, eid


def graph_from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Canonicalize an arbitrary pair iterable (orientation, order) into a Graph;
    the constructor refuses a repeated pair or a loop (ValueError)."""
    return Graph(n, sorted((u, v) if u < v else (v, u) for u, v in pairs))


@dataclass
class GenParams:
    """Inputs for the random generators; exactly one of p/omega for gnp."""

    n: int
    p: Optional[float] = None
    omega: Optional[float] = None
    r: Optional[int] = None
    seed: int = 0
    # r=5 acceptance sits near e^-6, so a low cap would flake there
    max_attempts: int = 10000


@dataclass(frozen=True)
class DegreeStats:
    z1: int
    small_vertices: frozenset[int]
    histogram: dict[int, int]
    small_threshold: float


class _Ambiguous:
    """Sentinel: the probed neighborhood spans two or more independent cycles."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "AMBIGUOUS"


AMBIGUOUS = _Ambiguous()


# ----------------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------------

def check_gnp_params(params: GenParams) -> None:
    """Refuse what ``gen_gnp`` cannot generate: n < 1, an n whose pair keys
    w*n + v overflow int64, not exactly one of p and omega, p outside
    [0, 1], or a NaN omega."""
    if params.n < 1:
        raise ValueError("gen_gnp needs n >= 1")
    most = math.isqrt(int(np.iinfo(np.int64).max))  # the pair keys w*n + v are int64
    if params.n > most:
        raise ValueError(f"n={params.n} is more vertices than gen_gnp can pair: "
                         f"n*n must fit in int64 (n at most {most})")
    if (params.p is None) == (params.omega is None):
        raise ValueError("give exactly one of p or omega")
    if params.p is not None and not 0.0 <= float(params.p) <= 1.0:
        raise ValueError(f"p={float(params.p)} outside [0, 1]")
    if params.omega is not None and math.isnan(params.omega):
        raise ValueError(f"omega={params.omega} is not a number")


def check_regular_params(params: GenParams) -> None:
    """Refuse what ``gen_regular_config`` cannot generate: r missing or below
    3, r >= n, more points n*r than numpy can index, an odd n*r
    (ParityError), or max_attempts below 1."""
    n, r = params.n, params.r
    if r is None or r < 3:
        raise ValueError("gen_regular_config needs r >= 3")
    if r >= n:
        raise ValueError(f"no simple {r}-regular graph on {n} vertices")
    if n * r > _MAX_N:
        raise ValueError(f"n*r = {n * r} points are more than numpy can index (at most {_MAX_N})")
    if (n * r) % 2 != 0:
        raise ParityError(f"n*r = {n * r} is odd")
    if params.max_attempts < 1:
        raise ValueError(f"max_attempts={params.max_attempts} allows no attempt; need >= 1")


# Most skip gaps drawn per numpy call in gen_gnp: the chunk's temporaries
# stay small next to the edge array at threshold densities.
_GNP_CHUNK = 1 << 16


def gen_gnp(params: GenParams) -> Graph:
    """Binomial random graph G(n, p) by geometric skip sampling.

    With ``omega`` given instead of ``p``, uses ``p = (log n + omega)/n``
    clamped to [0, 1]; the effective p and clamp flag land in ``meta``.
    Runs in O(n + m) draws, so threshold-density graphs at n = 1e5 are cheap.
    The pairs (w, v), w < v, are indexed in column order, t = v(v-1)/2 + w,
    and the Batagelj-Brandes skip loop keeps the pair at each running sum of
    geometric gaps (``_skip_indices``).  The gaps are drawn in bulk from the
    ``"gnp"`` Mersenne Twister stream through ``mt_continuation``, so they
    are the doubles an element-wise loop over ``random()`` draws, and the
    graph is the same.  The kept indices map to pairs as arrays
    (``_column_pairs``), and only the sorted ``(m, 2)`` array is alive while
    ``Graph`` is built.
    """
    check_gnp_params(params)
    n = params.n
    clamped = False
    if params.p is not None:
        p = float(params.p)
    else:
        raw = (math.log(n) + params.omega) / n
        p = min(1.0, max(0.0, raw))
        clamped = raw != p
    total = n * (n - 1) // 2
    if p >= 1.0:
        t = np.arange(total, dtype=np.int64)
    elif p > 0.0:
        t = _skip_indices(mt_continuation(stream(params.seed, "gnp")), p, total)
    else:
        t = np.zeros(0, dtype=np.int64)
    edges = _column_pairs(n, t)
    del t
    return Graph(n, edges, meta={"p": p, "p_clamped": clamped})


def _skip_indices(draws: np.random.Generator, p: float, total: int) -> np.ndarray:
    """Column-order indices of the pairs kept by skip sampling at 0 < p < 1.

    From index -1, each draw u moves on by 1 + floor(log(1 - u) / log(1 - p))
    until the index reaches ``total``.  np.log may differ from math.log in
    the last bit, so a ratio within 1e-12 of an integer is recomputed with
    math.log, and every floor is the one the element-wise loop takes.
    Ratios are clamped to ``total`` before the floor, which already ends the
    walk, so a tiny p cannot overflow int64.
    """
    log1p = math.log(1.0 - p)
    if log1p == 0.0:  # 1 - p rounds to 1 below p of about 1.1e-16
        log1p = math.log1p(-p)
    # about as many draws as the walk is expected to take (one per edge,
    # plus the last), so a small graph does not pay for a full chunk
    mean = total * p
    size = min(_GNP_CHUNK, int(mean + 4 * math.sqrt(mean)) + 16)
    kept = []
    last = -1
    while last < total:
        u = draws.random(size)
        with np.errstate(over="ignore", invalid="ignore"):  # inf ratios at subnormal p
            ratio = np.log(1.0 - u) / log1p
            near = np.abs(ratio - np.rint(ratio)) <= 1e-12 * (1.0 + ratio)
        for i in np.flatnonzero(near & (ratio <= total + 1)).tolist():
            ratio[i] = math.log(1.0 - float(u[i])) / log1p
        t = np.cumsum(1 + np.floor(np.minimum(ratio, total)).astype(np.int64))
        t += last
        kept.append(t[:np.searchsorted(t, total)])
        last = int(t[-1])
    return np.concatenate(kept)


def _column_pairs(n: int, t: np.ndarray) -> np.ndarray:
    """Canonical ``(m, 2)`` edges of the column-order pair indices t.

    v comes from a float triangular root, corrected by one either way with
    integer tests, and w = t - v(v-1)/2.  The keys w*n + v are distinct and
    sort in lexicographic order of (w, v), so one value sort orders the
    edges and a divmod splits them back.
    """
    v = ((1.0 + np.sqrt(1.0 + 8.0 * t)) / 2.0).astype(np.int64)
    v -= v * (v - 1) // 2 > t
    v += v * (v + 1) // 2 <= t
    key = (t - v * (v - 1) // 2) * n + v
    del v
    key.sort()
    edges = np.empty((len(key), 2), dtype=np.int64)
    np.divmod(key, n, out=(edges[:, 0], edges[:, 1]))
    return edges


def gen_regular_config(params: GenParams) -> Graph:
    """Uniform random r-regular graph by rejection from the pairing model.

    Each of n vertices owns r points; a uniform perfect matching on the rn
    points projects to a multigraph, and outcomes with loops or repeated
    edges are rejected wholesale.  Acceptance probability tends to
    exp((1 - r^2)/4), so retries stay modest for small r.  The accepted
    attempt index is reported in ``meta["attempts"]``.
    """
    check_regular_params(params)
    n, r = params.n, params.r
    rng = stream(params.seed, "regular")
    points = list(range(n * r))
    for attempt in range(1, params.max_attempts + 1):
        rng.shuffle(points)
        seen: set[tuple[int, int]] = set()
        simple = True
        for i in range(0, n * r, 2):
            u, v = points[i] // r, points[i + 1] // r
            if u == v:
                simple = False
                break
            e = (u, v) if u < v else (v, u)
            if e in seen:
                simple = False
                break
            seen.add(e)
        if simple:
            return Graph(n, sorted(seen), meta={"attempts": attempt})
    raise GenerationExhausted(params.max_attempts)


# ----------------------------------------------------------------------------
# traversal and structure
# ----------------------------------------------------------------------------

def check_vertices(g: Graph, *named: tuple[str, int]) -> None:
    """ValueError for the first (name, v) whose v lies outside ``[0, n)``."""
    for name, v in named:
        if not 0 <= v < g.n:
            raise ValueError(f"{name} {v} is not a vertex of a graph on {g.n} vertices")


# A bottom-up step makes about a dozen more numpy calls than a top-down one,
# which cost about as much as gathering and labelling 10^4 slots top-down
# (2-vCPU VM, numpy 2.4), so a level goes bottom-up only when that saves
# more than this many slots.
_BOTTOM_UP_COST = 1 << 14


def _gather(g: Graph, vertices: np.ndarray,
            most: Optional[int] = None) -> tuple[Optional[np.ndarray], np.ndarray]:
    """The neighbors of ``vertices``, their CSR slices laid end to end, and
    where each vertex's slice ends there.  With ``most``, slices holding
    more than ``most`` slots in all are not read, and None stands for the
    neighbors.  ``adj`` is never built.
    """
    indptr = g.indptr
    starts = indptr[vertices]
    counts = indptr[vertices + 1] - starts
    ends = np.cumsum(counts)
    if most is not None and ends[-1] > most:
        return None, ends
    # slot j, owned by vertex i, reads nbr[starts[i] + j - (ends[i] - counts[i])]
    slots = np.repeat(starts - ends + counts, counts)
    slots += np.arange(slots.size)
    return g.nbr[slots], ends


def _label_fresh(g: Graph, dist: np.ndarray, nbrs: np.ndarray, d: int) -> np.ndarray:
    """Label d on the vertices of ``nbrs`` that ``dist`` leaves unlabelled and
    return them, once each, in increasing order."""
    fresh = nbrs[dist[nbrs] < 0]
    if fresh.size == 0:
        return fresh
    dist[fresh] = d
    # both give the level's vertices in increasing order; a wide level is
    # cheaper to dedup by scanning dist than by sorting it
    if fresh.size > g.n // 64:
        return np.flatnonzero(dist == d)
    fresh.sort()
    return fresh[np.concatenate(([True], fresh[1:] != fresh[:-1]))]


def _bottom_up(g: Graph, dist: np.ndarray, d: int) -> np.ndarray:
    """One bottom-up BFS level step: label d on every unlabelled vertex with
    a neighbor at level d - 1 and return them in increasing order; empty
    when there are none.  Each unlabelled vertex's CSR slice is gathered at
    once, so the step reads the slots of the unlabelled vertices, not the
    frontier's."""
    unlabelled = np.flatnonzero(dist < 0)
    nbrs, ends = _gather(g, unlabelled)
    # hits[j]: how many of the first j slots read level d - 1, so vertex i
    # has hits[ends[i]] - hits[ends[i - 1]] neighbors there
    hits = np.zeros(nbrs.size + 1, dtype=np.int64)
    np.cumsum(dist[nbrs] == d - 1, out=hits[1:])
    level = unlabelled[np.diff(hits[ends], prepend=0) > 0]
    dist[level] = d
    return level


def bfs_levels(g: Graph, source: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Hop distances from ``source``, labelled one BFS level per step.

    Yields ``(dist, level)`` once per nonempty level d = 0, 1, ...:
    ``level`` holds the vertices just labelled d, in increasing order, and
    ``dist``, the same array every time, holds levels 0..d and reads -1
    everywhere else.  Neither may be written.  It stops after the last
    level of the source's component.  A caller that needs only the near
    levels stops drawing and never pays for the far ones, which on graphs
    with few, fast growing levels hold most of the vertices.  Raises
    ValueError, on the first step, for a source outside ``[0, n)``.

    Level 1 is the source's CSR slice, sorted and unlabelled in a simple
    graph, so it costs no level step.  Each later step picks its direction
    (direction-optimizing BFS: Beamer, Asanovic and Patterson, SC 2012).
    Top-down reads the frontier's CSR slots; bottom-up lists the
    unlabelled vertices by one scan of ``dist`` and reads their slots.  A
    level is labelled bottom-up when the frontier's slots outnumber those
    of the unlabelled vertices plus n / 4, the scan's share, plus
    ``_BOTTOM_UP_COST``, the step's fixed cost.  The frontier's slot count
    comes with the gather that a top-down step needs anyway, so the choice
    costs no extra pass.  On the threshold G(10^5, p) from vertex 0 that is
    level 6, where the frontier of 74,052 vertices holds 1,035,113 slots
    and the 6,777 unlabelled vertices 76,320, and the empty level 7 that
    ends the sweep.  No level of the random regular graphs at n = 2000 (at
    most 10^4 slots in all), of a path or of a cycle switches.
    """
    check_vertices(g, ("source", source))
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    yield dist, np.array([source], dtype=np.int64)
    level = g.nbr[g.indptr[source]:g.indptr[source + 1]]
    dist[level] = 1
    rest = g.nbr.size - level.size  # the slots of the frontier and of the unlabelled vertices
    extra = g.n // 4 + _BOTTOM_UP_COST
    d = 1
    while level.size:
        yield dist, level
        d += 1
        # gathered unless mf > (rest - mf) + extra, mf the frontier's slots
        nbrs, ends = _gather(g, level, most=(rest + extra) // 2)
        rest -= int(ends[-1])
        if nbrs is None:
            level = _bottom_up(g, dist, d)
        else:
            level = _label_fresh(g, dist, nbrs, d)


def corridor_distances(g: Graph, x: int, y: int) -> Iterator[tuple[int, np.ndarray]]:
    """Distances to ``y`` on the x-y corridor, for each limit L = d(x, y),
    d(x, y) + 1, ... without end.

    Each step yields ``(L, dist)``.  Every vertex v other than x with
    d(x, v) + d(v, y) <= L reads its exact distance to y in ``dist``; every
    other vertex reads -1 or a value at least its distance to y.  So a
    search from x that cuts v at depth t when t + dist[v] > L, reading -1
    as "far", cuts exactly what exact distances would cut: it reaches v at
    a depth of at least d(x, v).  Nothing is yielded when x lies outside
    y's component.  ``dist`` may be a different array from one step to the
    next, is valid until the next step, and may not be written.  Raises
    ValueError, on the first step, for an x or y outside ``[0, n)``.

    A ball grows from each end (bidirectional search, Pohl 1971), each a
    ``bfs_levels`` sweep drawn one level at a time: the one with the
    smaller last level, ties to y, so where y's levels never outgrow x's
    this is the one-sided sweep from y.  When a new level touches the
    other ball, d(x, y) = rx + ry, the radii.  For each L the balls grow by
    the same rule until rx + ry >= L - 1.  If then ry < L - 1, y's labels
    are copied and continued from its last level to level L - 1, entering
    only vertices of x's ball.  That labels every corridor vertex exactly:
    on a shortest v-y path, each vertex w outside y's ball has d(x, w) <=
    L - d(w, y) <= L - ry - 1 <= rx.  Labels of the continuation are
    lengths of real paths, so they never read short.  An exhausted sweep
    is a whole component, and its radius counts as unbounded.

    The continuation is redone at each such L from y's last level, and
    nothing is kept from one limit to the next but the two sweeps.  A
    level step is deterministic, so the redo labels what extending the
    previous continuation would; it repeats steps only in a search that
    draws a second limit.  Of gate 5's 200 searches 18 do, and of the
    searches on gate 4's graphs at n = 2000 (``tests/witness_digests.py``'s
    regular protocol) 12 of 1500 at r = 3 and none of 463 at r = 4 and 5.
    On the threshold G(10^5, p), over gate 5's 200 sampled pairs, a search
    at d(x, y) = 5 labelled a median of 2807 vertices where y's levels
    0..4 hold 31902, and at d(x, y) = 4 450 against 2890.
    """
    check_vertices(g, ("x", x), ("y", y))
    sweeps = (bfs_levels(g, y), bfs_levels(g, x))  # y's ball, then x's
    (near_y, front_y), (near_x, front_x) = map(next, sweeps)
    fronts, radii = [front_y, front_x], [0, 0]
    limit = 0 if x == y else -1  # -1 until the balls meet
    while True:
        while limit < 0 or sum(radii) < limit - 1:
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
        labels = near_y
        if radii[0] < limit - 1:  # y's labels continued inside x's ball
            labels, frontier, level = near_y.copy(), fronts[0], radii[0]
            while level < limit - 1 and frontier.size:
                level += 1
                nbrs = _gather(g, frontier)[0]
                frontier = _label_fresh(g, labels, nbrs[near_x[nbrs] >= 0], level)
        yield limit, labels
        limit += 1


def bfs_distances(g: Graph, source: int, *, target: Optional[int] = None,
                  cutoff: Optional[int] = None) -> np.ndarray:
    """Hop distances from ``source``; -1 marks unreachable vertices.

    ``bfs_levels``'s sweep, drawn to its end unless a stop is given.  With
    ``target`` it stops after the level that labels ``target``; with
    ``cutoff`` it stops after level ``cutoff``; with both, at whichever
    comes first.  Every level up to the stop reads exactly, and every
    vertex beyond it reads -1, like an unreachable one.  Raises ValueError
    for a source or target outside ``[0, n)`` and for a negative cutoff.

    The sweep pays about 9-15 us of numpy overhead per level (2-vCPU VM,
    Python 3.11, numpy 2.4), so it is fast on graphs with few levels and
    slow on long thin ones: per full call, the random 3-, 4- and 5-regular
    graphs at n = 2000 take 0.2-0.45 ms and the threshold G(10^5, p)
    6.5-10.5 ms (15-21 ms with every level top-down), but
    ``cycle_graph(2000)`` 12-18 ms and ``path_graph(4000)`` 35-60 ms.  No
    library caller runs BFS-heavy work on such graphs at scale.
    """
    if target is not None:
        check_vertices(g, ("target", target))
    if cutoff is not None and cutoff < 0:
        raise ValueError(f"cutoff {cutoff} is negative")
    for d, (dist, _) in enumerate(bfs_levels(g, source)):
        if d == cutoff or (target is not None and dist[target] >= 0):
            break
    return dist


def connected(g: Graph) -> bool:
    """Whether g is connected, read off the memoized double sweep, so it
    costs no BFS once the sweep diameter is known."""
    if g.n <= 1:
        return True
    return diameter(g, "double_sweep") is not None


def diameter(g: Graph, mode: str = "exact") -> Optional[int]:
    """Graph diameter; None signals a disconnected graph.

    ``exact`` runs a BFS from every vertex.  ``double_sweep`` runs two: from
    vertex 0 to its farthest vertex u, then from u, returning the
    eccentricity of u.  The sweep value is a certified lower bound on the
    true diameter and is the only affordable mode on very large graphs.
    It is computed once per graph and kept on the (immutable) ``Graph``,
    None for a disconnected graph included, so repeated calls cost nothing.
    """
    if g.n == 0:
        raise ValueError("diameter of the empty graph is undefined")
    if g.n == 1:
        return 0
    if mode == "exact":
        best = 0
        for v in range(g.n):
            dist = bfs_distances(g, v)
            far = int(dist.max())
            if (dist < 0).any():
                return None
            best = max(best, far)
        return best
    if mode == "double_sweep":
        if g._sweep_cache is None:
            g._sweep_cache = (_double_sweep(g),)
        return g._sweep_cache[0]
    raise ValueError(f"unknown diameter mode {mode!r}")


def _double_sweep(g: Graph) -> Optional[int]:
    d0 = bfs_distances(g, 0)
    if (d0 < 0).any():
        return None
    u = int(d0.argmax())  # smallest id among the farthest
    d1 = bfs_distances(g, u)
    return int(d1.max())


def default_small_threshold(n: int) -> float:
    """The analysis cutoff log(n)/100 below which a vertex of an n-vertex
    graph counts as small; 0 when n < 2, where log n is not positive."""
    return math.log(n) / 100 if n >= 2 else 0.0


def degree_stats(g: Graph, small_threshold: Optional[float] = None) -> DegreeStats:
    """Degree histogram, pendant count z1, and the low-degree vertex set.

    The default threshold is ``default_small_threshold(n)``, the asymptotic
    cutoff log(n)/100 below which a vertex counts as small; at desk scale
    that classifies only isolated vertices, so tests pass explicit
    thresholds when they need a nonempty set.  The degrees are read off the
    CSR at once; the histogram lists each degree at its first vertex, in
    vertex order.
    """
    if small_threshold is None:
        small_threshold = default_small_threshold(g.n)
    deg = np.diff(g.indptr)
    counts = np.bincount(deg)
    first = np.full(counts.size, g.n)
    np.minimum.at(first, deg, np.arange(g.n))
    values = np.flatnonzero(counts)
    values = values[np.argsort(first[values])]
    hist = dict(zip(values.tolist(), counts[values].tolist()))
    small = np.flatnonzero(deg < small_threshold).tolist()
    return DegreeStats(z1=hist.get(1, 0), small_vertices=frozenset(small), histogram=hist,
                       small_threshold=float(small_threshold))


def pendant_edges(g: Graph) -> list[int]:
    """The edge at each degree-1 vertex, in vertex order, read off the CSR:
    Z1 entries, where an edge pendant at both ends (a K2) appears twice."""
    indptr, _, eids = g.csr()
    return eids[indptr[:-1][np.diff(indptr) == 1]].tolist()


@dataclass
class RootedTree:
    """BFS tree of fixed target depth: its parent edges and its levels.

    ``parent`` maps each non-root vertex to (parent, edge id).  ``levels[i]``
    holds the vertices at depth i in BFS discovery order, children in
    ascending vertex id; ``levels[0]`` is ``(root,)`` and there is one level
    per depth up to the target depth, empty where growth stopped.  ``root``,
    ``target_depth`` and ``leaves`` (the last level) read off ``levels``;
    ``children`` is derived on first use.  Grown by ``grow_bfs_tree``, an
    expanded vertex skipped degree - children - 1 edges, the root degree -
    children.
    """

    parent: dict[int, tuple[int, int]]
    levels: tuple[tuple[int, ...], ...]

    @property
    def root(self) -> int:
        return self.levels[0][0]

    @property
    def target_depth(self) -> int:
        return len(self.levels) - 1

    @property
    def leaves(self) -> tuple[int, ...]:
        return self.levels[-1]

    @cached_property
    def children(self) -> dict[int, list[int]]:
        """Children per vertex, in ascending id (the order ``levels`` lists them)."""
        children: dict[int, list[int]] = {v: [] for level in self.levels for v in level}
        for level in self.levels[1:]:
            for v in level:
                children[self.parent[v][0]].append(v)
        return children

    def vertices(self) -> set[int]:
        return {self.root, *self.parent}

    def edge_ids(self) -> list[int]:
        return [eid for (_, eid) in self.parent.values()]

    def path_from_root(self, v: int) -> "TreePath":
        verts = [v]
        eids = []
        root = self.root
        while verts[-1] != root:
            p, eid = self.parent[verts[-1]]
            eids.append(eid)
            verts.append(p)
        return TreePath(tuple(reversed(verts)), tuple(reversed(eids)))

    def arity(self) -> int:
        return len(self.children[self.root])


@dataclass(frozen=True)
class TreePath:
    """Root-to-leaf path inside one tree."""

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]

    @property
    def leaf(self) -> int:
        return self.vertices[-1]


def grow_bfs_tree(g: Graph, root: int, depth: int,
                  forbidden: AbstractSet[int] = frozenset()) -> RootedTree:
    """Breadth-first tree of given depth avoiding ``forbidden`` vertices.

    Expansion is in BFS order, one level per step, with neighbors in
    ascending id; an edge into a forbidden vertex or back into the tree (the
    root, or a vertex with a parent) is skipped.  ``forbidden`` is only read
    and may hold the root, so a caller can pass its live set of claimed
    vertices.  Only the tree is recorded: the graph is simple, so an expanded
    vertex skipped degree - children - 1 edges, the root degree - children.
    """
    check_vertices(g, ("root", root))
    if depth < 0:
        raise ValueError(f"tree depth {depth} is negative")
    parent: dict[int, tuple[int, int]] = {}
    levels = [(root,)]
    adj = g.adj
    for _ in range(depth):
        grown: list[int] = []
        for v in levels[-1]:
            for w, eid in adj[v]:
                if w not in parent and w != root and w not in forbidden:
                    parent[w] = (v, eid)
                    grown.append(w)
        levels.append(tuple(grown))
    return RootedTree(parent=parent, levels=tuple(levels))


def neighborhood_cycle(g: Graph, x: int, depth: int):
    """The unique cycle spanned by the depth-ball around x, if there is one.

    Returns None when the ball induces a tree, a canonically ordered vertex
    tuple when it spans exactly one cycle (started at its least vertex,
    walking toward that vertex's smaller cycle neighbor), and the AMBIGUOUS
    sentinel when two or more independent cycles appear.

    ``grow_bfs_tree`` grows the ball and its tree; the tree has |ball| - 1
    edges, so the ball spans one independent cycle per induced edge off the
    tree: the edges a vertex above the full depth skipped (degree - children
    - 1 of them, at x degree - children) and those joining two vertices at
    the full depth.  A vertex is in the ball when it is x or has a parent,
    and an edge is on the tree when it is some vertex's parent edge.  With
    exactly one off it, (u, v), the cycle is u's and v's tree paths below
    where they meet, closed by it.  The tree stops at depth n - 1.
    """
    tree = grow_bfs_tree(g, x, min(depth, g.n - 1))
    parent = tree.parent
    tree_eids = set(tree.edge_ids())
    adj = g.adj
    off_tree = [(u, v) for level in tree.levels for u in level for v, eid in adj[u]
                if u < v and eid not in tree_eids and (v in parent or v == x)]
    if not off_tree:
        return None
    if len(off_tree) > 1:
        return AMBIGUOUS
    (u, v), = off_tree
    # neither end is the other's parent and adjacent depths differ by at most
    # one, so neither root path contains the other: they part below x or lower
    from_u = tree.path_from_root(u).vertices
    from_v = tree.path_from_root(v).vertices
    meet = next(i for i, (a, b) in enumerate(zip(from_u, from_v)) if a != b) - 1
    ring = list(from_u[:meet:-1] + from_v[meet:])
    i = ring.index(min(ring))
    ring = ring[i:] + ring[:i]
    if ring[-1] < ring[1]:
        ring[1:] = ring[:0:-1]
    return tuple(ring)


# ----------------------------------------------------------------------------
# file format
# ----------------------------------------------------------------------------

def write_edge_list(g: Graph, path: Union[str, Path]) -> None:
    lines = [f"{g.n} {g.m}\n"]
    lines.extend(f"{u} {v}\n" for u, v in zip(*g.ends.T.tolist()))
    Path(path).write_text("".join(lines))


def read_text_lines(path: Union[str, Path]) -> list[tuple[str, str]]:
    """Non-blank lines of a text file with any ``#`` comment cut off.

    Returns (where, body) pairs, ``where`` being "path:line", so that every
    parse error can name the line it comes from.  A file that does not
    decode raises ValueError naming the path.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not {exc.encoding} text "
                         f"({exc.reason} at byte {exc.start})") from None
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if body:
            out.append((f"{path}:{lineno}", body))
    return out


def parse_fields(where: str, body: str, types: Sequence[type]) -> list:
    """Split ``body`` into exactly one whitespace-separated field per entry of
    ``types``, each converted by its type; ValueError naming ``where`` else."""
    parts = body.split()
    if len(parts) != len(types):
        raise ValueError(f"{where}: expected {len(types)} fields, got {body!r}")
    out = []
    for tok, typ in zip(parts, types):
        try:
            out.append(typ(tok))
        except ValueError:
            raise ValueError(f"{where}: expected {typ.__name__}, got {tok!r}") from None
    return out


def read_edge_list(path: Union[str, Path]) -> Graph:
    lines = read_text_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    n, m = parse_fields(*lines[0], (int, int))
    bad_n = _n_problem(n)
    if bad_n is not None:
        raise ValueError(f"{lines[0][0]}: {bad_n}")
    if len(lines) - 1 != m:
        raise ValueError(f"{path}: expected {m} edge lines, found {len(lines) - 1}")
    edges = _edge_array([parse_fields(where, body, (int, int)) for where, body in lines[1:]])
    bad = _first_violation(n, edges)
    if bad is not None:
        index, msg = bad
        raise ValueError(f"{lines[index + 1][0]}: {msg}")
    return Graph(n, edges)


# ----------------------------------------------------------------------------
# small named graphs (fixtures for tests, demos, and the brute-force oracle)
# ----------------------------------------------------------------------------

def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, sorted([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]))


def complete_graph(n: int) -> Graph:
    return Graph(n, sorted((u, v) for v in range(n) for u in range(v)))


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph_from_edges(10, outer + spokes + inner)
