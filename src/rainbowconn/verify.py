"""Rainbow path verification: exact, budgeted search, and brute-force rc.

A path is rainbow when its edge colors are pairwise distinct; a colored
graph is rainbow connected when every vertex pair has one.  Three verifiers
with different truth guarantees:

- ``rainbow_path_exact``: breadth-first walk over (vertex, used-color-set)
  states.  Complete up to ``max_len`` and returns a shortest witness, but the
  state space scales with 2^Q, so a guard refuses instances where both the
  palette and the length bound exceed 24.
- ``rainbow_path_search``: iterative-deepening DFS with the used-color set,
  seeded neighbor shuffling, an admissible distance-to-target prune, and a
  node-expansion budget.  Sound (every witness it returns is valid) but
  incomplete: a None under budget pressure proves nothing.
- ``brute_force_rc``: smallest palette size that admits a rainbow-connected
  coloring, by scanning q upward from the max(Z1, diameter) lower bound and
  enumerating colorings in canonical color-introduction order.

``VerifyReport`` aggregates per-pair outcomes and serializes as key=value
text.  Timing is reported as NA unless requested, keeping rerun outputs
byte-identical.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .coloring import EdgeColoring
from .errors import GuaranteeViolation, GuardError, NotConnected
from .graphs import Graph, bfs_distances, diameter
from .rng import derive_seed, stream

__all__ = [
    "PathWitness",
    "VerifyReport",
    "rainbow_path_exact",
    "rainbow_path_search",
    "verify_all_pairs",
    "verify_sampled",
    "sample_pairs",
    "brute_force_rc",
    "witness_ok",
    "make_witness",
    "verify_pairs",
    "report_text",
    "witness_lines",
]

_EXACT_GUARD_BITS = 24


@dataclass(frozen=True)
class PathWitness:
    """A verified rainbow path: vertices, the edges joining them, their colors."""

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]
    color_set: frozenset[int]

    @property
    def length(self) -> int:
        return len(self.edge_ids)


def make_witness(g: Graph, c: EdgeColoring, vertices: Sequence[int],
                 edge_ids: Sequence[int]) -> PathWitness:
    """The one checked constructor: the witness for this path, re-checked by
    ``witness_ok``.  Raises GuaranteeViolation (never an ``assert``, so
    ``python -O`` keeps the check) when the path is not a rainbow path."""
    w = PathWitness(tuple(vertices), tuple(edge_ids),
                    frozenset(c.colors[e] for e in edge_ids))
    if not witness_ok(g, c, w):
        raise GuaranteeViolation(f"constructed path {w.vertices} is not a rainbow path")
    return w


def witness_ok(g: Graph, c: EdgeColoring, w: PathWitness) -> bool:
    """Full revalidation: consecutive adjacency, simplicity, color distinctness."""
    if len(w.vertices) != len(w.edge_ids) + 1:
        return False
    if len(set(w.vertices)) != len(w.vertices):
        return False
    for (a, b), eid in zip(zip(w.vertices, w.vertices[1:]), w.edge_ids):
        u, v = g.edges[eid]
        if {a, b} != {u, v}:
            return False
    cols = [c.colors[e] for e in w.edge_ids]
    return len(set(cols)) == len(cols) and frozenset(cols) == w.color_set


def _check_bounds(max_len: Optional[int], budget: int = 0) -> None:
    """A negative bound would slip past the guards and bound nothing."""
    if max_len is not None and max_len < 0:
        raise ValueError(f"max_len {max_len} is negative")
    if budget < 0:
        raise ValueError(f"budget {budget} is negative")


# ----------------------------------------------------------------------------
# exact verifier
# ----------------------------------------------------------------------------

def rainbow_path_exact(g: Graph, c: EdgeColoring, x: int, y: int,
                       max_len: Optional[int] = None) -> Optional[PathWitness]:
    """Shortest rainbow x-y path, or None if none exists within max_len.

    Exactness: BFS over (vertex, color-bitmask) states visits each state
    once; a rainbow walk that revisits a vertex shortcuts to a strictly
    shorter rainbow walk, so the first state reaching y is a simple path.
    Raises ValueError for a negative ``max_len``.
    """
    _check_bounds(max_len)
    if max_len is None:
        max_len = g.n - 1
    if c.palette_size > _EXACT_GUARD_BITS and max_len > _EXACT_GUARD_BITS:
        raise GuardError(
            f"palette {c.palette_size} and max_len {max_len} both exceed "
            f"{_EXACT_GUARD_BITS}; state space impractical"
        )
    if x == y:
        return PathWitness((x,), (), frozenset())
    colors = c.colors
    adj = g.adj
    parent: dict[tuple[int, int], tuple[int, int, int]] = {}
    queue: deque[tuple[int, int, int]] = deque([(x, 0, 0)])  # vertex, mask, depth
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


# ----------------------------------------------------------------------------
# budgeted search
# ----------------------------------------------------------------------------

def _search_max_len(g: Graph, dist_from_y) -> int:
    d = diameter(g, "double_sweep")
    if d is None:
        finite = dist_from_y[dist_from_y >= 0]
        d = int(finite.max()) if finite.size else 0
    return math.ceil(4 * d)


def rainbow_path_search(g: Graph, c: EdgeColoring, x: int, y: int,
                        max_len: Optional[int] = None, budget: int = 10 ** 6,
                        seed: int = 0) -> Optional[PathWitness]:
    """Budgeted rainbow path search; None means "not found", never "absent".

    Iterative deepening on path length from the x-y distance upward.  At
    each expansion the neighbor order is reshuffled from the seeded stream,
    the used-color set prunes non-rainbow extensions, and branches that
    cannot reach y within the current limit (hop distance lower bound) are
    cut.  The expansion budget is shared across all deepening rounds.

    Each call runs one BFS, from y.  The default ``max_len`` derives from
    the double-sweep diameter, which is computed once per graph and then
    kept on ``g``, so only the first search on a graph pays for its sweep.
    Raises ValueError for a negative ``max_len`` or ``budget``.
    """
    _check_bounds(max_len, budget)
    if x == y:
        return PathWitness((x,), (), frozenset())
    dist_arr = bfs_distances(g, y)
    if dist_arr[x] < 0:
        return None
    dist = dist_arr.tolist()
    if max_len is None:
        max_len = _search_max_len(g, dist_arr)
    limit_cap = min(max_len, c.palette_size, g.n - 1)
    if dist[x] > limit_cap:
        return None
    rng = stream(seed, f"search:{x}:{y}")
    colors = c.colors
    indptr, nbr, eids = g.csr()

    def incident(v: int) -> list[tuple[int, int]]:
        # adj[v] as a fresh list, read off the CSR so that adj is never built
        a, b = indptr[v], indptr[v + 1]
        return list(zip(nbr[a:b].tolist(), eids[a:b].tolist()))

    expansions = 0

    for limit in range(dist[x], limit_cap + 1):
        # stack entries: (vertex, shuffled neighbor list, cursor)
        path = [x]
        on_path = {x}
        edge_path: list[int] = []
        used: set[int] = set()
        first = incident(x)
        rng.shuffle(first)
        stack: list[tuple[int, list, int]] = [(x, first, 0)]
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
            expansions += 1
            if expansions > budget:
                return None
            if v == y:
                return make_witness(g, c, path + [v], edge_path + [eid])
            path.append(v)
            on_path.add(v)
            edge_path.append(eid)
            used.add(col)
            nxt = incident(v)
            rng.shuffle(nxt)
            stack.append((v, nxt, 0))
    return None


# ----------------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------------

@dataclass
class VerifyReport:
    pairs_checked: int
    pairs_connected: int
    witnesses: Optional[dict[tuple[int, int], PathWitness]]
    max_witness_length: int
    mode: str
    elapsed: float

    @property
    def success_rate(self) -> float:
        return self.pairs_connected / self.pairs_checked if self.pairs_checked else 1.0


def sample_pairs(n: int, count: int, seed: int) -> list[tuple[int, int]]:
    """``count`` distinct pairs u < v drawn uniformly, sorted; all pairs when
    fewer exist.  The draw has its own stream, so it depends on
    (n, count, seed) only."""
    total = n * (n - 1) // 2
    count = min(count, total)
    rng = stream(seed, "sample-pairs")
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < count:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            chosen.add((min(u, v), max(u, v)))
    return sorted(chosen)


def verify_pairs(pairs, find, mode: str, keep_witnesses: bool) -> VerifyReport:
    """Run ``find(u, v)`` over ``pairs`` and tally the witnesses it returns."""
    t0 = time.perf_counter()
    witnesses: dict[tuple[int, int], PathWitness] = {}
    connected_pairs = 0
    checked = 0
    max_len_seen = 0
    for u, v in pairs:
        checked += 1
        w = find(u, v)
        if w is not None:
            connected_pairs += 1
            max_len_seen = max(max_len_seen, w.length)
            if keep_witnesses:
                witnesses[(u, v)] = w
    return VerifyReport(checked, connected_pairs, witnesses if keep_witnesses else None,
                        max_len_seen, mode, time.perf_counter() - t0)


def verify_all_pairs(g: Graph, c: EdgeColoring, mode: str = "exact",
                     max_len: Optional[int] = None, budget: int = 10 ** 6,
                     seed: int = 0, keep_witnesses: bool = True) -> VerifyReport:
    """Check every vertex pair; exact mode propagates the state-space guard."""
    if mode == "exact":
        def find(u, v):
            return rainbow_path_exact(g, c, u, v, max_len)
    elif mode == "search":
        def find(u, v):
            return rainbow_path_search(g, c, u, v, max_len, budget, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    pairs = ((u, v) for u in range(g.n) for v in range(u + 1, g.n))
    return verify_pairs(pairs, find, mode, keep_witnesses)


def verify_sampled(g: Graph, c: EdgeColoring, num_pairs: int, seed: int = 0,
                   max_len: Optional[int] = None, budget: int = 10 ** 6,
                   keep_witnesses: bool = False) -> VerifyReport:
    """Search over uniformly sampled distinct pairs, one derived seed per pair.

    Per-pair seeds depend on (seed, u, v) only, so results are stable under
    any evaluation order; the pairs come from ``sample_pairs``.  Raises
    ValueError for ``num_pairs < 1``, which would check nothing.
    """
    if num_pairs < 1:
        raise ValueError(f"need at least one sampled pair, got {num_pairs}")

    def find(u, v):
        return rainbow_path_search(g, c, u, v, max_len, budget,
                                   seed=derive_seed(seed, f"pair:{u}:{v}"))

    return verify_pairs(sample_pairs(g.n, num_pairs, seed), find, "search", keep_witnesses)


def report_text(rep: VerifyReport, include_timing: bool = False) -> str:
    elapsed = f"{rep.elapsed:.3f}" if include_timing else "NA"
    return (
        f"mode={rep.mode}\n"
        f"pairs_checked={rep.pairs_checked}\n"
        f"pairs_connected={rep.pairs_connected}\n"
        f"success_rate={rep.success_rate:.6f}\n"
        f"max_witness_length={rep.max_witness_length}\n"
        f"elapsed={elapsed}\n"
    )


def witness_lines(rep: VerifyReport) -> list[str]:
    """One line per found witness: "u v: v0 v1 ... vk"."""
    if not rep.witnesses:
        return []
    out = []
    for (u, v), w in sorted(rep.witnesses.items()):
        out.append(f"{u} {v}: " + " ".join(str(x) for x in w.vertices))
    return out


# ----------------------------------------------------------------------------
# brute-force rc
# ----------------------------------------------------------------------------

def brute_force_rc(g: Graph, q_max: Optional[int] = None
                   ) -> Optional[tuple[int, EdgeColoring]]:
    """Exact rainbow connection number with a witnessing coloring.

    Scans q from the max(Z1, diameter) lower bound upward.  Colorings are
    enumerated with colors introduced in first-use order (edge 0 is always
    color 0), which quotients out palette permutations.  Returns None when
    q_max is exhausted without an answer (unresolved), which cannot happen
    with the default q_max = n - 1: a spanning tree with distinct colors
    rainbow-connects any connected graph.
    """
    if g.n <= 1:
        return 0, EdgeColoring((), 0, ())
    # one BFS per source gives connectivity, the exact diameter and the pair
    # check order: long-distance pairs reject bad colorings fastest
    pair_dist = []
    for u in range(g.n):
        dd = bfs_distances(g, u)
        if (dd < 0).any():
            raise NotConnected("brute_force_rc needs a connected graph")
        for v in range(u + 1, g.n):
            pair_dist.append((-int(dd[v]), u, v))
    pair_dist.sort()
    pair_order = [(u, v) for _, u, v in pair_dist]
    if q_max is None:
        q_max = max(1, g.n - 1)
    # pendant-edge count: equals z1 except on a single edge, where the two
    # degree-1 endpoints share one pendant edge
    pendant_ids = {g.adj[v][0][1] for v in range(g.n) if g.degree(v) == 1}
    lower = max(1, len(pendant_ids), -pair_dist[0][0])
    pendant = [eid in pendant_ids for eid in range(g.m)]

    for q in range(lower, q_max + 1):
        found = _first_rainbow_coloring(g, q, pair_order, pendant)
        if found is not None:
            coloring = EdgeColoring(tuple(found), q, ("random",) * g.m)
            return q, coloring
    return None


def _first_rainbow_coloring(g: Graph, q: int, pair_order, pendant) -> Optional[list[int]]:
    """First canonical q-coloring (DFS order) that rainbow-connects g."""
    m = g.m
    colors = [0] * m
    pendant_used: set[int] = set()

    def ok_complete() -> bool:
        c = EdgeColoring(tuple(colors), q, ("random",) * m)
        for u, v in pair_order:
            if rainbow_path_exact(g, c, u, v) is None:
                return False
        return True

    def assign(i: int, introduced: int) -> bool:
        if i == m:
            return ok_complete()
        top = min(introduced + 1, q)
        for col in range(top):
            if pendant[i] and col in pendant_used:
                continue  # two same-colored pendant edges can never both work
            colors[i] = col
            if pendant[i]:
                pendant_used.add(col)
            if assign(i + 1, max(introduced, col + 1)):
                return True
            if pendant[i]:
                pendant_used.discard(col)
        return False

    colors[0] = 0
    if pendant[0]:
        pendant_used.add(0)
    return colors if assign(1, 1) else None
