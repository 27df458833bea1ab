"""Rainbow path verification: exact, budgeted search, and brute-force rc.

A path is rainbow when its edge colors are pairwise distinct; a colored
graph is rainbow connected when every vertex pair has one.  Three verifiers
with different truth guarantees:

- ``rainbow_path_exact``: breadth-first walk over (vertex, used-color-set)
  states.  Complete up to its length cap and returns a shortest witness, so
  a None proves that no rainbow path of at most that many edges exists.
  The state space scales with 2^Q, so a guard refuses a cap above 24.
- ``rainbow_path_search``: iterative-deepening DFS with the used-color set,
  seeded neighbor shuffling, an admissible distance-to-target prune, and a
  budget on the neighbor slots it shuffles, so its work is bounded even
  through a hub.  Sound (every witness it returns is valid); a None proves
  absence only when the budget did not run out.  It loops over
  ``corridor_distances``, one length limit per step: distances that cover
  only the x-y corridor of the limit (a ball from each end), and elsewhere
  never read short, so the prune cuts what exact distances would cut and
  every witness is the one full distances would give.
- ``brute_force_rc``: smallest palette size that admits a rainbow-connected
  coloring, by scanning q upward from ``rc_lower_bound`` and enumerating
  colorings in canonical color-introduction order.

Both verifiers look for paths of at most ``_pair_cap`` edges: a rainbow
path uses each color and each vertex at most once, so it has at most
min(palette, n - 1) edges, and ``max_len`` can only lower that.

``VerifyReport`` aggregates per-pair outcomes, its statistics derived from
the lengths of the witnesses found, and serializes as key=value text.
Timing is reported as NA unless requested, keeping rerun outputs
byte-identical.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .coloring import EdgeColoring, check_coloring
from .errors import GuaranteeViolation, GuardError, NotConnected
from .graphs import Graph, bfs_distances, check_vertices, corridor_distances, pendant_edges
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
    "rc_lower_bound",
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
    """Full revalidation: consecutive adjacency, simplicity, color distinctness.

    The path's edges are read with one index into ``g.ends``; an edge id
    outside ``[0, m)`` fails the check."""
    eids = list(w.edge_ids)
    if len(w.vertices) != len(eids) + 1 or len(set(w.vertices)) != len(w.vertices):
        return False
    if eids and not 0 <= min(eids) <= max(eids) < g.m:
        return False
    steps = zip(w.vertices, w.vertices[1:])
    if any({a, b} != {u, v} for (a, b), (u, v) in zip(steps, g.ends[eids].tolist())):
        return False
    cols = [c.colors[e] for e in eids]
    return len(set(cols)) == len(cols) and frozenset(cols) == w.color_set


def _pair_cap(g: Graph, c: EdgeColoring, x: int, y: int, max_len: Optional[int],
              budget: int = 0) -> int:
    """The most edges a rainbow x-y path can have: min(palette, n - 1), as
    it repeats no color and no vertex, lowered to ``max_len`` when given.

    First the checks both verifiers share, in this order: ValueError for a
    negative ``max_len`` or ``budget`` (either would bound nothing), an x or
    y that is not a vertex of g, or a coloring of another edge count than
    g's."""
    if max_len is not None and max_len < 0:
        raise ValueError(f"max_len {max_len} is negative")
    if budget < 0:
        raise ValueError(f"budget {budget} is negative")
    check_vertices(g, ("x", x), ("y", y))
    check_coloring(g, c)
    cap = min(c.palette_size, g.n - 1)
    return cap if max_len is None else min(cap, max_len)


# ----------------------------------------------------------------------------
# exact verifier
# ----------------------------------------------------------------------------

def rainbow_path_exact(g: Graph, c: EdgeColoring, x: int, y: int,
                       max_len: Optional[int] = None) -> Optional[PathWitness]:
    """Shortest rainbow x-y path, or None if none has at most ``_pair_cap``
    edges: with no ``max_len``, None proves that no rainbow path exists.

    Exactness: BFS over (vertex, color-bitmask) states visits each state
    once; a rainbow walk that revisits a vertex shortcuts to a strictly
    shorter rainbow walk, so the first state reaching y is a simple path.
    Raises GuardError when the cap exceeds 24, and ValueError as
    ``_pair_cap`` does.
    """
    cap = _pair_cap(g, c, x, y, max_len)
    if cap > _EXACT_GUARD_BITS:
        raise GuardError(f"a rainbow path here may have {cap} edges, more than "
                         f"{_EXACT_GUARD_BITS}; state space impractical")
    if x == y:
        return PathWitness((x,), (), frozenset())
    colors = c.colors
    adj = g.adj
    # state -> (previous vertex, previous mask, edge id), None at the start;
    # its keys are the visited states
    parent: dict[tuple[int, int], Optional[tuple[int, int, int]]] = {(x, 0): None}
    queue: deque[tuple[int, int, int]] = deque([(x, 0, 0)])  # vertex, mask, depth
    while queue:
        u, mask, depth = queue.popleft()
        if depth == cap:
            continue
        for v, eid in adj[u]:
            bit = 1 << colors[eid]
            state = (v, mask | bit)
            if mask & bit or state in parent:
                continue
            parent[state] = (u, mask, eid)
            if v == y:
                verts, eids, step = [y], [], parent[state]
                while step is not None:  # the start state's None ends the walk
                    verts.append(step[0])
                    eids.append(step[2])
                    step = parent[step[:2]]
                return make_witness(g, c, verts[::-1], eids[::-1])
            queue.append((v, state[1], depth + 1))
    return None


# ----------------------------------------------------------------------------
# budgeted search
# ----------------------------------------------------------------------------

def rainbow_path_search(g: Graph, c: EdgeColoring, x: int, y: int,
                        max_len: Optional[int] = None, budget: int = 10 ** 6,
                        seed: int = 0) -> Optional[PathWitness]:
    """Budgeted rainbow path search.  A None with budget left proves that no
    rainbow path has at most ``_pair_cap`` edges; a None that ran out of
    budget proves nothing.

    Iterative deepening on path length: one DFS per step of
    ``corridor_distances``, from the x-y distance up to the cap, and none
    when x lies outside y's component.  At each expansion the neighbor
    order is reshuffled from the seeded stream, the used-color set prunes
    non-rainbow extensions, and branches that cannot reach y within the
    current limit (hop distance lower bound) are cut.

    The budget counts the neighbor slots shuffled, the root's at each
    limit included, over all deepening rounds, and the search returns
    None before a shuffle that would pass it.  So the budget bounds the
    work: a search that passes a hub of degree D pays D for each visit.
    On the hub path of ``length`` 2000 (``tests/strategies.py``) with edge
    (1, 2) recolored to edge (0, 1)'s color, which has no rainbow 0-2000
    path, the default budget runs out in 0.36 s (2-vCPU VM, Python 3.11).
    Gate 5's 200 searches shuffle at most 357 slots each, and the 1963 of
    ``tests/witness_digests.py``'s regular protocol at most 159.

    The corridor's contract makes the prune ``depth + dist[v] > limit``
    cut what exact distances would cut (an unlabelled -1 reads as
    2^64 - 1), so every expansion, shuffle, witness and budget cut-off is
    the one full distances from y would give; only the labelling costs
    less.  Raises ValueError as ``_pair_cap`` does.
    """
    cap = _pair_cap(g, c, x, y, max_len, budget)
    if x == y:
        return PathWitness((x,), (), frozenset())
    indptr, nbr, eids = g.csr()
    rng = stream(seed, f"search:{x}:{y}")
    colors = c.colors

    spent = 0  # neighbor slots shuffled, over all limits

    def shuffled(v: int):
        # adj[v] read off the CSR, so that adj is never built, in seeded
        # order; None, unshuffled, when its slots would pass the budget
        nonlocal spent
        a, b = indptr[v], indptr[v + 1]
        spent += b - a
        if spent > budget:
            return None
        out = list(zip(nbr[a:b].tolist(), eids[a:b].tolist()))
        rng.shuffle(out)
        return iter(out)

    for limit, labels in corridor_distances(g, x, y):
        if limit > cap:
            break
        # Read as unsigned, an unlabelled -1 is 2^64 - 1: farther than any
        # limit, so the prune cuts it.  The labels may move to another array
        # from one limit to the next.
        dist = memoryview(labels.view("u8"))
        # one shuffled neighbor iterator per vertex on the path
        path = [x]
        edge_path: list[int] = []
        on_path = {x}
        used: set[int] = set()
        stack = [shuffled(x)]
        while stack:
            if stack[-1] is None:
                return None  # out of budget
            depth = len(path)  # of the extension tried next
            for v, eid in stack[-1]:
                if v in on_path or colors[eid] in used or depth + dist[v] > limit:
                    continue
                if v == y:
                    return make_witness(g, c, path + [v], edge_path + [eid])
                path.append(v)
                edge_path.append(eid)
                on_path.add(v)
                used.add(colors[eid])
                stack.append(shuffled(v))
                break
            else:
                stack.pop()
                if edge_path:
                    used.discard(colors[edge_path.pop()])
                    on_path.discard(path.pop())
    return None


# ----------------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------------

@dataclass
class VerifyReport:
    """A pair sweep: the pairs checked, each found witness's length in pair
    order (the connected count, success rate and longest and mean lengths
    derive from these), the witnesses only if kept, mode and elapsed time."""

    pairs_checked: int
    lengths: tuple[int, ...]
    witnesses: Optional[dict[tuple[int, int], PathWitness]]
    mode: str
    elapsed: float

    @property
    def pairs_connected(self) -> int:
        return len(self.lengths)

    @property
    def success_rate(self) -> float:
        return self.pairs_connected / self.pairs_checked if self.pairs_checked else 1.0

    @property
    def max_witness_length(self) -> int:
        return max(self.lengths, default=0)

    @property
    def mean_witness_length(self) -> Optional[float]:
        return statistics.fmean(self.lengths) if self.lengths else None


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
    witnesses: Optional[dict[tuple[int, int], PathWitness]] = {} if keep_witnesses else None
    lengths = []
    checked = 0
    for checked, (u, v) in enumerate(pairs, 1):
        w = find(u, v)
        if w is not None:
            lengths.append(w.length)
            if witnesses is not None:
                witnesses[(u, v)] = w
    return VerifyReport(checked, tuple(lengths), witnesses, mode, time.perf_counter() - t0)


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
    """One line per kept witness: "u v: v0 v1 ... vk"."""
    return [f"{u} {v}: " + " ".join(map(str, w.vertices))
            for (u, v), w in sorted((rep.witnesses or {}).items())]


# ----------------------------------------------------------------------------
# brute-force rc
# ----------------------------------------------------------------------------

def rc_lower_bound(g: Graph, diam: int) -> int:
    """max(number of distinct pendant edges, ``diam``), a lower bound on rc(g).

    Two pendant edges lie on every path between their degree-1 ends, so
    they need distinct colors, and a pair at distance ``diam`` needs that
    many.  The count is Z1 except on K2, whose one edge is pendant at both
    ends.  The double-sweep value is valid here too: it is itself a lower
    bound on the diameter.
    """
    return max(len(set(pendant_edges(g))), diam)


def brute_force_rc(g: Graph, q_max: Optional[int] = None
                   ) -> Optional[tuple[int, EdgeColoring]]:
    """Exact rainbow connection number with a witnessing coloring.

    Scans q from ``rc_lower_bound`` upward.  Colorings are
    enumerated with colors introduced in first-use order (edge 0 is always
    color 0), which quotients out palette permutations.  Returns None when
    q_max is exhausted without an answer (unresolved), which cannot happen
    with the default q_max = n - 1: a spanning tree with distinct colors
    rainbow-connects any connected graph.  A negative q_max is refused
    (ValueError), so None always means a cap that was too small.
    """
    if q_max is not None and q_max < 0:
        raise ValueError(f"q_max {q_max} is negative")
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
    pendant = set(pendant_edges(g))
    for q in range(rc_lower_bound(g, -pair_dist[0][0]), q_max + 1):
        found = _first_rainbow_coloring(g, q, pair_order, pendant)
        if found is not None:
            return q, EdgeColoring(tuple(found), q, ("random",) * g.m)
    return None


def _first_rainbow_coloring(g: Graph, q: int, pair_order, pendant: set[int]
                            ) -> Optional[list[int]]:
    """First canonical q-coloring (DFS order) that rainbow-connects g;
    ``pendant`` holds the pendant edge ids."""
    m = g.m
    colors = [0] * m
    pendant_used: set[int] = set()

    def ok_complete() -> bool:
        c = EdgeColoring(tuple(colors), q, ("random",) * m)
        return all(rainbow_path_exact(g, c, u, v) is not None for u, v in pair_order)

    def assign(i: int, introduced: int) -> bool:
        if i == m:
            return ok_complete()
        for col in range(min(introduced + 1, q)):
            if i in pendant and col in pendant_used:
                continue  # two same-colored pendant edges can never both work
            colors[i] = col
            if i in pendant:
                pendant_used.add(col)
            if assign(i + 1, max(introduced, col + 1)):
                return True
            if i in pendant:
                pendant_used.discard(col)
        return False

    return colors if assign(0, 0) else None
