"""Each benchmark check must reject a known-bad input and accept a good one.

Run with ``python3 -m pytest perfbench/test_checks.py``.  The fixtures are
built here from plain lists, without the package.
"""

import collections
import itertools
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent


def arr(edges):
    return checks.edge_array(edges)


def lists(n, edges):
    indptr, nbr = checks.adjacency(n, arr(edges))
    return indptr.tolist(), nbr.tolist()


P3 = [(0, 1), (1, 2)]


def p3_witness(colors):
    return checks.witness_problems(arr(P3), np.array(colors), *lists(3, P3),
                                   0, 2, (0, 1, 2), (0, 1), set(colors))


def test_witness_accepts_rainbow_p3():
    assert p3_witness([0, 1]) == []


def test_witness_rejects_p3_with_one_color():
    assert p3_witness([0, 0])


def test_witness_rejects_p3_with_one_color_under_dash_o():
    code = ("import sys, numpy as np, checks\n"
            "e = checks.edge_array([(0, 1), (1, 2)])\n"
            "ip, nb = checks.adjacency(3, e)\n"
            "bad = checks.witness_problems(e, np.array([0, 0]), ip.tolist(), nb.tolist(),"
            " 0, 2, (0, 1, 2), (0, 1), {0})\n"
            "sys.exit(0 if bad else 3)\n")
    for flags in ([], ["-O"]):
        done = subprocess.run([sys.executable, *flags, "-c", code], cwd=HERE, timeout=60)
        assert done.returncode == 0, flags


def test_witness_rejects_broken_paths():
    edges = [(0, 1), (0, 2), (1, 2), (2, 3)]
    e, cols, (ip, nb) = arr(edges), np.array([0, 1, 2, 3]), lists(4, edges)
    assert checks.witness_problems(e, cols, ip, nb, 0, 3, (0, 2, 3), (1, 3), {1, 3}) == []
    bad = [
        ((0, 3), (3,)),             # not an edge
        ((0, 2, 3), (0, 3)),        # edge id 0 joins 0 and 1
        ((0, 1, 0, 2, 3), (0, 0, 1, 3)),  # repeats a vertex
        ((0, 2), (1,)),             # ends at the wrong vertex
        ((0, 2, 3), (1, 7)),        # edge id out of range
    ]
    for verts, eids in bad:
        assert checks.witness_problems(e, cols, ip, nb, 0, 3, verts, eids), verts
    assert checks.witness_problems(e, cols, ip, nb, 0, 3, (0, 2, 3), (1, 3), {1, 2})


def test_hop_distance_matches_plain_bfs():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 40)
        pool = list(itertools.combinations(range(n), 2))
        edges = sorted(rng.sample(pool, rng.randint(0, min(len(pool), 2 * n))))
        ip, nb = lists(n, edges)
        adj = collections.defaultdict(list)
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        for x in range(n):
            dist = {x: 0}
            dq = collections.deque([x])
            while dq:
                u = dq.popleft()
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        dq.append(v)
            for y in range(n):
                assert checks.hop_distance(ip, nb, x, y) == dist.get(y), (edges, x, y)


def test_canonical_rejects_each_defect():
    assert checks.canonical_problems(4, arr([(0, 1), (1, 2), (2, 3)])) == []
    for edges in ([(1, 2), (0, 1)], [(0, 1), (0, 1)], [(1, 0)], [(2, 2)], [(0, 4)], [(-1, 2)]):
        assert checks.canonical_problems(4, arr(edges)), edges


def test_regular_rejects_wrong_degree_or_size():
    k4 = list(itertools.combinations(range(4), 2))
    assert checks.regular_problems(4, 3, arr(k4)) == []
    assert checks.regular_problems(4, 3, arr(k4[:-1]))
    assert checks.regular_problems(5, 3, arr(k4))


def test_gnp_edge_count_window():
    n, omega = 1000, 2.0
    p = (np.log(n) + omega) / n
    rng = np.random.default_rng(3)
    pool = np.array(list(itertools.combinations(range(n), 2)))
    good = pool[rng.random(len(pool)) < p]
    assert checks.gnp_problems(n, omega, good) == []
    assert checks.gnp_problems(n, omega, good[: len(good) // 2])


def test_connectivity_claim():
    path = arr([(0, 1), (1, 2)])
    assert checks.connectivity_problems(3, path, True) == []
    assert checks.connectivity_problems(4, path, True)
    assert checks.connectivity_problems(4, path, False) == []


def test_threshold_rejects_shared_pendant_color_and_wrong_palette():
    # leaves 1..3 hang off vertex 0, which lies on the cycle 0-4-5-...-19: Z1 = 3
    n = 20
    edges = arr(sorted([(0, 1), (0, 2), (0, 3), (0, 4), (0, n - 1)] +
                       [(v, v + 1) for v in range(4, n - 1)]))
    q = checks.threshold_q(n)
    palette = max(3, q) + 2
    good = np.array([0, 1, 2] + [3] * (len(edges) - 3))
    assert checks.threshold_problems(n, edges, good, palette) == []
    shared = good.copy()
    shared[1] = 0
    assert checks.threshold_problems(n, edges, shared, palette)
    assert checks.threshold_problems(n, edges, good, palette + 1)


def prism(k):
    """3-regular prism C_k x K2."""
    edges = []
    for i in range(k):
        j = (i + 1) % k
        edges += [(i, j), (k + i, k + j), (i, k + i)]
    return sorted((min(u, v), max(u, v)) for u, v in edges)


def line_graph_clashes(edges, colors, radius):
    """Gate 4's sweep: BFS in the line graph, same-colored pairs within radius."""
    incident = collections.defaultdict(list)
    for eid, (u, v) in enumerate(edges):
        incident[u].append(eid)
        incident[v].append(eid)
    found = set()
    for e in range(len(edges)):
        depth = {e: 0}
        dq = collections.deque([e])
        while dq:
            f = dq.popleft()
            if depth[f] == radius:
                continue
            for w in edges[f]:
                for g in incident[w]:
                    if g not in depth:
                        depth[g] = depth[f] + 1
                        dq.append(g)
                        if colors[g] == colors[e]:
                            found.add((min(e, g), max(e, g)))
    return len(found)


def test_power_coloring_agrees_with_line_graph_sweep():
    rng = random.Random(9)
    for k in (4, 5, 7, 9):
        edges = prism(k)
        for radius in (1, 2, 3):
            for q in (2, 5, 40):
                colors = np.array([rng.randrange(q) for _ in edges])
                want = line_graph_clashes(edges, colors, radius)
                got = checks.power_coloring_problems(2 * k, arr(edges), colors, radius)
                assert bool(got) == bool(want)
                if want:
                    assert got[0].startswith(f"{want} "), (got, want)


def test_power_coloring_rejects_a_near_repeat():
    edges = prism(8)
    colors = np.arange(len(edges))
    assert checks.power_coloring_problems(16, arr(edges), colors, 4) == []
    colors[1] = colors[0]
    assert checks.power_coloring_problems(16, arr(edges), colors, 4)


def test_recolor_rejects_base_palette_rewrite():
    base = np.array([0, 1, 2, 3])
    assert checks.recolor_problems(base, np.array([0, 5, 6, 3]), 4, 7) == []
    assert checks.recolor_problems(base, np.array([0, 2, 6, 3]), 4, 7)
    assert checks.recolor_problems(base, np.array([0, 5, 9, 3]), 4, 7)
