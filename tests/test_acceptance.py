"""Release gates: one test per gate, one printed PASS/FAIL line each.

Each gate is self-contained and recomputes its checks independently of
library internals (inline BFS, union-find, naive enumeration) so a library
bug cannot hide itself.  Gates 1-4 and 6-8 are deterministic; gate 5 is the
statistical end-to-end run with a hard floor and a softer reported target,
both fixed in advance from a pilot at the same scale and seed.
"""

import collections
import hashlib
import itertools
import math
import random
import time

import pytest

import oracles
from rainbowconn.cli import main
from rainbowconn.coloring import (
    EdgeColoring,
    color_greedy_power,
    color_threshold,
    regular_params,
    threshold_params,
)
from rainbowconn.errors import GenerationExhausted, GuaranteeViolation, PaletteExhausted
from rainbowconn.graphs import GenParams, connected, gen_gnp, gen_regular_config, graph_from_edges, write_edge_list
from rainbowconn.pairing import (
    build_tree_pair_graph,
    pair_tree_paths,
    random_rainbow_tree_coloring,
)
from rainbowconn.rng import derive_seed, stream
from rainbowconn.verify import brute_force_rc, rainbow_path_exact, rainbow_path_search


@pytest.fixture
def announce(capsys):
    def go(num, label, ok, detail):
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[gate {num}] {label}: {verdict} ({detail})")
        assert ok, f"gate {num} {label}: {detail}"
    return go


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_connected(rng, n, m):
    """Uniform m-subset of edges, rejection-sampled to connectivity."""
    universe = list(itertools.combinations(range(n), 2))
    while True:
        edges = rng.sample(universe, m)
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u, v in edges:
            parent[find(u)] = find(v)
        if len({find(v) for v in range(n)}) == 1:
            return graph_from_edges(n, edges)


def inline_diameter(g):
    dia = 0
    for s in range(g.n):
        dist = {s: 0}
        dq = collections.deque([s])
        while dq:
            x = dq.popleft()
            for y, _ in g.adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    dq.append(y)
        if len(dist) < g.n:
            return None
        dia = max(dia, max(dist.values()))
    return dia


def inline_z1(g):
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return sum(1 for d in deg if d == 1)


def test_gate_1_exact_rc_oracles(announce):
    """Cliques, paths, short cycles, and a naive-enumerator cross-check."""
    t0 = time.perf_counter()
    bad = []
    for n in (3, 4, 5):
        rc, _ = brute_force_rc(complete_graph(n))
        if rc != 1:
            bad.append(f"K{n}={rc}")
    for n in (3, 4, 5, 6):
        rc, _ = brute_force_rc(path_graph(n))
        if rc != n - 1:
            bad.append(f"P{n}={rc}")
    for n in (5, 6):
        rc, _ = brute_force_rc(cycle_graph(n))
        if rc != 3:
            bad.append(f"C{n}={rc}")
    rng = random.Random(1)
    mismatches = 0
    for _ in range(30):
        n = rng.randint(4, 5)
        m = rng.randint(n - 1, min(8, n * (n - 1) // 2))
        g = random_connected(rng, n, m)
        rc, _ = brute_force_rc(g)
        if rc != oracles.naive_rc(g.n, list(g.edges)):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = not bad and mismatches == 0 and elapsed < 300
    announce(1, "exact rc oracles", ok,
             f"closed forms {'ok' if not bad else bad}, "
             f"{mismatches}/30 naive mismatches, {elapsed:.1f}s < 300s")


def test_gate_2_rc_lower_bound(announce):
    """rc >= max(pendant count, diameter) on 500 brute-forced instances."""
    t0 = time.perf_counter()
    rng = random.Random(2)
    violations = 0
    for _ in range(500):
        n = rng.randint(4, 7)
        m = rng.randint(n - 1, min(n + 2, n * (n - 1) // 2))
        g = random_connected(rng, n, m)
        rc, _ = brute_force_rc(g)
        if rc < max(inline_z1(g), inline_diameter(g)):
            violations += 1
    elapsed = time.perf_counter() - t0
    announce(2, "rc lower bound", violations == 0,
             f"{violations} violations / 500 instances, {elapsed:.1f}s")


def test_gate_3_pairing_floor(announce):
    """Matched path pairs: count floor and rainbow unions, 1000 colorings per cell."""
    t0 = time.perf_counter()
    short = bad_union = blowups = 0
    for d in (3, 4):
        for ell in (1, 2, 3):
            g, tx, ty = build_tree_pair_graph(d, ell)
            palette = 2 * (g.m // 2)
            floor = (d - 1) ** ell
            for seed in range(1000):
                c = random_rainbow_tree_coloring(g, tx, ty, palette=palette, seed=seed)
                try:
                    res = pair_tree_paths(tx, ty, c)
                except GuaranteeViolation:
                    blowups += 1
                    continue
                if len(res.pairs) < floor:
                    short += 1
                for p1, p2 in res.pairs:
                    cols = [c.colors[e] for e in p1.edge_ids + p2.edge_ids]
                    if len(set(cols)) != len(cols):
                        bad_union += 1
    for k in (2, 4, 6):
        g, tx, ty = build_tree_pair_graph(2, k)
        palette = 2 * (g.m // 2)
        floor = 2 ** (k // 2)
        for seed in range(1000):
            c = random_rainbow_tree_coloring(g, tx, ty, palette=palette, seed=seed)
            try:
                res = pair_tree_paths(tx, ty, c)
            except GuaranteeViolation:
                blowups += 1
                continue
            if len(res.pairs) < floor:
                short += 1
            for p1, p2 in res.pairs:
                cols = [c.colors[e] for e in p1.edge_ids + p2.edge_ids]
                if len(set(cols)) != len(cols):
                    bad_union += 1
    elapsed = time.perf_counter() - t0
    ok = short == 0 and bad_union == 0 and blowups == 0 and elapsed < 60
    announce(3, "pairing floor", ok,
             f"9000 colorings: {short} short, {bad_union} non-rainbow unions, "
             f"{blowups} violations, {elapsed:.1f}s < 60s")


def test_gate_4_greedy_properness(announce):
    """No color repeats within line-distance 2k on G(2000, r), r in 3..5."""
    t0 = time.perf_counter()
    details = []
    clean = True
    for r in (3, 4, 5):
        g = gen_regular_config(GenParams(n=2000, r=r, seed=0))
        rp = regular_params(2000, r)
        try:
            c = color_greedy_power(g, radius=2 * rp.k, q=rp.q, seed=1)
        except PaletteExhausted:
            clean = False
            details.append(f"r={r} exhausted")
            continue
        # independent properness sweep over the line graph
        incident = [[] for _ in range(g.n)]
        for eid, (u, v) in enumerate(g.edges):
            incident[u].append(eid)
            incident[v].append(eid)
        ladj = [[] for _ in range(g.m)]
        for eids in incident:
            for i, a in enumerate(eids):
                for b in eids[i + 1:]:
                    ladj[a].append(b)
                    ladj[b].append(a)
        radius = 2 * rp.k
        collisions = 0
        seen = [-1] * g.m
        for e in range(g.m):
            seen[e] = e
            dq = collections.deque([(e, 0)])
            while dq:
                f, depth = dq.popleft()
                if depth == radius:
                    continue
                for nb in ladj[f]:
                    if seen[nb] != e:
                        seen[nb] = e
                        if c.colors[nb] == c.colors[e]:
                            collisions += 1
                        dq.append((nb, depth + 1))
        # every depth-k BFS tree rainbow, parent edges collected inline
        dull_trees = 0
        for root in range(g.n):
            depth = {root: 0}
            tree_edges = []
            dq = collections.deque([root])
            while dq:
                x = dq.popleft()
                if depth[x] == rp.k:
                    continue
                for y, eid in g.adj[x]:
                    if y not in depth:
                        depth[y] = depth[x] + 1
                        tree_edges.append(eid)
                        dq.append(y)
            cols = [c.colors[e] for e in tree_edges]
            if len(set(cols)) != len(cols):
                dull_trees += 1
        if collisions or dull_trees:
            clean = False
        details.append(f"r={r}: {collisions} collisions, {dull_trees} repeat trees")
    elapsed = time.perf_counter() - t0
    ok = clean and elapsed < 600
    announce(4, "greedy properness", ok, "; ".join(details) + f", {elapsed:.1f}s < 600s")


def test_gate_5_threshold_end_to_end(announce):
    """Statistical run at n = 10^5: hard floor 0.80, reported target 0.95.

    Both thresholds and the seed were fixed ahead of time from a pilot of the
    identical protocol (seed 0 gives a connected instance; pilot rate 1.00,
    mean witness length 4.8, ~16s).
    """
    t0 = time.perf_counter()
    n = 100000
    g = gen_gnp(GenParams(n=n, omega=math.log(math.log(n)), seed=0))
    assert connected(g)
    tp = threshold_params(n)
    c = color_threshold(g, tp, seed=derive_seed(0, "color"))
    rng = stream(0, "pairs")
    pairs = set()
    while len(pairs) < 200:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    won = 0
    for u, v in sorted(pairs):
        w = rainbow_path_search(g, c, u, v, budget=10 ** 6,
                                seed=derive_seed(0, f"{u}:{v}"))
        if w is not None:
            won += 1
    rate = won / 200
    elapsed = time.perf_counter() - t0
    soft = "met" if rate >= 0.95 else "MISSED (report only)"
    ok = rate >= 0.80 and elapsed < 60
    announce(5, "threshold end to end", ok,
             f"rate={rate:.4f}, hard>=0.80, soft>=0.95 {soft}, {elapsed:.1f}s < 60s")


def test_gate_6_exact_search_agreement(announce):
    """Exact and full-budget search agree on witness existence, 200 triples."""
    rng = random.Random(6)
    disagree = 0
    for _ in range(200):
        n = rng.randint(4, 12)
        universe = list(itertools.combinations(range(n), 2))
        m = rng.randint(n - 1, len(universe))
        g = graph_from_edges(n, rng.sample(universe, m))
        q = rng.randint(1, 8)
        c = EdgeColoring(tuple(rng.randrange(q) for _ in range(g.m)), q,
                         ("random",) * g.m)
        x = rng.randrange(n)
        y = rng.randrange(n)
        while y == x:
            y = rng.randrange(n)
        we = rainbow_path_exact(g, c, x, y)
        ws = rainbow_path_search(g, c, x, y, budget=10 ** 6,
                                 seed=rng.randrange(2 ** 30))
        if (we is None) != (ws is None):
            disagree += 1
    announce(6, "exact/search agreement", disagree == 0,
             f"{disagree} disagreements / 200 triples")


def test_gate_7_config_model_validity(announce):
    """1000 single-shot attempts at (100, 3): all accepted graphs simple and regular."""
    accepted = defects = 0
    for seed in range(1000):
        try:
            g = gen_regular_config(GenParams(n=100, r=3, seed=seed, max_attempts=1))
        except GenerationExhausted:
            continue
        accepted += 1
        deg = [0] * g.n
        simple = len(set(g.edges)) == g.m
        for u, v in g.edges:
            if u == v:
                simple = False
            deg[u] += 1
            deg[v] += 1
        if not simple or deg != [3] * g.n:
            defects += 1
    fraction = accepted / 1000
    ok = defects == 0 and fraction > 0.05
    announce(7, "config model validity", ok,
             f"{accepted}/1000 accepted ({fraction:.3f} > 0.05), {defects} defective")


def test_gate_8_cli_rerun_identical(announce, tmp_path, capsys):
    """A full CLI pipeline, run twice with the same seeds, matches byte for byte."""
    def pipeline(root):
        root.mkdir()
        p4 = root / "p4.el"
        write_edge_list(path_graph(4), p4)
        steps = [
            ["gen", "gnp", "--n", "300", "--omega", "3", "--seed", "11",
             "--out", str(root / "g.el")],
            ["stats", "--in", str(root / "g.el")],
            ["color", "thm1", "--in", str(root / "g.el"), "--seed", "4",
             "--out", str(root / "c1.col")],
            ["verify", "sample", "--in", str(root / "g.el"),
             "--coloring", str(root / "c1.col"), "--pairs", "30",
             "--seed", "5", "--budget", "20000"],
            ["gen", "regular", "--n", "60", "--r", "3", "--seed", "2",
             "--out", str(root / "r.el")],
            ["color", "greedy", "--in", str(root / "r.el"), "--radius", "2",
             "--q", "60", "--seed", "0", "--out", str(root / "c2.col")],
            ["recolor", "cycles", "--in", str(root / "r.el"),
             "--coloring", str(root / "c2.col"), "--k", "2",
             "--out", str(root / "c3.col")],
            ["rc", "brute", "--in", str(p4)],
            ["experiment", "--mode", "lemcol_stress", "--d", "3", "--ell", "2",
             "--trials", "2", "--seed", "0", "--out", str(root / "e.csv")],
        ]
        codes = []
        for argv in steps:
            codes.append(main(argv))
        # stdout echoes output paths, which differ by run directory on purpose
        stdout = capsys.readouterr().out.replace(str(root), "<root>")
        hashes = {}
        for f in sorted(root.iterdir()):
            hashes[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
        return codes, stdout, hashes

    codes_a, out_a, hashes_a = pipeline(tmp_path / "run_a")
    codes_b, out_b, hashes_b = pipeline(tmp_path / "run_b")
    ok = codes_a == codes_b and out_a == out_b and hashes_a == hashes_b
    announce(8, "deterministic CLI reruns", ok,
             f"{len(hashes_a)} files hashed identical, "
             f"stdout {'identical' if out_a == out_b else 'DIFFERS'}, "
             f"exit codes {codes_a}")
