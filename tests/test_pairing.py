"""Tree growth, the matched path pairing, and witness bundles."""

import hashlib
import time
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from rainbowconn import pairing as pairing_mod
from rainbowconn import verify as verify_mod
from rainbowconn.coloring import EdgeColoring, color_greedy_power, regular_params
from rainbowconn.errors import GuaranteeViolation, NoStructure
from rainbowconn.graphs import (GenParams, bfs_distances, complete_graph, cycle_graph,
                                gen_regular_config, graph_from_edges, grow_bfs_tree, path_graph,
                                petersen_graph)
from rainbowconn.pairing import (
    bipartite_matching,
    build_tree_pair_graph,
    build_witness_paths,
    bundle_text,
    pair_tree_paths,
    pairing_floor,
    rainbow_witness,
    random_rainbow_tree_coloring,
    witness_via_trees,
)
from rainbowconn.rng import derive_seed
from rainbowconn.verify import sample_pairs, witness_ok
from strategies import graphs, sparse_graphs


PETERSEN = petersen_graph()

# gate 4's regular instances at n = 2000, generated once, reused
_REGULAR_CACHE = {}


def level_sizes(t):
    return tuple(len(level) for level in t.levels)


def depths(t):
    return {v: i for i, level in enumerate(t.levels) for v in level}


def regular_instance(r=5):
    if r not in _REGULAR_CACHE:
        _REGULAR_CACHE[r] = (gen_regular_config(GenParams(n=2000, r=r, seed=0)),
                             regular_params(2000, r))
    return _REGULAR_CACHE[r]


def outcome(f, *args, **kwargs):
    """What the call returns, or the type and message of what it raises."""
    try:
        return f(*args, **kwargs)
    except (ValueError, GuaranteeViolation) as exc:
        return type(exc).__name__, str(exc)


class TestGrowBfsTree:
    def test_k4_depth_one(self):
        for root in range(4):
            t = grow_bfs_tree(complete_graph(4), root, 1)
            assert level_sizes(t) == (1, 3)
            assert sorted(t.leaves) == sorted(set(range(4)) - {root})

    def test_petersen_depth_two_no_bad_edges(self):
        # girth 5: every expanded vertex keeps all its non-parent edges as children
        for root in range(10):
            t = grow_bfs_tree(PETERSEN, root, 2)
            assert level_sizes(t) == (1, 3, 6)
            for level in t.levels[:2]:
                for v in level:
                    assert len(t.children[v]) == PETERSEN.degree(v) - (v != root)

    def test_c5_shortfall_at_level_one(self):
        with pytest.raises(NoStructure, match="branching shortfall at") as exc:
            build_witness_paths(cycle_graph(5), 0, 2, k=2, gamma=0, d=2)
        short = int(str(exc.value).rsplit(" ", 1)[1])
        assert short in grow_bfs_tree(cycle_graph(5), 0, 2).levels[1]

    def test_forbidden_vertices_skipped_and_counted(self):
        g = complete_graph(4)
        t = grow_bfs_tree(g, 0, 1, forbidden=frozenset({2}))
        assert 2 not in t.vertices()
        assert len(t.children[0]) == 2 and g.degree(0) == 3  # one edge skipped
        assert level_sizes(t) == (1, 2)

    def test_forbidden_root_grows_the_same_tree(self):
        # a tree starts at its root and never re-enters it, so a forbidden
        # set that holds the root forbids nothing more
        for g in (complete_graph(4), PETERSEN, cycle_graph(6)):
            for root in range(g.n):
                for forbidden in (set(), {(root + 1) % g.n}, set(range(0, g.n, 3))):
                    without = grow_bfs_tree(g, root, 2, forbidden=forbidden - {root})
                    held = grow_bfs_tree(g, root, 2, forbidden=forbidden | {root})
                    assert (held.parent, held.levels) == (without.parent, without.levels)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            grow_bfs_tree(complete_graph(4), 0, -1)

    @pytest.mark.parametrize("root", [-1, 6])
    def test_root_outside_graph_rejected(self, root):
        # a negative root would otherwise read adj[n - 1] and grow a tree
        with pytest.raises(ValueError, match=f"root {root} is not a vertex"):
            grow_bfs_tree(cycle_graph(6), root, 1)

    def test_path_from_root_reaches_each_leaf(self):
        t = grow_bfs_tree(PETERSEN, 0, 2)
        edges = PETERSEN.edges
        for leaf in t.leaves:
            p = t.path_from_root(leaf)
            assert p.vertices[0] == 0 and p.leaf == leaf
            assert len(p.edge_ids) == 2
            for (a, b), eid in zip(zip(p.vertices, p.vertices[1:]), p.edge_ids):
                u, v = edges[eid]
                assert {a, b} == {u, v}

    @given(graphs(min_n=2, max_n=8, force_connected=True),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_plain_growth_matches_bfs_oracle(self, g, depth):
        t = grow_bfs_tree(g, 0, depth)
        edges = g.edges
        want = oracles.bfs_levels(g.n, edges, 0)[:depth + 1]
        assert list(level_sizes(t)) == want + [0] * (depth + 1 - len(want))
        assert (t.root, t.target_depth) == (0, depth)
        # parent edges really exist and depths are parent + 1
        depth_of = depths(t)
        for v, (p, eid) in t.parent.items():
            assert {v, p} == set(edges[eid])
            assert depth_of[v] == depth_of[p] + 1

    @staticmethod
    def same_as_before(g, root, depth, forbidden, d, cutoff):
        """The tree, the scaffold's shortfall verdict at arity d and the hat
        verdict at ``cutoff`` agree with the skip-counting tree they replace."""
        new = grow_bfs_tree(g, root, depth, forbidden=forbidden)
        old = oracles.grow_bfs_tree_before(g, root, depth, min_branching=d, forbidden=forbidden)
        assert new.parent == old.parent
        assert len(new.levels) == depth + 1
        assert depths(new) == old.depth
        assert tuple(v for level in new.levels for v in level) == old.order
        assert new.leaves == old.leaves
        if old.shortfall is None:
            pairing_mod._scaffold_tree(g, root, depth, d, forbidden)
        else:
            with pytest.raises(NoStructure) as exc:
                pairing_mod._scaffold_tree(g, root, depth, d, forbidden)
            assert str(exc.value) == f"tree at {root}: branching shortfall at {old.shortfall}"
        assert pairing_mod._hat_is_bad(g, new, cutoff) == oracles.hat_is_bad_before(old, cutoff)

    def test_hat_verdict_never_reads_the_leaf_level(self):
        # a leaf expands nothing, so reading its level would call every hat
        # bad; at gamma = 0 the hat is its root alone, and at depth 1 under
        # cutoff 2 only the root's edges are judged
        g = complete_graph(4)
        assert not pairing_mod._hat_is_bad(g, grow_bfs_tree(g, 0, 0), 1)
        assert not pairing_mod._hat_is_bad(g, grow_bfs_tree(g, 0, 1), 2)
        assert pairing_mod._hat_is_bad(g, grow_bfs_tree(g, 0, 1, forbidden=frozenset({1, 2})), 2)

    @given(graphs(max_n=12), st.data(), st.integers(min_value=0, max_value=4),
           st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
    @settings(max_examples=300, deadline=None)
    def test_matches_before(self, g, data, depth, d, cutoff):
        root = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        forbidden = data.draw(st.frozensets(st.integers(min_value=0, max_value=g.n - 1)))
        # a drawn set may hold the root, as the scaffold's claimed set does
        self.same_as_before(g, root, depth, forbidden, d, cutoff)

    def test_matches_before_on_witness_trees(self, monkeypatch):
        # every tree build_witness_paths grows on gate 4's r = 5 graph
        g, p = regular_instance()
        grown = []

        def recording(graph, root, depth, forbidden=frozenset()):
            # the scaffold passes its live claimed set, which grows after
            # the call, so the set is recorded as it stood
            grown.append((root, depth, frozenset(forbidden)))
            return grow_bfs_tree(graph, root, depth, forbidden=forbidden)

        monkeypatch.setattr(pairing_mod, "grow_bfs_tree", recording)
        for x, y in sample_pairs(g.n, 40, 12):
            try:
                build_witness_paths(g, x, y, k=p.k, gamma=p.gamma, d=3)
            except NoStructure:
                pass
        monkeypatch.undo()
        cutoff = max(1, -(-p.gamma // 10))
        top = min(cutoff, p.gamma)
        assert top < p.k < p.gamma  # so a tree's depth tells what it is
        # each sampled pair grows both scaffold trees and judges its 2 * 3^k
        # hats at depth top
        hats = [(root, forbidden) for root, depth, forbidden in grown if depth == top]
        assert len(hats) == 40 * 2 * 3 ** p.k
        accepted = [(root, forbidden) for root, forbidden in hats
                    if not oracles.hat_is_bad_before(
                        oracles.grow_bfs_tree_before(g, root, p.gamma, forbidden=forbidden),
                        cutoff)]
        # only the hats the full-depth verdict accepts were grown to gamma
        assert [(root, forbidden) for root, depth, forbidden in grown
                if depth == p.gamma] == accepted
        for root, depth, forbidden in grown:
            if depth == p.k:
                self.same_as_before(g, root, depth, forbidden, 3, cutoff)
        for root, forbidden in hats:
            self.same_as_before(g, root, p.gamma, forbidden, 3, cutoff)


class TestPruneToArity:
    """The prune folded into ``_scaffold_tree``: the d lowest-id children of
    every kept vertex above depth k."""

    @staticmethod
    def scaffold(g, root, k, d):
        return pairing_mod._scaffold_tree(g, root, k, d, frozenset())

    def test_complete_binary_identity(self):
        g, t1, _ = build_tree_pair_graph(2, 3)
        pruned = self.scaffold(g, t1.root, 3, 2)
        assert pruned == t1
        assert pruned.children == t1.children

    def test_k4_keeps_lowest_ids(self):
        pruned = self.scaffold(complete_graph(4), 0, 1, 2)
        assert pruned.children[0] == [1, 2]
        assert pruned.leaves == (1, 2)
        assert pruned.parent == {1: (0, 0), 2: (0, 1)}

    def test_bundle_trees_keep_lowest_ids(self):
        # both bundle trees of gate 4's r = 5 graph keep, at every vertex above
        # depth k, the 3 lowest-id children the unpruned tree offers
        g, p = regular_instance()
        bundle = build_witness_paths(g, 10, 900, k=p.k, gamma=p.gamma, d=3)
        forbidden = frozenset()
        for tree in (bundle.tree_x, bundle.tree_y):
            raw = grow_bfs_tree(g, tree.root, p.k, forbidden=forbidden)
            assert level_sizes(tree) == tuple(3 ** i for i in range(p.k + 1))
            for level in tree.levels[:-1]:
                for v in level:
                    assert tree.children[v] == raw.children[v][:3]
            assert all(tree.parent[v] == raw.parent[v] for v in tree.parent)
            forbidden = frozenset(tree.vertices())

    def test_petersen_insufficient_at_depth_two(self):
        # the depth-1 vertices of Petersen's depth-2 tree have 2 children each
        with pytest.raises(NoStructure, match="branching shortfall at 1$"):
            self.scaffold(PETERSEN, 0, 2, 3)

    def test_result_is_complete_dary(self):
        g = complete_graph(8)
        for d in (1, 2, 3):
            pruned = self.scaffold(g, 0, 1, d)
            assert level_sizes(pruned) == (1, d)
            assert all(len(pruned.children[v]) in (0, d) for v in pruned.vertices())

    def test_bad_arity(self):
        for d in (0, 1):
            with pytest.raises(ValueError, match="scaffold arity"):
                build_witness_paths(complete_graph(4), 0, 3, k=1, gamma=0, d=d)


def brute_max_matching(matrix):
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    best = 0
    for size in range(min(rows, cols), 0, -1):
        for rset in combinations(range(rows), size):
            def extend(idx, used):
                if idx == size:
                    return True
                return any(matrix[rset[idx]][j] and j not in used
                           and extend(idx + 1, used | {j}) for j in range(cols))
            if extend(0, frozenset()):
                return size
    return best


class TestBipartiteMatching:
    def test_complete_3x3(self):
        m = bipartite_matching([[True] * 3 for _ in range(3)])
        assert len(m) == 3

    def test_complete_minus_diagonal(self):
        matrix = [[i != j for j in range(3)] for i in range(3)]
        assert bipartite_matching(matrix) == {(0, 1), (1, 2), (2, 0)}

    def test_all_false(self):
        assert bipartite_matching([[False] * 3 for _ in range(3)]) == set()

    def test_empty(self):
        assert bipartite_matching([]) == set()

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_maximum_and_valid(self, rows, cols, data):
        matrix = [[data.draw(st.booleans()) for _ in range(cols)] for _ in range(rows)]
        m = bipartite_matching(matrix)
        assert all(matrix[i][j] for i, j in m)
        assert len({i for i, _ in m}) == len(m)
        assert len({j for _, j in m}) == len(m)
        assert len(m) == brute_max_matching(matrix)

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9),
           st.sampled_from([0.2, 0.5, 0.9, 1.0]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_same_matching_as_recursive_kuhn(self, rows, cols, density, data):
        matrix = [[data.draw(st.floats(0, 1, exclude_max=True)) < density
                   for _ in range(cols)] for _ in range(rows)]
        assert bipartite_matching(matrix) == oracles.bipartite_matching_before(matrix)

    def test_same_matching_on_dense_leaf_matrices(self):
        # the pairing's own matrices are nearly full, where Kuhn's search
        # paths run through most earlier rows
        for d, ell in ((2, 8), (4, 3), (3, 4)):
            g, t1, t2 = build_tree_pair_graph(d, ell)
            for seed in range(3):
                c = random_rainbow_tree_coloring(g, t1, t2, palette=2 * (g.m // 2), seed=seed)
                cols1, cols2 = ([{c.colors[e] for e in t.path_from_root(v).edge_ids}
                                 for v in t.leaves] for t in (t1, t2))
                matrix = [[a.isdisjoint(b) for b in cols2] for a in cols1]
                assert bipartite_matching(matrix) == oracles.bipartite_matching_before(matrix)


# (d, ell, promised pairs): (d-1)^ell, which the matching lemma proves, and
# 2^(ell//2) for binary trees, a claim each call checks
FLOOR_CASES = [(3, 1, 2), (3, 2, 4), (3, 3, 8), (4, 1, 3), (4, 2, 9),
               (2, 2, 2), (2, 3, 2), (2, 4, 4), (2, 6, 8)]

# (d, ell) of the tree pairs whose pairings are pinned and compared
PAIRING_GRID = [(2, ell) for ell in range(1, 7)] + [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]

# (ell, palette per tree edge, seed) of binary colorings on which the
# per-level recursion's two-level round matched one branch pair below its
# floor of two: two from palettes of one per-tree edge count, and trial 299
# of ``lemcol_stress --d 2 --ell 6 --trials 300 --seed 0``
RECORDED_BINARY = [(3, 1, 213), (4, 1, 218), (6, 2, derive_seed(0, "lemcol_stress:2", 299))]


def assert_rainbow_pairs(res, t1, t2, c):
    """Each pair runs root to leaf in its tree, its union is rainbow, and no
    leaf is used twice on one side."""
    for p1, p2 in res.pairs:
        cols = [c.colors[e] for e in p1.edge_ids + p2.edge_ids]
        assert len(set(cols)) == len(cols)
        assert p1.vertices[0] == t1.root and p1.leaf in t1.leaves
        assert p2.vertices[0] == t2.root and p2.leaf in t2.leaves
    for side in (0, 1):
        leaves = [pair[side].leaf for pair in res.pairs]
        assert len(leaves) == len(set(leaves))


class TestPairTreePaths:
    def test_disjoint_palettes_full_pairing(self):
        g, t1, t2 = build_tree_pair_graph(3, 1)
        c = EdgeColoring(tuple(range(g.m)), g.m, ("random",) * g.m)
        res = pair_tree_paths(t1, t2, c)
        assert len(res.pairs) == 3

    def test_identical_palettes_minus_diagonal(self):
        g, t1, t2 = build_tree_pair_graph(3, 1)
        half = g.m // 2
        c = EdgeColoring(tuple(range(half)) * 2, half, ("random",) * g.m)
        res = pair_tree_paths(t1, t2, c)
        assert len(res.pairs) == 3

    @pytest.mark.parametrize("d,ell,floor", FLOOR_CASES,
                             ids=[f"{d}-{ell}" for d, ell, _ in FLOOR_CASES])
    def test_random_rainbow_floor(self, d, ell, floor):
        g, t1, t2 = build_tree_pair_graph(d, ell)
        per_tree = len(t1.edge_ids())
        for seed in range(200):
            c = random_rainbow_tree_coloring(g, t1, t2, palette=2 * per_tree, seed=seed)
            res = pair_tree_paths(t1, t2, c)
            assert res.floor == floor
            assert len(res.pairs) >= floor
            assert_rainbow_pairs(res, t1, t2, c)

    @pytest.mark.parametrize("d,ell", [(2, 10), (4, 5)])
    def test_thousand_leaf_trees_pair_quickly(self, d, ell):
        # 1024 leaves a side: the search path for a late leaf runs through
        # most earlier ones, deeper than the default recursion limit; the
        # per-level recursion this matching replaced took 0.03 s here
        g, t1, t2 = build_tree_pair_graph(d, ell)
        c = random_rainbow_tree_coloring(g, t1, t2, palette=2 * (g.m // 2), seed=0)
        t0 = time.perf_counter()
        res = pair_tree_paths(t1, t2, c)
        elapsed = time.perf_counter() - t0
        assert len(res.pairs) >= res.floor
        assert len(res.pairs) == len(t1.leaves) == 1024
        assert_rainbow_pairs(res, t1, t2, c)
        assert elapsed < 10.0, f"pairing 1024 leaves took {elapsed:.1f} s"

    def test_leaves_never_reused(self):
        g, t1, t2 = build_tree_pair_graph(3, 2)
        c = random_rainbow_tree_coloring(g, t1, t2, palette=24, seed=7)
        res = pair_tree_paths(t1, t2, c)
        for side, tree in ((0, t1), (1, t2)):
            leaves = [pair[side].leaf for pair in res.pairs]
            assert len(leaves) == len(set(leaves))

    def test_non_rainbow_input_rejected(self):
        g, t1, t2 = build_tree_pair_graph(3, 2)
        c = EdgeColoring((0,) * g.m, 4, ("random",) * g.m)
        with pytest.raises(GuaranteeViolation):
            pair_tree_paths(t1, t2, c)

    @pytest.mark.parametrize("matched, msg", [
        ({(0, 3), (0, 6), (1, 4), (3, 0)}, "leaf reused"),
        ({(0, 3), (6, 3), (1, 4), (3, 0)}, "leaf reused"),
        ({(0, 0), (1, 1), (2, 2), (3, 3)}, "share a color"),
    ])
    def test_post_check_catches_a_broken_matching(self, monkeypatch, matched, msg):
        # identical palettes: leaves i and j share a root path color exactly
        # when they hang off the same root child, i // 3 == j // 3
        g, t1, t2 = build_tree_pair_graph(3, 2)
        half = g.m // 2
        c = EdgeColoring(tuple(range(half)) * 2, half, ("random",) * g.m)
        monkeypatch.setattr(pairing_mod, "bipartite_matching", lambda matrix: matched)
        with pytest.raises(GuaranteeViolation, match=msg):
            pair_tree_paths(t1, t2, c)

    def test_structure_violations(self):
        g, t1, t2 = build_tree_pair_graph(3, 1)
        c = EdgeColoring(tuple(range(g.m)), g.m, ("random",) * g.m)
        with pytest.raises(ValueError):
            pair_tree_paths(t1, t1, c)  # not vertex-disjoint
        g2, _, b2 = build_tree_pair_graph(2, 1)
        with pytest.raises(ValueError):
            pair_tree_paths(b2, b2, EdgeColoring(tuple(range(g2.m)), g2.m,
                                                 ("random",) * g2.m))
        for d, ell in ((1, 2), (3, 0)):  # unary trees, depth-0 trees
            g3, u1, u2 = build_tree_pair_graph(d, ell)
            c3 = EdgeColoring(tuple(range(g3.m)), g3.m, ("random",) * g3.m)
            with pytest.raises(ValueError, match="arity >= 2"):
                pair_tree_paths(u1, u2, c3)

    def test_wrong_arity_rejected(self):
        # a ternary tree against a binary one, or against one that is
        # ternary only at its root
        g, t1, t2 = build_tree_pair_graph(3, 2)
        c = EdgeColoring(tuple(range(g.m)), g.m, ("random",) * g.m)
        binary = pairing_mod._scaffold_tree(g, t2.root, 2, 2, frozenset())
        with pytest.raises(ValueError, match="tree arities 3 and 2 differ"):
            pair_tree_paths(t1, binary, c)
        with pytest.raises(ValueError, match="tree arities 2 and 3 differ"):
            pair_tree_paths(binary, t1, c)
        ragged = grow_bfs_tree(g, t2.root, 2, forbidden=frozenset({t2.root + 4}))
        with pytest.raises(ValueError, match="expected exactly 3"):
            pair_tree_paths(t1, ragged, c)

    def test_isolated_branch_still_leaves_matching(self):
        # one branch of T1 holds every root color of T2, so each path
        # through it shares a color with some root branch of T2; the
        # (d-1)^ell pairs must survive regardless
        g, t1, t2 = build_tree_pair_graph(3, 2)
        per_tree = len(t1.edge_ids())
        c = random_rainbow_tree_coloring(g, t1, t2, palette=2 * per_tree, seed=21)
        branch = t1.children[t1.root][2]
        swallowed = {c.colors[t1.parent[v][1]] for v in [branch] + t1.children[branch]}
        assert {c.colors[t2.parent[w][1]] for w in t2.children[t2.root]} <= swallowed
        assert len(pair_tree_paths(t1, t2, c).pairs) >= 4

    def test_pinned_pairing_digest(self):
        # Every pair (vertices and edge ids) over 6600 rainbow colorings,
        # hashed.  The digest was taken from the one leaf matching; none of
        # these colorings falls below its floor.
        h = hashlib.sha256()
        for d, ell in PAIRING_GRID:
            g, t1, t2 = build_tree_pair_graph(d, ell)
            per_tree = len(t1.edge_ids())
            for mult in (1, 2):
                for seed in range(300):
                    c = random_rainbow_tree_coloring(g, t1, t2, palette=mult * per_tree,
                                                     seed=seed)
                    try:
                        res = pair_tree_paths(t1, t2, c)
                    except GuaranteeViolation:
                        h.update(b"violation;")
                        continue
                    for p1, p2 in res.pairs:
                        h.update(repr((p1.vertices, p1.edge_ids,
                                       p2.vertices, p2.edge_ids)).encode())
                    h.update(b";")
        assert h.hexdigest() == (
            "21bf054a19606830a034ee5aa5ecbe80b2a226a4ee6be2379919c4d7052f531c")


    def test_at_least_the_recursion_and_exactly_the_maximum(self):
        # differential against the per-level recursion the leaf matching
        # replaced, wherever that recursion met its floors, and exact
        # against the exhaustive maximum where a side has at most 9 leaves
        compared = exact = 0
        for d, ell in PAIRING_GRID:
            g, t1, t2 = build_tree_pair_graph(d, ell)
            per_tree = len(t1.edge_ids())
            for mult in (1, 2):
                for seed in range(100):
                    c = random_rainbow_tree_coloring(g, t1, t2, palette=mult * per_tree,
                                                     seed=seed)
                    res = pair_tree_paths(t1, t2, c)
                    assert_rainbow_pairs(res, t1, t2, c)
                    try:
                        before = oracles.pair_tree_paths_before(t1, t2, c)
                    except GuaranteeViolation:
                        pass
                    else:
                        compared += 1
                        assert len(res.pairs) >= len(before)
                    if len(t1.leaves) <= 9:
                        exact += 1
                        assert len(res.pairs) == oracles.max_leaf_pairs(t1, t2, c)
        assert (compared, exact) == (2200, 1200)

    @pytest.mark.parametrize("ell,mult,seed", RECORDED_BINARY,
                             ids=["depth3-seed213", "depth4-seed218", "lemcol-trial299"])
    def test_recorded_binary_counterexamples_meet_floor(self, ell, mult, seed):
        g, t1, t2 = build_tree_pair_graph(2, ell)
        c = random_rainbow_tree_coloring(g, t1, t2, palette=mult * len(t1.edge_ids()),
                                         seed=seed)
        with pytest.raises(GuaranteeViolation, match="matching of size 1 < 2"):
            oracles.pair_tree_paths_before(t1, t2, c)
        res = pair_tree_paths(t1, t2, c)
        assert res.floor == pairing_floor(2, ell)
        assert len(res.pairs) >= res.floor
        assert_rainbow_pairs(res, t1, t2, c)
        if len(t1.leaves) <= 9:
            assert len(res.pairs) == oracles.max_leaf_pairs(t1, t2, c)


class TestPairTreePathsBinary:
    """d = 2: the same leaf matching, against the checked floor 2^(ell//2)."""

    def test_depth2_disjoint_palettes(self):
        g, t1, t2 = build_tree_pair_graph(2, 2)
        c = EdgeColoring(tuple(range(g.m)), g.m, ("random",) * g.m)
        res = pair_tree_paths(t1, t2, c)
        assert res.floor == 2
        assert len(res.pairs) == 4

    def test_depth2_identical_colorings(self):
        g, t1, t2 = build_tree_pair_graph(2, 2)
        half = g.m // 2
        c = EdgeColoring(tuple(range(half)) * 2, half, ("random",) * g.m)
        res = pair_tree_paths(t1, t2, c)
        assert len(res.pairs) == 4

    def test_non_rainbow_rejected(self):
        g, t1, t2 = build_tree_pair_graph(2, 2)
        c = EdgeColoring((0,) * g.m, 3, ("random",) * g.m)
        with pytest.raises(GuaranteeViolation):
            pair_tree_paths(t1, t2, c)


def find_structured_pair(g, p, d, candidates):
    for x, y in candidates:
        try:
            return x, y, build_witness_paths(g, x, y, k=p.k, gamma=p.gamma, d=d)
        except NoStructure:
            continue
    raise AssertionError("no candidate pair produced a bundle")


def matched_joins(g, c, bundle):
    """(vertices, edge ids) of each matched leaf pair's x..y join under c,
    for the pairs with both hanging trees and a connector; colors unchecked."""
    joins = []
    for px, py in pair_tree_paths(bundle.tree_x, bundle.tree_y, c).pairs:
        conn = pairing_mod._find_connector(g, bundle.hats_x[px.leaf], bundle.hats_y[py.leaf])
        if conn is not None:
            joins.append(pairing_mod._join(px, conn, py))
    return joins


class TestBuildWitnessPaths:
    def test_bundle_invariants_on_regular_graph(self):
        g, p = regular_instance()
        edges = g.edges
        c = EdgeColoring(tuple(range(g.m)), g.m, ("random",) * g.m)
        n_joins = 0
        for x, y in [(10, 900), (10, 1100), (20, 1500), (3, 777)]:
            bundle = build_witness_paths(g, x, y, k=p.k, gamma=p.gamma, d=3)
            tree_edges = set(bundle.tree_x.edge_ids()) | set(bundle.tree_y.edge_ids())
            seen_outside: set[int] = set()
            for verts, eids in matched_joins(g, c, bundle):
                n_joins += 1
                assert verts[0] == x and verts[-1] == y
                assert len(verts) == len(eids) + 1
                assert len(eids) <= 2 * p.k + 2 * bundle.gamma + 1
                for (a, b), eid in zip(zip(verts, verts[1:]), eids):
                    assert {a, b} == set(edges[eid])
                outside = set(eids) - tree_edges
                assert not outside & seen_outside  # edge-disjoint beyond the scaffold
                seen_outside |= outside
        assert n_joins

    def test_trees_and_hats_disjoint(self):
        g, p = regular_instance()
        _, _, bundle = find_structured_pair(
            g, p, 3, [(10, 900), (10, 1100), (20, 1500), (3, 777)])
        vx, vy = bundle.tree_x.vertices(), bundle.tree_y.vertices()
        assert not vx & vy
        claimed = vx | vy
        for hats in (bundle.hats_x, bundle.hats_y):
            for leaf, hat in hats.items():
                if hat is None:
                    continue
                assert hat.root == leaf
                overlap = hat.vertices() & claimed
                assert overlap == {hat.root}
                claimed |= hat.vertices()

    def test_diagnostics_consistent(self):
        g, p = regular_instance()
        _, _, bundle = find_structured_pair(
            g, p, 3, [(10, 900), (10, 1100), (20, 1500), (3, 777)])
        text = bundle_text(bundle)
        fields = dict(line.split("=", 1) for line in text.strip().splitlines())
        assert list(fields) == ["x", "y", "d", "k", "gamma", "levels_x", "levels_y",
                                "excluded_x", "excluded_y"]
        assert (fields["x"], fields["y"]) == ("10", "900")
        assert (fields["d"], fields["k"], fields["gamma"]) == ("3", str(p.k), str(p.gamma))
        assert fields["levels_x"] == fields["levels_y"] == "1,3,9"
        assert int(fields["excluded_x"]) == sum(h is None for h in bundle.hats_x.values())
        assert int(fields["excluded_y"]) == sum(h is None for h in bundle.hats_y.values())

    def test_determinism(self):
        g, p = regular_instance()
        x, y, bundle = find_structured_pair(
            g, p, 3, [(10, 900), (10, 1100), (20, 1500), (3, 777)])
        again = build_witness_paths(g, x, y, k=p.k, gamma=p.gamma, d=3)
        assert (again.hats_x, again.hats_y) == (bundle.hats_x, bundle.hats_y)
        assert bundle_text(again) == bundle_text(bundle)

    def test_hats_keyed_by_leaf_in_order(self):
        g, p = regular_instance()
        for x, y in [(10, 900), (1, 900), (3, 777), (26, 384)]:
            bundle = build_witness_paths(g, x, y, k=p.k, gamma=p.gamma, d=3)
            assert tuple(bundle.hats_x) == bundle.tree_x.leaves
            assert tuple(bundle.hats_y) == bundle.tree_y.leaves

    def test_tree_input_has_no_structure(self):
        g = path_graph(30)
        with pytest.raises(NoStructure):
            build_witness_paths(g, 0, 29, k=2, gamma=2, d=2)

    def test_target_inside_source_tree(self):
        g, p = regular_instance()
        neighbor = g.adj[10][0][0]
        with pytest.raises(NoStructure):
            build_witness_paths(g, 10, neighbor, k=p.k, gamma=p.gamma, d=3)

    def test_same_endpoints_rejected(self):
        g, p = regular_instance()
        with pytest.raises(ValueError):
            build_witness_paths(g, 5, 5, k=p.k, gamma=p.gamma, d=3)


class TestRainbowWitness:
    def test_distinct_coloring_first_candidate_wins(self):
        # (3, 777) keeps enough unexcluded leaves for a matched pair to land
        g, p = regular_instance()
        bundle = build_witness_paths(g, 3, 777, k=p.k, gamma=p.gamma, d=3)
        c = EdgeColoring(tuple(range(g.m)), g.m, ("random",) * g.m)
        w = rainbow_witness(g, c, 3, 777, bundle)
        assert w is not None
        assert witness_ok(g, c, w)
        assert w.vertices[0] == 3 and w.vertices[-1] == 777
        assert w.length <= 2 * p.k + 2 * bundle.gamma + 1

    def test_matched_pairs_can_all_miss_surviving_leaves(self):
        # heavy leaf exclusion can leave the matching with no usable pair
        # even under distinct colors; None here is honest, not a failure
        g, p = regular_instance()
        bundle = build_witness_paths(g, 10, 900, k=p.k, gamma=p.gamma, d=3)
        c = EdgeColoring(tuple(range(g.m)), g.m, ("random",) * g.m)
        assert rainbow_witness(g, c, 10, 900, bundle) is None

    @pytest.mark.parametrize("coloring", ["distinct", "greedy"])
    def test_matched_pairs_decide_alone(self, coloring):
        # the i-th x leaf and the i-th y leaf never both keep a hat here,
        # yet two matched leaf pairs have a connector and give a witness
        g, p = regular_instance()
        bundle = build_witness_paths(g, 26, 384, k=p.k, gamma=p.gamma, d=3)
        if coloring == "distinct":
            c = EdgeColoring(tuple(range(g.m)), g.m, ("random",) * g.m)
        else:
            c = color_greedy_power(g, radius=2 * p.k, q=p.q, seed=1)
        w = rainbow_witness(g, c, 26, 384, bundle)
        assert w is not None and w.length == 13
        assert witness_ok(g, c, w)
        assert (w.vertices[0], w.vertices[-1]) == (26, 384)

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_side_without_hats_skips_the_pairing(self, side, monkeypatch):
        # (1, 900) excludes every leaf of y's tree; (3, 777), whose x side
        # is stripped of its hats here, keeps hats on y's side.  Either way
        # no matched pair can get a connector, so no pairing is run.
        g, p = regular_instance()
        if side == "y":
            bundle = build_witness_paths(g, 1, 900, k=p.k, gamma=p.gamma, d=3)
            excluded_x = sum(h is None for h in bundle.hats_x.values())
            assert sum(h is None for h in bundle.hats_y.values()) == len(bundle.hats_y) > excluded_x
        else:
            bundle = build_witness_paths(g, 3, 777, k=p.k, gamma=p.gamma, d=3)
            assert sum(h is None for h in bundle.hats_y.values()) < len(bundle.hats_y)
            bundle.hats_x = dict.fromkeys(bundle.hats_x)
        x, y = bundle.tree_x.root, bundle.tree_y.root

        def no_pairing(*args):
            pytest.fail("pair_tree_paths ran on a bundle with a side of excluded leaves")

        monkeypatch.setattr(pairing_mod, "pair_tree_paths", no_pairing)
        c = EdgeColoring(tuple(range(g.m)), g.m, ("random",) * g.m)
        assert rainbow_witness(g, c, x, y, bundle) is None

    def test_single_color_yields_nothing(self):
        g, p = regular_instance()
        x, y, bundle = find_structured_pair(
            g, p, 3, [(10, 900), (10, 1100), (20, 1500), (3, 777)])
        c = EdgeColoring((0,) * g.m, 1, ("random",) * g.m)
        assert rainbow_witness(g, c, x, y, bundle) is None

    def test_broken_pairing_raises(self, monkeypatch):
        # both trees are rainbow, so a matching below its floor means the
        # pairing broke: it must surface, not read as "no witness here"
        g, p = regular_instance()
        bundle = build_witness_paths(g, 3, 777, k=p.k, gamma=p.gamma, d=3)
        c = EdgeColoring(tuple(range(g.m)), g.m, ("random",) * g.m)
        monkeypatch.setattr(pairing_mod, "pairing_floor", lambda d, depth: 10 ** 9)
        with pytest.raises(GuaranteeViolation, match="floor is 1000000000"):
            rainbow_witness(g, c, 3, 777, bundle)

    def test_broken_composition_raises(self, monkeypatch):
        # a rainbow composition that is not a path means the scaffold is
        # broken: it must surface, not read as "no witness here"
        g, p = regular_instance()
        bundle = build_witness_paths(g, 3, 777, k=p.k, gamma=p.gamma, d=3)
        c = EdgeColoring(tuple(range(g.m)), g.m, ("random",) * g.m)
        tree_edges = set(bundle.tree_x.edge_ids()) | set(bundle.tree_y.edge_ids())
        edges = g.edges
        real = pairing_mod._find_connector

        def corrupt(graph, hx, hy):
            conn = real(graph, hx, hy)
            if conn is None:
                return None
            verts, eids = conn
            stray = next(e for e in range(g.m)
                         if not set(edges[e]) & set(verts) and e not in tree_edges)
            return verts, eids[:-1] + (stray,)

        monkeypatch.setattr(pairing_mod, "_find_connector", corrupt)
        with pytest.raises(GuaranteeViolation, match="not a rainbow path"):
            rainbow_witness(g, c, 3, 777, bundle)

    def test_wrong_pair_bundle_raises(self):
        # a valid rainbow path between the wrong vertices is no witness for (x, y)
        g, p = regular_instance()
        bundle = build_witness_paths(g, 3, 777, k=p.k, gamma=p.gamma, d=3)
        c = EdgeColoring(tuple(range(g.m)), g.m, ("random",) * g.m)
        assert rainbow_witness(g, c, 3, 777, bundle) is not None
        with pytest.raises(GuaranteeViolation, match="not 3..900"):
            rainbow_witness(g, c, 3, 900, bundle)

    def test_greedy_coloring_sound(self):
        g, p = regular_instance()
        c = color_greedy_power(g, radius=2 * p.k, q=p.q, seed=0)
        x, y, bundle = find_structured_pair(
            g, p, 3, [(10, 900), (10, 1100), (20, 1500), (3, 777)])
        w = rainbow_witness(g, c, x, y, bundle)
        if w is not None:
            assert witness_ok(g, c, w)
            assert w.vertices[0] == x and w.vertices[-1] == y


class TestWitnessViaTrees:
    def test_close_pair_direct_path(self):
        g = path_graph(5)
        c = EdgeColoring(tuple(range(4)), 4, ("random",) * 4)
        w = witness_via_trees(g, c, 0, 2, k=1, gamma=1, d=2)
        assert w is not None and w.vertices == (0, 1, 2)

    def test_disconnected_none(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        c = EdgeColoring((0, 1), 2, ("random",) * 2)
        assert witness_via_trees(g, c, 0, 3, k=1, gamma=1, d=2) is None

    def test_no_structure_falls_back_to_none(self):
        g = path_graph(30)
        c = EdgeColoring(tuple(range(29)), 29, ("random",) * 29)
        assert witness_via_trees(g, c, 0, 29, k=2, gamma=2, d=2) is None

    @pytest.mark.parametrize("x, y", [(3, 900), (3, 777), (10, 5), (10, 278)],
                             ids=["far", "close", "close_10_5", "inside_tree"])
    @pytest.mark.parametrize("k, gamma, d, msg", [(2, 3, 1, "arity d=1"),
                                                  (0, 3, 3, "depth k=0"),
                                                  (2, -1, 3, "gamma=-1")],
                             ids=["d1", "k0", "gamma"])
    def test_unusable_scaffold_rejected(self, x, y, k, gamma, d, msg):
        # the pairing needs k >= 1, gamma >= 0 and d >= 2: neither the
        # close-pair shortcut nor a y inside x's depth-k tree (278 in the
        # tree of 10) may answer for a shape the far-pair route rejects
        g, p = regular_instance()
        c = EdgeColoring(tuple(range(g.m)), g.m, ("random",) * g.m)
        with pytest.raises(ValueError, match=msg):
            witness_via_trees(g, c, x, y, k=k, gamma=gamma, d=d)
        with pytest.raises(ValueError, match=msg):
            build_witness_paths(g, x, y, k=k, gamma=gamma, d=d)

    def test_every_witness_is_rechecked(self, monkeypatch):
        # close pairs (the shortest-path shortcut) and bundle pairs alike
        # return only witnesses that went through verify.witness_ok
        g, p = regular_instance()
        c = color_greedy_power(g, radius=2 * p.k, q=p.q, seed=0)
        checked = []
        real = verify_mod.witness_ok

        def spy(g_, c_, w):
            checked.append(w)
            return real(g_, c_, w)

        monkeypatch.setattr(verify_mod, "witness_ok", spy)
        found = {"close": 0, "far": 0}
        for x, y in sample_pairs(g.n, 60, 0):
            w = witness_via_trees(g, c, x, y, k=p.k, gamma=p.gamma, d=3)
            if w is None:
                continue
            assert any(w is seen for seen in checked)
            found["close" if bfs_distances(g, x)[y] <= 2 * p.k + 1 else "far"] += 1
        assert found["close"] and found["far"]

    @given(st.one_of(graphs(min_n=1, max_n=12), sparse_graphs(max_n=12)), st.data())
    @example(path_graph(4), None)                        # 2k + 1 apart: the shortcut
    @example(path_graph(5), None)                        # 2k + 2 apart: the scaffold
    @example(graph_from_edges(5, [(0, 1), (1, 2), (3, 4)]), None)   # y unreachable
    @settings(max_examples=300, deadline=None)
    def test_matches_the_full_bfs_before(self, g, data):
        # the dense graphs give close pairs and scaffolds that grow; the
        # sparse ones isolated vertices, several components and pairs on
        # both sides of 2k + 1 apart, for k this small.  A graph on one
        # vertex has no valid k, so both refuse it
        if data is None:
            x, y, k, gamma, d = 0, g.n - 1, 1, 1, 2
            c = EdgeColoring(tuple(range(g.m)), g.m, ("random",) * g.m)
        else:
            vertex = st.integers(min_value=0, max_value=g.n - 1)
            x, y = data.draw(vertex, label="x"), data.draw(vertex, label="y")
            k = data.draw(st.integers(min_value=1, max_value=max(1, min(2, g.n - 1))), label="k")
            gamma = data.draw(st.integers(min_value=0, max_value=min(3, g.n - 1)), label="gamma")
            d = data.draw(st.integers(min_value=2, max_value=3), label="d")
            palette = data.draw(st.integers(min_value=1, max_value=max(1, g.m)), label="palette")
            colors = data.draw(st.lists(st.integers(min_value=0, max_value=palette - 1),
                                        min_size=g.m, max_size=g.m), label="colors")
            c = EdgeColoring(tuple(colors), palette, ("random",) * g.m)
        want = outcome(oracles.witness_via_trees_before, g, c, x, y, k, gamma, d)
        assert outcome(witness_via_trees, g, c, x, y, k=k, gamma=gamma, d=d) == want

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_matches_the_full_bfs_before_on_gate4(self, r):
        # gate 4's greedy colorings; d = r - 2 as the regular queries take
        # it, and 2 at r = 3.  Close pairs, far pairs and tree witnesses
        # all occur at r = 4 and 5
        g, p = regular_instance(r)
        c = color_greedy_power(g, radius=2 * p.k, q=p.q, seed=1)
        d = max(2, r - 2)
        seen = {"close": 0, "far": 0, "found": 0}
        for x, y in sample_pairs(g.n, 150, r):
            w = witness_via_trees(g, c, x, y, k=p.k, gamma=p.gamma, d=d)
            assert w == oracles.witness_via_trees_before(g, c, x, y, p.k, p.gamma, d)
            seen["close" if bfs_distances(g, x)[y] <= 2 * p.k + 1 else "far"] += 1
            seen["found"] += w is not None
        if r > 3:
            assert all(seen.values()), seen

    def test_unreachable_y_beyond_the_stop_is_none(self, monkeypatch):
        # x's component, a complete binary tree of depth 4, is deeper than
        # 2k + 1 = 3, so the BFS stops at level 3 with y unlabelled, as for
        # a far pair.  Both scaffold trees and their hats grow, in two
        # components, and no edge joins the hats
        g, t1, t2 = build_tree_pair_graph(2, 4)
        x, y = t1.root, t2.root
        c = EdgeColoring(tuple(range(g.m)), g.m, ("random",) * g.m)
        swept, bundles = [], []
        real_bfs, real_join = pairing_mod.bfs_distances, pairing_mod.rainbow_witness

        def bfs_spy(*args, **kwargs):
            swept.append(real_bfs(*args, **kwargs))
            return swept[-1]

        def join_spy(g_, c_, x_, y_, bundle):
            bundles.append(bundle)
            return real_join(g_, c_, x_, y_, bundle)

        monkeypatch.setattr(pairing_mod, "bfs_distances", bfs_spy)
        monkeypatch.setattr(pairing_mod, "rainbow_witness", join_spy)
        assert witness_via_trees(g, c, x, y, k=1, gamma=1, d=2) is None
        (dist,) = swept
        assert dist.max() == 3 and dist[y] == -1
        (bundle,) = bundles
        assert all(bundle.hats_x.values()) and all(bundle.hats_y.values())

    def test_regular_graph_success_and_soundness(self):
        g, p = regular_instance()
        c = color_greedy_power(g, radius=2 * p.k, q=p.q, seed=0)
        found = 0
        for x, y in [(10, 900), (10, 1100), (20, 1500), (3, 777), (0, 999)]:
            w = witness_via_trees(g, c, x, y, k=p.k, gamma=p.gamma, d=3)
            if w is not None:
                found += 1
                assert witness_ok(g, c, w)
        assert found >= 1


@pytest.mark.parametrize("build", ["witness_via_trees", "build_witness_paths"])
@pytest.mark.parametrize("x, y, name, bad", [(-1, 2, "x", -1), (6, 2, "x", 6),
                                             (2, -1, "y", -1), (2, 6, "y", 6)],
                         ids=["x-1", "x_n", "y-1", "y_n"])
def test_vertex_outside_graph_rejected(build, x, y, name, bad):
    # witness_via_trees(g, c, 2, -1, ...) raised GuaranteeViolation, and a
    # tree grown from -1 read vertex n - 1's neighbors
    g = cycle_graph(6)
    c = EdgeColoring(tuple(range(g.m)), g.m, ("random",) * g.m)
    msg = f"^{name} {bad} is not a vertex of a graph on 6 vertices$"
    with pytest.raises(ValueError, match=msg):
        if build == "witness_via_trees":
            witness_via_trees(g, c, x, y, k=1, gamma=1, d=2)
        else:
            build_witness_paths(g, x, y, k=1, gamma=1, d=2)


@pytest.mark.parametrize("build", ["witness_via_trees", "build_witness_paths"])
@pytest.mark.parametrize("k, gamma, msg",
                         [(6, 1, "scaffold depth k=6 reaches n=6"),
                          (1, 6, "hanging depth gamma=6 reaches n=6"),
                          (10 ** 8, 1, "scaffold depth k=100000000 reaches n=6")],
                         ids=["k_n", "gamma_n", "k_huge"])
def test_depth_of_n_rejected(build, k, gamma, msg):
    # no tree on n vertices is n deep; a depth of 10**8 grew 10**8 empty levels
    g = cycle_graph(6)
    c = EdgeColoring(tuple(range(g.m)), g.m, ("random",) * g.m)
    with pytest.raises(ValueError, match=f"^{msg}; no tree is that deep$"):
        if build == "witness_via_trees":
            witness_via_trees(g, c, 0, 3, k=k, gamma=gamma, d=2)
        else:
            build_witness_paths(g, 0, 3, k=k, gamma=gamma, d=2)


def test_depth_n_minus_1_accepted():
    g = cycle_graph(6)
    c = EdgeColoring(tuple(range(g.m)), g.m, ("random",) * g.m)
    assert witness_via_trees(g, c, 0, 3, k=5, gamma=5, d=2).vertices in ((0, 1, 2, 3),
                                                                       (0, 5, 4, 3))


@pytest.mark.parametrize("m", [2, 9])
def test_coloring_of_wrong_length_rejected(m):
    # too short once raised IndexError; too long was accepted silently
    g = cycle_graph(6)
    c = EdgeColoring(tuple(range(m)), m, ("random",) * m)
    msg = f"coloring colors {m} edges but the graph has 6"
    with pytest.raises(ValueError, match=msg):
        witness_via_trees(g, c, 0, 3, k=1, gamma=1, d=2)
    bundle = build_witness_paths(g, 0, 3, k=1, gamma=1, d=2)
    with pytest.raises(ValueError, match=msg):
        rainbow_witness(g, c, 0, 3, bundle)


class TestFixtures:
    def test_tree_pair_graph_shape(self):
        g, t1, t2 = build_tree_pair_graph(3, 2)
        assert g.n == 26 and g.m == 24
        assert level_sizes(t1) == level_sizes(t2) == (1, 3, 9)
        assert not t1.vertices() & t2.vertices()

    def test_rainbow_coloring_distinct_per_tree(self):
        g, t1, t2 = build_tree_pair_graph(3, 3)
        c = random_rainbow_tree_coloring(g, t1, t2, palette=50, seed=9)
        for t in (t1, t2):
            cols = [c.colors[e] for e in t.edge_ids()]
            assert len(cols) == len(set(cols))
        assert random_rainbow_tree_coloring(g, t1, t2, palette=50, seed=9) == c

    def test_palette_floor(self):
        g, t1, t2 = build_tree_pair_graph(2, 3)
        with pytest.raises(ValueError):
            random_rainbow_tree_coloring(g, t1, t2, palette=5)
