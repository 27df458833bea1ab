import gc
import hashlib
import math
import re
from itertools import combinations, islice, zip_longest
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbowconn import graphs as graphs_mod
from rainbowconn.coloring import color_threshold, threshold_params
from rainbowconn.errors import GenerationExhausted, ParityError
from rainbowconn.experiment import ExperimentConfig, run_experiment
from rainbowconn.graphs import (AMBIGUOUS, GenParams, Graph, bfs_distances,
                                bfs_levels, check_gnp_params, check_regular_params,
                                complete_graph, connected, corridor_distances,
                                cycle_graph, degree_stats, diameter, gen_gnp,
                                gen_regular_config, graph_from_edges,
                                neighborhood_cycle, path_graph, petersen_graph,
                                read_edge_list, star_graph, write_edge_list)
from rainbowconn.rng import derive_seed
from rainbowconn.verify import rainbow_path_search, sample_pairs

import oracles
from strategies import forests, graphs, sparse_graphs


def rejected(n, edges) -> str:
    with pytest.raises(ValueError) as exc:
        Graph(n, edges)
    return str(exc.value)


class TestGraphForm:
    def test_rejects_loops(self):
        assert rejected(3, [(1, 1)]) == "edge (1, 1) violates 0 <= u < v < n=3"

    def test_rejects_duplicates(self):
        assert rejected(3, [(0, 1), (0, 1)]) == "edge list not sorted/deduplicated at (0, 1)"

    def test_rejects_reversed_pair(self):
        assert rejected(3, [(1, 0)]) == "edge (1, 0) violates 0 <= u < v < n=3"

    def test_rejects_unsorted_edges(self):
        assert rejected(4, [(1, 2), (0, 3)]) == "edge list not sorted/deduplicated at (0, 3)"

    def test_rejects_out_of_range(self):
        assert rejected(3, [(0, 1), (1, 3)]) == "edge (1, 3) violates 0 <= u < v < n=3"
        assert rejected(3, [(-1, 2)]) == "edge (-1, 2) violates 0 <= u < v < n=3"
        assert rejected(-1, []) == "n must be nonnegative"

    @given(st.integers(0, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=8))))
    @settings(max_examples=200)
    def test_first_violation_matches_edge_by_edge_check(self, case):
        # the vectorized check names the same first bad edge as the loop it replaced
        n, edges = case
        want = oracles.canonical_violation(n, edges)
        if want is None:
            assert Graph(n, edges).edges == tuple(edges)
        else:
            assert rejected(n, edges) == want

    def test_graph_from_edges_normalizes(self):
        g = graph_from_edges(4, [(3, 0), (2, 1)])
        assert g.edges == ((0, 3), (1, 2))

    @pytest.mark.parametrize("pairs,msg", [
        ([(1, 0), (0, 1)], "edge list not sorted/deduplicated at (0, 1)"),
        ([(0, 1), (2, 2)], "edge (2, 2) violates 0 <= u < v < n=3"),
    ])
    def test_graph_from_edges_refuses_with_constructor_message(self, pairs, msg):
        # after normalizing, a repeated pair or a loop is the constructor's to refuse
        with pytest.raises(ValueError) as exc:
            graph_from_edges(3, pairs)
        assert str(exc.value) == msg

    def test_adjacency_sorted_with_ids(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 3)])
        assert g.adj[0] == ((1, 0), (2, 1), (3, 2))
        assert g.adj[3] == ((0, 2), (1, 3))

    def test_edge_id_lookup(self):
        for g in (complete_graph(4), Graph(6, [(0, 2), (0, 5), (1, 2), (2, 4)]),
                  Graph(1, []), petersen_graph()):
            ids = {e: i for i, e in enumerate(g.edges)}
            for eid, (u, v) in enumerate(g.edges):
                assert g.edge_id(u, v) == eid
                assert g.edge_id(v, u) == eid
                assert type(g.edge_id(u, v)) is int
            # absent, reversed, self and out-of-range pairs, negative ids included
            for u in range(-2, g.n + 2):
                for v in range(-2, g.n + 2):
                    want = ids.get((min(u, v), max(u, v)))
                    assert g.has_edge(u, v) == (want is not None)
                    if want is None:
                        with pytest.raises(KeyError):
                            g.edge_id(u, v)
                    else:
                        assert g.edge_id(u, v) == want

    @given(graphs())
    def test_degrees_sum_to_twice_m(self, g):
        assert sum(g.degrees()) == 2 * g.m

    def test_degree_rejects_vertex_out_of_range(self):
        # -1 would read the slice from the last vertex to the first, and n
        # would index past indptr
        g = path_graph(3)
        for v in (-1, g.n):
            with pytest.raises(ValueError, match=f"^v {v} is not a vertex of a graph on 3 vertices$"):
                g.degree(v)


def assert_adjacency_matches_reference(g):
    ref = oracles.canonical_adjacency(g.n, g.edges)
    assert g.adj == ref
    assert g.degrees() == [len(a) for a in ref]
    assert [g.degree(v) for v in range(g.n)] == g.degrees()
    indptr, nbr, eid = g.csr()
    assert indptr.tolist() == [0] + list(np.cumsum([len(a) for a in ref]))
    for v in range(g.n):
        a, b = indptr[v], indptr[v + 1]
        assert list(zip(nbr[a:b].tolist(), eid[a:b].tolist())) == list(ref[v])


class TestArrayAdjacency:
    """The CSR arrays and the lazy ``adj`` against the tuple-of-tuples builder."""

    @given(graphs(min_n=0, max_n=12))
    @settings(max_examples=150)
    def test_matches_reference_builder(self, g):
        assert_adjacency_matches_reference(g)

    @pytest.mark.parametrize("make", [
        lambda: Graph(0, []),
        lambda: Graph(1, []),
        lambda: Graph(5, []),
        lambda: Graph(6, [(1, 4), (2, 4)]),
        lambda: complete_graph(7),
        lambda: star_graph(5),
        lambda: gen_gnp(GenParams(n=300, p=0.03, seed=2)),
        lambda: gen_regular_config(GenParams(n=50, r=3, seed=1)),
    ], ids=["n0", "n1", "m0", "isolated", "complete", "star", "gnp", "regular"])
    def test_matches_reference_on_fixed_graphs(self, make):
        assert_adjacency_matches_reference(make())

    @staticmethod
    def csr_matches_before(g):
        e = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
        for got, want in zip(g.csr(), oracles.build_csr_before(g.n, e[:, 0], e[:, 1])):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @given(graphs(min_n=0, max_n=12))
    @example(Graph(0, []))
    @example(Graph(1, []))
    @example(Graph(5, []))
    @example(Graph(6, [(1, 4), (2, 4)]))
    @settings(max_examples=150)
    def test_csr_matches_stable_argsort(self, g):
        self.csr_matches_before(g)

    def test_csr_matches_stable_argsort_on_gate5(self):
        n = 10 ** 5
        self.csr_matches_before(gen_gnp(GenParams(n=n, omega=math.log(math.log(n)), seed=0)))

    def test_array_input_equals_list_input(self):
        edges = [(0, 2), (0, 3), (1, 2), (2, 3)]
        a = Graph(4, edges)
        b = Graph(4, np.array(edges))
        assert a == b and hash(a) == hash(b)
        assert all(type(x) is int for e in b.edges for x in e)

    def test_arrays_read_only(self):
        indptr, nbr, eid = complete_graph(4).csr()
        for arr in (indptr, nbr, eid):
            with pytest.raises(ValueError):
                arr[0] = 1



@st.composite
def edge_lists(draw, max_n=3):
    """(n, canonical pair list); tiny n, so two draws often give one graph."""
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [pair for pair, k in zip(pairs, keep) if k]


def eager_edges(edges) -> tuple:
    """The edge tuple the constructor built eagerly before ``ends`` was the identity."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return tuple(zip(e[:, 0].tolist(), e[:, 1].tolist()))


class TestEdgeArrayIdentity:
    @given(edge_lists(), edge_lists(), st.booleans(), st.booleans())
    @settings(max_examples=300)
    def test_identity_matches_the_tuple(self, a_case, b_case, a_as_array, b_as_array):
        # == and hash over (n, ends) agree with the old ones over (n, edges)
        def build(n, edges, as_array):
            return Graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2) if as_array else edges)

        (na, ea), (nb, eb) = a_case, b_case
        a, b = build(na, ea, a_as_array), build(nb, eb, b_as_array)
        same = (na, eager_edges(ea)) == (nb, eager_edges(eb))
        assert (a == b) == same
        assert (hash(a) == hash(b)) == same
        for g, edges in ((a, ea), (b, eb)):
            assert g.edges == eager_edges(edges) == tuple(edges)
            assert all(type(x) is int for e in g.edges for x in e)
            assert g.m == len(edges)

    def test_caller_array_is_copied(self):
        mine = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
        g = Graph(3, mine)
        view = Graph(3, mine[:2])
        mine[0] = (1, 2)
        mine[2] = (0, 1)
        assert g.ends.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert g.edges == ((0, 1), (0, 2), (1, 2)) == eager_edges(g.ends)
        assert view.edges == ((0, 1), (0, 2))
        assert g == complete_graph(3) and hash(g) == hash(complete_graph(3))

    @pytest.mark.parametrize("make", [
        lambda: Graph(3, np.array([[0, 1], [1, 2]], dtype=np.int64)),
        lambda: complete_graph(4),
        lambda: Graph(2, []),
        lambda: gen_gnp(GenParams(n=50, p=0.2, seed=3)),
    ], ids=["array", "list", "empty", "gnp"])
    def test_ends_read_only(self, make):
        g = make()
        assert g.ends.dtype == np.int64 and g.ends.shape == (g.m, 2)
        with pytest.raises(ValueError):
            g.ends[..., 0] = 1

    @staticmethod
    def spy_on_edges(monkeypatch) -> list:
        """The graphs whose ``edges`` is read from now on, one entry per read."""
        reads = []
        tuple_view = Graph.edges
        monkeypatch.setattr(Graph, "edges", property(
            lambda g: reads.append(g) or tuple_view.fget(g)))
        return reads

    def test_threshold_pipeline_leaves_edges_unbuilt(self, monkeypatch):
        # generation, probes, coloring, and searches whose witnesses pass
        # make_witness read the array, never the tuple
        reads = self.spy_on_edges(monkeypatch)
        g = gen_gnp(GenParams(n=5000, omega=2.0, seed=1))
        degree_stats(g)
        diameter(g, mode="double_sweep")
        assert connected(g)
        c = color_threshold(g, threshold_params(g.n), seed=0)
        found = [rainbow_path_search(g, c, u, v, seed=derive_seed(0, f"{u}:{v}"))
                 for u, v in sample_pairs(g.n, 10, seed=0)]
        assert any(w is not None for w in found)
        assert reads == []

    def test_experiment_thm1_never_reads_edges(self, tmp_path, monkeypatch):
        reads = self.spy_on_edges(monkeypatch)
        cfg = ExperimentConfig(mode="thm1", n_values=(300,), omega=2.0, trials=2, seed=0,
                               sampled_pairs=10, out=str(tmp_path / "t.csv"))
        records, _ = run_experiment(cfg)
        assert sum(rec.pairs_connected or 0 for rec in records) > 0
        assert reads == []


class TestEdgesView:
    """``edges`` is the rows of ``ends`` as int pairs, built on each read and
    never held by the graph."""

    @staticmethod
    def assert_built_per_read(g):
        view = g.edges
        assert view == tuple(map(tuple, g.ends.tolist()))
        again = g.edges
        assert again == view
        assert again is not view or g.m == 0  # () is one object in CPython
        # nothing the graph refers to is the tuple, or any tuple of m items
        # (neither adj nor the double-sweep memo is built here)
        assert not any(isinstance(r, tuple) and len(r) == g.m for r in gc.get_referents(g))

    @given(graphs(min_n=0, max_n=12))
    @example(Graph(0, []))
    @example(Graph(5, []))
    @settings(max_examples=100)
    def test_built_per_read(self, g):
        self.assert_built_per_read(g)

    def test_built_per_read_on_gate5(self):
        n = 10 ** 5
        self.assert_built_per_read(gen_gnp(GenParams(n=n, omega=math.log(math.log(n)), seed=0)))


class TestGenGnp:
    def test_p_one_gives_complete(self):
        g = gen_gnp(GenParams(n=5, p=1.0, omega=None, r=None, seed=3))
        assert g.m == 10

    def test_p_zero_gives_empty(self):
        g = gen_gnp(GenParams(n=4, p=0.0, omega=None, r=None, seed=3))
        assert g.m == 0

    def test_deterministic(self):
        a = gen_gnp(GenParams(n=200, p=0.05, omega=None, r=None, seed=9))
        b = gen_gnp(GenParams(n=200, p=0.05, omega=None, r=None, seed=9))
        assert a.edges == b.edges

    def test_seed_changes_output(self):
        a = gen_gnp(GenParams(n=200, p=0.05, omega=None, r=None, seed=9))
        b = gen_gnp(GenParams(n=200, p=0.05, omega=None, r=None, seed=10))
        assert a.edges != b.edges

    def test_refuses_n_whose_pair_keys_overflow(self):
        # the pair keys w*n + v are sorted as int64, so n*n must fit; the
        # check allocates nothing, so the boundary is tried on both sides
        largest = math.isqrt(np.iinfo(np.int64).max)
        check_gnp_params(GenParams(n=largest, p=0.0))
        for n in (largest + 1, 10 ** 19):
            with pytest.raises(ValueError, match=f"n={n} .*n\\*n must fit in int64"):
                check_gnp_params(GenParams(n=n, p=0.0))
            with pytest.raises(ValueError, match="n\\*n must fit in int64"):
                gen_gnp(GenParams(n=n, omega=1.0))

    def test_omega_mode_edge_count_within_5_sigma(self):
        n = 10 ** 4
        g = gen_gnp(GenParams(n=n, p=None, omega=3.0, r=None, seed=7))
        p = (math.log(n) + 3.0) / n
        total = n * (n - 1) // 2
        mean = total * p
        sigma = math.sqrt(total * p * (1 - p))
        assert abs(g.m - mean) < 5 * sigma
        assert g.meta["p"] == pytest.approx(p)

    def test_omega_clamp_flag(self):
        g = gen_gnp(GenParams(n=16, p=None, omega=100.0, r=None, seed=0))
        assert g.meta["p"] == 1.0
        assert g.meta["p_clamped"]

    def test_rejects_both_p_and_omega(self):
        with pytest.raises(ValueError):
            gen_gnp(GenParams(n=10, p=0.5, omega=1.0, r=None, seed=0))

    def test_rejects_nan_omega(self):
        # unchecked, a NaN omega clamps p to 0 and gives an empty graph
        with pytest.raises(ValueError, match="omega=nan"):
            gen_gnp(GenParams(n=5, omega=float("nan"), seed=0))

    @pytest.mark.parametrize("p", [1e-17, 1e-300, 5e-324])
    def test_tiny_p(self, p):
        # 1 - p rounds to 1, so log(1 - p) is 0 and cannot divide the draws
        for n in (10, 2000):
            g = gen_gnp(GenParams(n=n, p=p, seed=0))
            assert g.n == n and g.m == 0
            assert g.meta == {"p": p, "p_clamped": False}


class TestGenGnpBulk:
    """The bulk draws against the element-wise skip loop they replaced."""

    @staticmethod
    def same_as_before(params):
        new = gen_gnp(params)
        old = oracles.gen_gnp_before(params)
        assert new.edges == old.edges
        assert new.meta == old.meta

    # below p of about 1.1e-16 the loop divided by log(1 - p) = 0
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2 ** 32),
           p=st.sampled_from([0.0, 1.0, 1e-12, 1.0 - 1e-12]) | st.floats(1e-15, 1.0))
    def test_p_matches_before(self, n, seed, p):
        self.same_as_before(GenParams(n=n, p=p, seed=seed))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2 ** 32),
           omega=st.floats(-20.0, 400.0))
    def test_omega_matches_before(self, n, seed, omega):
        self.same_as_before(GenParams(n=n, omega=omega, seed=seed))

    def test_chunk_boundaries_inside_the_stream(self, monkeypatch):
        # 3 draws per chunk: the running index crosses a chunk every third gap
        monkeypatch.setattr(graphs_mod, "_GNP_CHUNK", 3)
        for p in (0.02, 0.3):
            self.same_as_before(GenParams(n=120, p=p, seed=5))

    def test_gate5_instance_matches_before(self):
        n = 10 ** 5
        self.same_as_before(GenParams(n=n, omega=math.log(math.log(n)), seed=0))

    @pytest.mark.parametrize("p", [1.2e-4, 0.003, 0.3])
    def test_gaps_at_near_integer_ratios(self, p):
        # u = 1 - (1 - p)^k puts log(1 - u) / log(1 - p) within a few ulps of
        # k, where np.log and math.log can floor to different gaps
        log1p = math.log(1.0 - p)
        us = []
        for k in range(1, 2001):
            u = 1.0 - math.exp(k * log1p)
            for step in range(-3, 4):
                x = u
                for _ in range(abs(step)):
                    x = float(np.nextafter(x, 1.0 if step > 0 else 0.0))
                if x < 1.0:  # at large k, (1 - p)^k underflows
                    us.append(x)
        gaps = [1 + int(math.log(1.0 - u) / log1p) for u in us]
        total = sum(gaps)

        class Draws:
            """The adversarial draws, then one u = 0 (gap 1) that ends the walk."""
            calls = 0

            def random(self, size):
                self.calls += 1
                return np.array(us if self.calls == 1 else [0.0] * size)

        t = graphs_mod._skip_indices(Draws(), p, total)
        assert np.diff(t, prepend=-1).tolist() == gaps


class TestGenRegular:
    def test_parity_error(self):
        with pytest.raises(ParityError):
            gen_regular_config(GenParams(n=5, p=None, omega=None, r=3, seed=0))

    def test_n4_r3_is_k4(self):
        for seed in range(5):
            g = gen_regular_config(GenParams(n=4, p=None, omega=None, r=3, seed=seed))
            assert g.edges == complete_graph(4).edges
            assert "attempts" in g.meta

    def test_degrees_exactly_r(self):
        g = gen_regular_config(GenParams(n=60, p=None, omega=None, r=4, seed=2))
        assert all(d == 4 for d in g.degrees())

    def test_deterministic(self):
        a = gen_regular_config(GenParams(n=60, p=None, omega=None, r=3, seed=5))
        b = gen_regular_config(GenParams(n=60, p=None, omega=None, r=3, seed=5))
        assert a.edges == b.edges and a.meta["attempts"] == b.meta["attempts"]

    @pytest.mark.parametrize("attempts", [0, -1])
    def test_no_attempt_refused(self, attempts):
        # used to raise GenerationExhausted after making no attempt at all
        params = GenParams(n=10, r=3, max_attempts=attempts)
        with pytest.raises(ValueError, match=f"max_attempts={attempts} allows no attempt"):
            check_regular_params(params)
        with pytest.raises(ValueError, match="allows no attempt"):
            gen_regular_config(params)

    def test_refuses_more_points_than_numpy_indexes(self):
        # n*r points, listed before the first shuffle; the check allocates
        # nothing, so the boundary is tried on both sides
        most = graphs_mod._MAX_N
        check_regular_params(GenParams(n=most // 4, r=4))
        for n, r in ((most // 4 + 1, 4), (10 ** 20, 4)):
            with pytest.raises(ValueError, match=f"n\\*r = {n * r} points are more than numpy"):
                check_regular_params(GenParams(n=n, r=r))
        with pytest.raises(ValueError, match="points are more than numpy"):
            gen_regular_config(GenParams(n=10 ** 20, r=4))

    def test_exhausted_raises(self):
        # seed chosen so the single allowed attempt yields a non-simple pairing
        for seed in range(50):
            params = GenParams(n=100, p=None, omega=None, r=3, seed=seed, max_attempts=1)
            try:
                gen_regular_config(params)
            except GenerationExhausted:
                return
        pytest.fail("no rejecting seed found in 50 tries")


def assert_levels_one_per_step(g, source, full):
    """The d-th step of ``bfs_levels`` holds exactly levels 0..d of the full
    distances, in one shared array, and yields level d in increasing order,
    level 1 being the source's CSR slice; the sweep ends at the source's
    eccentricity."""
    arrays = set()
    for d, (dist, level) in enumerate(bfs_levels(g, source)):
        assert dist.tolist() == np.where(full <= d, full, -1).tolist()
        assert level.tolist() == np.flatnonzero(full == d).tolist()
        arrays.add(id(dist))
        if d == 1:
            assert level.tolist() == g.nbr[g.indptr[source]:g.indptr[source + 1]].tolist()
    assert d == full.max() and len(arrays) == 1


class TestDistances:
    def test_diameter_examples(self):
        assert diameter(path_graph(4)) == 3
        assert diameter(complete_graph(4)) == 1
        assert diameter(cycle_graph(6)) == 3
        assert diameter(petersen_graph()) == 2

    def test_disconnected_returns_none(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert diameter(g) is None
        assert diameter(g, mode="double_sweep") is None

    @given(graphs(max_n=7))
    @settings(max_examples=60)
    def test_exact_matches_floyd_warshall(self, g):
        oracle = oracles.pairwise_distances(g.n, g.edges)
        finite = [oracle[i][j] for i in range(g.n) for j in range(g.n)
                  if oracle[i][j] != float("inf")]
        expected = None if any(oracle[i][j] == float("inf")
                               for i in range(g.n) for j in range(g.n)) else max(finite)
        assert diameter(g, mode="exact") == expected

    @given(graphs(max_n=8, force_connected=True))
    @settings(max_examples=40)
    def test_double_sweep_is_lower_bound(self, g):
        exact = diameter(g, mode="exact")
        sweep = diameter(g, mode="double_sweep")
        assert sweep <= exact

    def test_double_sweep_exact_on_paths(self):
        for n in (2, 5, 9):
            assert diameter(path_graph(n), mode="double_sweep") == n - 1

    @given(graphs(max_n=8))
    @settings(max_examples=40)
    def test_bfs_matches_oracle_levels(self, g):
        dist = bfs_distances(g, 0)
        sizes = oracles.bfs_levels(g.n, g.edges, 0)
        for depth, count in enumerate(sizes):
            assert int(np.sum(dist == depth)) == count
        assert int(np.sum(dist < 0)) == g.n - sum(sizes)

    def test_vectorized_bfs_agrees_with_deque(self):
        g = gen_gnp(GenParams(n=300, p=0.02, omega=None, r=None, seed=4))
        assert bfs_distances(g, 17).tolist() == oracles.bfs_distances(g.n, g.edges, 17)

    @pytest.mark.parametrize("name", ["long_path", "disconnected", "threshold_gnp",
                                      "regular_r3", "regular_r4", "regular_r5"])
    def test_vectorized_bfs_agrees_with_deque_at_scale(self, name):
        # the long path has only narrow levels; the threshold graph has wide
        # levels (above n // 64) that take the dist-scan dedup; the regular
        # graphs are gate 4's, whose pair queries run one BFS each
        n = 5000
        if name == "long_path":
            g = path_graph(n)
        elif name == "disconnected":
            g = gen_gnp(GenParams(n=n, p=1.2 / n, seed=3))
        elif name == "threshold_gnp":
            g = gen_gnp(GenParams(n=n, omega=math.log(math.log(n)), seed=0))
        else:
            g = gen_regular_config(GenParams(n=2000, r=int(name[-1]), seed=0))
        sources = (0, g.n // 2, g.n - 1)
        got = [bfs_distances(g, s) for s in sources]
        edges = g.edges
        for s, dist in zip(sources, got):
            assert dist.dtype == np.int64
            assert dist.tolist() == oracles.bfs_distances(g.n, edges, s)
            sizes = oracles.bfs_levels(g.n, edges, s)
            assert np.bincount(dist[dist >= 0]).tolist() == sizes
        if name == "disconnected":
            assert all((d < 0).any() for d in got)
        if name == "threshold_gnp":
            assert max(np.bincount(got[0][got[0] >= 0])) > n // 64

    @given(graphs(min_n=1, max_n=12))
    @example(Graph(1, []))
    @example(Graph(5, []))
    @example(Graph(7, [(0, 1), (1, 2), (4, 5)]))
    @example(complete_graph(9))
    @example(star_graph(30))
    @settings(max_examples=150)
    def test_bfs_matches_deque_oracle_from_every_source(self, g):
        # level by level too, in one shared array.  Graphs this small never
        # save the bottom-up step's fixed cost, so it runs again without
        # that cost: then every level whose frontier's slots outnumber the
        # unlabelled vertices' slots plus n // 4 is labelled bottom-up, as
        # the later levels of the complete and star graphs, dense from
        # level 2, are
        edges = g.edges
        for s in range(g.n):
            full = oracles.bfs_distances(g.n, edges, s)
            assert bfs_distances(g, s).tolist() == full
            full = np.array(full)
            for cost in (graphs_mod._BOTTOM_UP_COST, 0):
                with mock.patch.object(graphs_mod, "_BOTTOM_UP_COST", cost):
                    assert_levels_one_per_step(g, s, full)

    @pytest.mark.parametrize("make", [
        lambda: gen_gnp(GenParams(n=5000, omega=math.log(math.log(5000)), seed=0)),
        lambda: gen_gnp(GenParams(n=5000, p=1.2 / 5000, seed=3)),
        lambda: path_graph(40),
    ], ids=["threshold_gnp", "disconnected", "path"])
    def test_levels_labelled_one_per_step(self, make):
        g = make()
        assert_levels_one_per_step(g, 7, bfs_distances(g, 7))

    def test_bottom_up_only_where_levels_are_wide(self, monkeypatch):
        # on the threshold graph of the at-scale test above, from each of
        # its sources, level 5 is labelled bottom-up: its frontier, level 4,
        # holds about 3400 of the 5000 vertices and 36,746 slots from vertex
        # 0, against 5251 slots of the unlabelled vertices.  No level of a
        # path or a cycle is
        steps = []
        inner = graphs_mod._bottom_up

        def spy(g, dist, d):
            steps.append(d)
            return inner(g, dist, d)

        monkeypatch.setattr(graphs_mod, "_bottom_up", spy)
        n = 5000
        g = gen_gnp(GenParams(n=n, omega=math.log(math.log(n)), seed=0))
        for s in (0, n // 2, n - 1):
            bfs_distances(g, s)
        assert steps == [5] * 3
        steps.clear()
        for h in (path_graph(4000), cycle_graph(2000)):
            for s in (0, h.n // 2, h.n - 1):
                bfs_distances(h, s)
        assert steps == []

    @given(sparse_graphs(), st.data())
    @example(Graph(5, [(0, 1), (1, 2), (3, 4)]), None)   # x and y apart
    @example(Graph(3, [(1, 2)]), None)                   # x isolated
    @example(path_graph(30), None)                       # narrow levels only
    @example(complete_graph(9), None)                    # y's level 2 bottom-up at cost 0
    @settings(max_examples=300, deadline=None)
    def test_corridor_against_two_full_bfs(self, g, data):
        # the first limit is d(x, y); nothing is yielded across components;
        # up to d + 3 every vertex v != x with d(x, v) + d(v, y) <= L reads
        # d(v, y), and every other vertex -1 or no less than d(v, y).  The
        # balls are bfs_levels sweeps, which graphs this small take
        # bottom-up only without the step's fixed cost, so that runs too
        if data is None:
            x, y = 0, g.n - 1
        else:
            x = data.draw(st.integers(min_value=0, max_value=g.n - 1), label="x")
            y = data.draw(st.integers(min_value=0, max_value=g.n - 1), label="y")
        from_x, from_y = bfs_distances(g, x), bfs_distances(g, y)
        for cost in (graphs_mod._BOTTOM_UP_COST, 0):
            with mock.patch.object(graphs_mod, "_BOTTOM_UP_COST", cost):
                steps = corridor_distances(g, x, y)
                if from_y[x] < 0:
                    assert next(steps, None) is None
                    continue
                d = int(from_y[x])
                limits = []
                for limit, dist in islice(steps, 4):
                    limits.append(limit)
                    inside = (from_x >= 0) & (from_x + from_y <= limit)
                    inside[x] = False
                    assert (dist[inside] == from_y[inside]).all()
                    rest, far = dist[~inside], from_y[~inside]
                    assert ((rest == -1) | (rest >= far) & (far >= 0)).all()
                assert limits == list(range(d, d + 4))

    @staticmethod
    def assert_corridor_as_before(g, x, y):
        # the first four steps, each pair compared as it is drawn: a step's
        # array is valid only until the next step
        both = zip_longest(islice(corridor_distances(g, x, y), 4),
                           islice(oracles.corridor_distances_before(g, x, y), 4),
                           fillvalue=(None, None))
        for (limit, dist), (want_limit, want) in both:
            assert limit == want_limit and np.array_equal(dist, want)

    @given(sparse_graphs(), st.data())
    @example(Graph(5, [(0, 1), (1, 2), (3, 4)]), None)   # x and y apart
    @example(Graph(3, [(1, 2)]), None)                   # x isolated
    @example(path_graph(30), None)                       # narrow levels only
    @example(complete_graph(9), None)                    # y's level 2 bottom-up at cost 0
    @settings(max_examples=300, deadline=None)
    def test_corridor_as_before(self, g, data):
        # the continuation redone at each limit labels what the one kept
        # across limits did, with the bottom-up step's fixed cost and
        # without it
        if data is None:
            x, y = 0, g.n - 1
        else:
            x = data.draw(st.integers(min_value=0, max_value=g.n - 1), label="x")
            y = data.draw(st.integers(min_value=0, max_value=g.n - 1), label="y")
        for cost in (graphs_mod._BOTTOM_UP_COST, 0):
            with mock.patch.object(graphs_mod, "_BOTTOM_UP_COST", cost):
                self.assert_corridor_as_before(g, x, y)

    def test_corridor_as_before_on_gate5(self):
        n = 10 ** 5
        g = gen_gnp(GenParams(n=n, omega=math.log(math.log(n)), seed=0))
        for x, y in sample_pairs(n, 30, 5):
            self.assert_corridor_as_before(g, x, y)

    @given(sparse_graphs(), st.data())
    @example(path_graph(8), None)                        # stops at the target
    @example(Graph(5, [(0, 1), (1, 2), (3, 4)]), None)   # target unreachable
    @example(complete_graph(9), None)                    # level 2 bottom-up at cost 0
    @settings(max_examples=200, deadline=None)
    def test_stops_label_up_to_the_first_stop(self, g, data):
        # every level up to target's or cutoff, whichever comes first,
        # reads as the deque oracle's and every vertex beyond it -1; with
        # the bottom-up step's fixed cost and without it
        if data is None:
            source, target, cutoff = 0, g.n - 1, 3
        else:
            vertex = st.integers(min_value=0, max_value=g.n - 1)
            source = data.draw(vertex, label="source")
            target = data.draw(st.none() | vertex, label="target")
            cutoff = data.draw(st.none() | st.integers(min_value=0, max_value=g.n), label="cutoff")
        full = np.array(oracles.bfs_distances(g.n, g.edges, source))
        stop = g.n if cutoff is None else cutoff
        if target is not None and full[target] >= 0:
            stop = min(stop, full[target])
        want = np.where(full <= stop, full, -1).tolist()
        for cost in (graphs_mod._BOTTOM_UP_COST, 0):
            with mock.patch.object(graphs_mod, "_BOTTOM_UP_COST", cost):
                assert bfs_distances(g, source, target=target, cutoff=cutoff).tolist() == want

    def test_stops_reject_target_out_of_range_and_negative_cutoff(self):
        g = path_graph(5)
        for t in (-1, 5):
            with pytest.raises(ValueError, match=f"target {t} is not a vertex"):
                bfs_distances(g, 0, target=t)
        with pytest.raises(ValueError, match="cutoff -1 is negative"):
            bfs_distances(g, 0, cutoff=-1)

    def test_corridor_rejects_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="y 5 is not a vertex"):
            next(corridor_distances(path_graph(5), 0, 5))

    def test_bfs_leaves_adj_unbuilt(self):
        # every graph takes the CSR sweep; none builds the tuple adjacency
        g = petersen_graph()
        for s in range(g.n):
            bfs_distances(g, s)
        assert diameter(g) == 2
        assert g._adj_cache is None

    @pytest.mark.parametrize("make", [
        lambda: path_graph(5),
        lambda: gen_gnp(GenParams(n=5000, omega=2.0, seed=1)),
    ], ids=["small", "large"])
    def test_bfs_rejects_source_out_of_range(self, make):
        g = make()
        for s in (-1, g.n, -g.n - 1):
            with pytest.raises(ValueError, match=f"source {s} is not a vertex .* {g.n} vertices"):
                bfs_distances(g, s)


class TestSweepMemo:
    @pytest.fixture
    def counted_bfs(self, monkeypatch):
        calls = []
        inner = graphs_mod.bfs_distances

        def counting(g, source):
            calls.append(source)
            return inner(g, source)

        monkeypatch.setattr(graphs_mod, "bfs_distances", counting)
        return calls

    @pytest.mark.parametrize("make", [
        lambda: gen_gnp(GenParams(n=5000, omega=2.0, seed=1)),
        lambda: cycle_graph(41),
        lambda: Graph(4, [(0, 1), (2, 3)]),
        lambda: gen_gnp(GenParams(n=5000, p=1.2 / 5000, seed=3)),
    ], ids=["threshold_gnp", "cycle", "two_edges", "disconnected_gnp"])
    def test_memo_equals_fresh_sweep(self, make, counted_bfs):
        g = make()
        first = diameter(g, mode="double_sweep")
        assert len(counted_bfs) in (1, 2)
        counted_bfs.clear()
        assert diameter(g, mode="double_sweep") == first
        assert counted_bfs == []
        # a fresh Graph on the same edges has no memo and must agree
        fresh = diameter(Graph(g.n, g.edges), mode="double_sweep")
        assert len(counted_bfs) in (1, 2)
        assert fresh == first
        # None, the disconnected verdict, is memoized like any value
        assert (first is None) == (not connected(g))

    def test_threshold_setup_runs_one_sweep(self, counted_bfs):
        # degree stats, the sweep diameter, the connectivity probe and the
        # threshold coloring's own connectivity check share one double sweep
        g = gen_gnp(GenParams(n=5000, omega=2.0, seed=1))
        degree_stats(g)
        diameter(g, mode="double_sweep")
        assert connected(g)
        color_threshold(g, threshold_params(g.n), seed=0)
        assert len(counted_bfs) == 2


class TestThresholdPipeline:
    """A thm1 set-up and searches at n = 2*10^4."""

    @pytest.fixture(scope="class")
    def run(self):
        n = 20000
        g = gen_gnp(GenParams(n=n, omega=math.log(math.log(n)), seed=0))
        degree_stats(g)
        diameter(g, mode="double_sweep")
        assert connected(g)
        c = color_threshold(g, threshold_params(n), seed=derive_seed(0, "color"))
        h = hashlib.sha256()
        h.update(repr((g.n, g.edges)).encode())
        h.update(repr((c.colors, c.palette_size, c.provenance, c.flags)).encode())
        for u, v in sample_pairs(n, 20, seed=0):
            w = rainbow_path_search(g, c, u, v, seed=derive_seed(0, f"{u}:{v}"))
            h.update(repr((u, v, None if w is None else (w.vertices, w.edge_ids))).encode())
        return g, h.hexdigest()

    def test_pinned_digest(self, run):
        # graph, coloring with provenance, and 20 seeded witnesses, hashed;
        # the digest was taken with the tuple-of-tuples adjacency that the
        # CSR arrays replaced
        _, digest = run
        assert digest == "abcc274bace9c2e54c5c66ca242cca3d05ce4acda4a2c857e6fd87b1d3c8cbdc"

    def test_adj_never_built(self, run):
        # generation, probes, coloring and search read only the CSR arrays
        g, _ = run
        assert g._adj_cache is None


class TestDegreeStats:
    def test_star(self):
        st_ = degree_stats(star_graph(3))
        assert st_.z1 == 3
        assert st_.histogram == {1: 3, 3: 1}

    def test_k5_no_pendants(self):
        assert degree_stats(complete_graph(5)).z1 == 0

    def test_c5_custom_threshold(self):
        st_ = degree_stats(cycle_graph(5), small_threshold=2.5)
        assert st_.small_vertices == frozenset(range(5))

    def test_default_threshold(self):
        g = cycle_graph(8)
        st_ = degree_stats(g)
        assert st_.small_threshold == pytest.approx(math.log(8) / 100)

    @given(graphs())
    def test_z1_equals_histogram_entry(self, g):
        st_ = degree_stats(g)
        assert st_.z1 == st_.histogram.get(1, 0)

    @given(st.one_of(graphs(min_n=0, max_n=12), sparse_graphs()),
           st.one_of(st.none(), st.floats(min_value=-1, max_value=8, allow_nan=False),
                     st.integers(min_value=0, max_value=8)))
    @example(Graph(0, []), None)
    @settings(max_examples=150)
    def test_matches_the_vertex_loop(self, g, threshold):
        # the same record, down to the histogram's key order
        got = degree_stats(g, threshold)
        want = oracles.degree_stats_before(g, threshold)
        assert got == want
        assert list(got.histogram.items()) == list(want.histogram.items())
        assert all(type(k) is int and type(v) is int for k, v in got.histogram.items())


class TestLocalStructure:
    def test_neighborhood_cycle_tree(self):
        assert neighborhood_cycle(path_graph(5), 2, 3) is None

    def test_neighborhood_cycle_c5(self):
        assert neighborhood_cycle(cycle_graph(5), 0, 3) == (0, 1, 2, 3, 4)

    def test_neighborhood_cycle_k4_ambiguous(self):
        assert neighborhood_cycle(complete_graph(4), 0, 2) is AMBIGUOUS

    def test_neighborhood_cycle_rejects_negative_depth(self):
        with pytest.raises(ValueError, match="negative"):
            neighborhood_cycle(cycle_graph(5), 0, -1)

    @pytest.mark.parametrize("x", [-1, 6])
    def test_neighborhood_cycle_rejects_root_outside_graph(self, x):
        with pytest.raises(ValueError, match=f"root {x} is not a vertex"):
            neighborhood_cycle(cycle_graph(6), x, 3)

    @staticmethod
    def same_as_before(g, x, depth):
        new = neighborhood_cycle(g, x, depth)
        old = oracles.neighborhood_cycle_before(g, x, depth)
        assert (new is AMBIGUOUS) == (old is AMBIGUOUS)
        assert new == old

    @given(graphs(max_n=10))
    @settings(max_examples=200)
    def test_neighborhood_cycle_matches_before(self, g):
        for x in range(g.n):
            for depth in range(5):
                self.same_as_before(g, x, depth)

    def test_neighborhood_cycle_matches_before_regular_2000(self):
        # gate 4's r = 3 graph, at depths around its recoloring depth k = 3
        g = gen_regular_config(GenParams(n=2000, r=3, seed=0))
        for depth in (2, 3, 4):
            for x in range(g.n):
                self.same_as_before(g, x, depth)

    @given(forests())
    @settings(max_examples=50)
    def test_neighborhood_cycle_none_on_forests(self, g):
        assert all(neighborhood_cycle(g, x, depth) is None
                   for x in range(g.n) for depth in range(5))


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        g = gen_gnp(GenParams(n=30, p=0.2, omega=None, r=None, seed=1))
        path = tmp_path / "g.el"
        write_edge_list(g, path)
        assert read_edge_list(path).edges == g.edges

    def test_written_form_is_exact(self, tmp_path):
        g = Graph(3, [(0, 1), (1, 2)])
        path = tmp_path / "g.el"
        write_edge_list(g, path)
        assert path.read_text() == "3 2\n0 1\n1 2\n"

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("# a comment\n\n3 1\n\n# another\n0 2\n")
        g = read_edge_list(path)
        assert g.n == 3 and g.edges == ((0, 2),)

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_bytes(b"3 1\n0 \xff\n")
        want = f"{path}: not utf-8 text (invalid start byte at byte 6)"
        with pytest.raises(ValueError, match=re.escape(want)):
            read_edge_list(path)

    @pytest.mark.parametrize("n", [10 ** 20, 2 ** 63 - 1, graphs_mod._MAX_N + 1])
    def test_unindexable_n_refused(self, tmp_path, n):
        # numpy cannot hold indptr for this n, so no array is ever asked for
        path = tmp_path / "g.el"
        path.write_text(f"{n} 1\n0 1\n")
        want = f"{path}:1: n={n} is more vertices than numpy can index"
        with pytest.raises(ValueError, match=re.escape(want)):
            read_edge_list(path)
        with pytest.raises(ValueError, match=f"^n={n} is more vertices"):
            Graph(n, [])

    def test_bad_count_raises(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text("3 2\n0 1\n")
        with pytest.raises(ValueError):
            read_edge_list(path)

    @given(graphs())
    @settings(max_examples=30)
    def test_round_trip_any(self, g):
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/g.el"
            write_edge_list(g, path)
            back = read_edge_list(path)
        assert back.n == g.n and back.edges == g.edges


def test_connected_helper():
    assert connected(complete_graph(3))
    assert not connected(Graph(3, [(0, 1)]))
    assert connected(Graph(1, []))
