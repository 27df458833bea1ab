"""Parameter derivation, the three coloring passes, and the coloring file format."""

import math
import random
import re
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from rainbowconn.coloring import (
    EdgeColoring,
    color_greedy_power,
    color_threshold,
    line_distance_neighbors,
    random_coloring,
    read_coloring,
    recolor_cycle_classes,
    regular_params,
    threshold_params,
    write_coloring,
)
from rainbowconn.errors import NotConnected, PaletteExhausted
from rainbowconn.graphs import (GenParams, Graph, cycle_graph, gen_regular_config, graph_from_edges,
                                path_graph, petersen_graph, star_graph)
from rainbowconn.verify import verify_all_pairs
from strategies import graphs


PETERSEN = petersen_graph()
# a triangle, a path and two isolated vertices (3 and 8)
TWO_PARTS = Graph(9, [(0, 1), (0, 2), (1, 2), (4, 5), (5, 6), (6, 7)])


def two_parts(n):
    """A sparse graph on n vertices with two components, on the vertices
    below n // 2 and on the rest but the last, which is isolated: each a
    random tree plus a third as many chords.  Balls cross byte and 64-bit
    word edges of the greedy coloring's bitset rows."""
    rng = random.Random(n)
    pairs = set()
    for lo, hi in ((0, n // 2), (n // 2, n - 1)):
        for w in range(lo + 1, hi):
            pairs.add((rng.randrange(lo, w), w))
        for _ in range((hi - lo) // 3):
            pairs.add(tuple(sorted(rng.sample(range(lo, hi), 2))))
    return graph_from_edges(n, pairs)


class TestThresholdParams:
    def test_desk_scale_values(self):
        p = threshold_params(10**5)
        assert math.isclose(p.epsilon, 0.639730, abs_tol=1e-5)
        assert math.isclose(p.L, 4.711711, abs_tol=1e-5)
        assert p.k == 4
        assert p.gamma == 6
        assert p.q == 20
        assert math.isclose(p.p0, 0.483399, abs_tol=1e-5)
        # log n / 101 is far below 1 at this n, so the growth floor clamps
        assert p.branching == 1.0
        assert p.clamped == ("branching",)

    def test_boundary_n16(self):
        p = threshold_params(16)
        assert math.isclose(p.L, 2.718807, abs_tol=1e-5)
        assert p.k == 3
        assert p.gamma == 5
        assert p.q == 17
        assert "branching" in p.clamped

    def test_min_n_guard(self):
        with pytest.raises(ValueError):
            threshold_params(15)

    def test_epsilon_override_shrinks_palette(self):
        tight = threshold_params(10**5, epsilon=0.1)
        loose = threshold_params(10**5)
        assert tight.q < loose.q
        assert tight.q == math.ceil(1.5 * tight.L)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            threshold_params(10**5, epsilon=0.0)

    @pytest.mark.parametrize("epsilon, match", [
        (math.inf, "epsilon must be positive and finite, got inf"),
        (math.nan, "epsilon must be positive and finite, got nan"),
        (-math.inf, "epsilon must be positive and finite, got -inf"),
        (1e308, "epsilon is too large: k = inf"),  # finite, but epsilon * L overflows
    ], ids=["inf", "nan", "-inf", "1e308"])
    def test_non_finite_epsilon_named(self, epsilon, match):
        for n in (20, 10**5):
            with pytest.raises(ValueError, match=match):
                threshold_params(n, epsilon=epsilon)

    @pytest.mark.parametrize("epsilon", [1e17, 1e300])
    def test_depth_reaching_n_refused(self, epsilon):
        # 1e300 used to give a 301-digit k, 1e17 a palette of about 1.6e18
        with pytest.raises(ValueError, match="^epsilon is too large: k = .* reaches n=200 at "
                                             f"epsilon={re.escape(str(epsilon))}$"):
            threshold_params(200, epsilon=epsilon)

    def test_depth_boundary_is_n_minus_1(self):
        # gamma = ceil((1/2 + epsilon) L) is the deeper tree; n - 1 is allowed
        L = threshold_params(20).L
        assert threshold_params(20, epsilon=18.5 / L - 0.5).gamma == 19
        with pytest.raises(ValueError, match="too large: gamma = 19.5 reaches n=20 at "):
            threshold_params(20, epsilon=19.5 / L - 0.5)


class TestRegularParams:
    def test_r4_large(self):
        p = regular_params(10**6, 4)
        assert p.k == 4
        assert p.q == 10 * 3**8 == 65610
        assert math.isclose(p.theta_r, math.log(3) / math.log(2), rel_tol=1e-12)
        assert math.isclose(p.theta_r, 1.585, abs_tol=1e-3)

    def test_r3_large(self):
        p = regular_params(10**6, 3)
        assert p.k == 4
        assert p.theta_r is None
        assert p.q == 10 * 2**8
        assert p.sigma == 2 ** (p.k // 2) == 4

    def test_desk_scale_table(self):
        # frozen derived values at the scale the regular experiments run at
        p3 = regular_params(2000, 3)
        assert (p3.k, p3.q, p3.gamma, p3.sigma) == (3, 640, 7, 2)
        assert p3.clamped == ()
        p4 = regular_params(2000, 4)
        assert (p4.k, p4.q, p4.gamma, p4.sigma) == (3, 7290, 5, 1)
        assert "sigma" in p4.clamped
        p5 = regular_params(2000, 5)
        assert (p5.k, p5.q, p5.gamma, p5.sigma) == (2, 2560, 4, 1)
        assert "sigma" in p5.clamped

    def test_sigma_unclamped_when_depth_allows(self):
        p = regular_params(10**4, 4)
        assert p.k == 4
        assert p.sigma == 2**3 - 6 == 2
        assert "sigma" not in p.clamped

    def test_guards(self):
        with pytest.raises(ValueError):
            regular_params(15, 3)
        with pytest.raises(ValueError):
            regular_params(2000, 2)
        with pytest.raises(ValueError):
            regular_params(2000, 3, epsilon=-1.0)

    @pytest.mark.parametrize("epsilon, match", [
        (math.inf, "epsilon must be positive and finite, got inf"),
        (math.nan, "epsilon must be positive and finite, got nan"),
        (1e308, "epsilon is too large: gamma = inf"),  # finite, but gamma overflows
    ], ids=["inf", "nan", "1e308"])
    @pytest.mark.parametrize("r", [3, 5])
    def test_non_finite_epsilon_named(self, epsilon, match, r):
        with pytest.raises(ValueError, match=match):
            regular_params(20, r, epsilon=epsilon)

    @pytest.mark.parametrize("r", [3, 5])
    def test_depth_reaching_n_refused(self, r):
        # gamma used to have 301 digits at epsilon = 1e300
        with pytest.raises(ValueError, match=r"^epsilon is too large: gamma = .* reaches "
                                             r"n=2000 at epsilon=1e\+300$"):
            regular_params(2000, r, epsilon=1e300)
        scale = math.log(2000) / math.log(r - 1)
        assert regular_params(2000, r, epsilon=1998.5 / scale - 0.5).gamma == 1999
        with pytest.raises(ValueError, match="gamma = 1999.5 reaches n=2000"):
            regular_params(2000, r, epsilon=1999.5 / scale - 0.5)

    def test_gamma_epsilon_configurable(self):
        wide = regular_params(2000, 3, epsilon=0.5)
        assert wide.gamma == math.ceil(1.0 * math.log(2000) / math.log(2))
        assert wide.gamma > regular_params(2000, 3).gamma
        assert regular_params(2000, 3, epsilon=None) == regular_params(2000, 3, epsilon=0.1)


# a fixed params bundle for small-graph coloring tests; only q matters below
SMALL_PARAMS = threshold_params(16)


class TestColorThreshold:
    def test_star_pendants_distinct_and_rainbow(self):
        g = star_graph(5)
        c = color_threshold(g, SMALL_PARAMS, seed=0)
        assert sorted(c.colors) == [0, 1, 2, 3, 4]
        assert c.provenance == ("pendant",) * 5
        assert c.palette_size == max(5, SMALL_PARAMS.q) + 2
        rep = verify_all_pairs(g, c)
        assert rep.pairs_connected == rep.pairs_checked == 15

    def test_p3_two_pendant_colors(self):
        g = path_graph(3)
        c = color_threshold(g, SMALL_PARAMS, seed=0)
        assert sorted(c.colors) == [0, 1]
        assert c.used_colors() == {0, 1}
        rep = verify_all_pairs(g, c)
        assert rep.pairs_connected == 3

    def test_edge_pendant_at_both_ends_uses_one_color(self):
        g = graph_from_edges(2, [(0, 1)])
        c = color_threshold(g, SMALL_PARAMS, seed=0)
        assert c.colors == (0,)
        assert c.provenance == ("pendant",)

    def test_not_connected(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(NotConnected):
            color_threshold(g, SMALL_PARAMS)

    def test_default_threshold_leaves_reserved_colors_unused(self):
        # log n / 100 < 1 at any runnable n, so no vertex qualifies as small
        g = cycle_graph(6)
        c = color_threshold(g, SMALL_PARAMS, seed=3)
        assert "red_blue" not in c.provenance
        assert not c.used_colors() & {c.palette_size - 2, c.palette_size - 1}

    def test_reserved_pairs_on_cycle(self):
        # with every vertex small, reserved colors propagate around C5 until
        # the last vertex finds both its edges taken and gets flagged
        g = cycle_graph(5)
        c = color_threshold(g, SMALL_PARAMS, seed=0, small_threshold=2.5)
        red, blue = c.palette_size - 2, c.palette_size - 1
        assert c.colors == (red, blue, blue, red, blue)
        assert c.provenance == ("red_blue",) * 5
        assert c.flags == ("reserved_fallback:4",)

    def test_pendant_priority_over_reserved(self):
        # P4: both inner vertices are small but their only non-pendant edge
        # is the middle one; pendant colors survive, middle edge goes Red
        g = path_graph(4)
        c = color_threshold(g, SMALL_PARAMS, seed=0, small_threshold=2.5)
        red = c.palette_size - 2
        assert c.colors == (0, red, 1)
        assert c.provenance == ("pendant", "red_blue", "pendant")
        assert c.flags == ("reserved_fallback:1", "reserved_fallback:2")

    def test_all_pendant_small_vertex_flagged_unchanged(self):
        # star center below the cutoff has zero non-pendant edges to reserve
        g = star_graph(4)
        c = color_threshold(g, SMALL_PARAMS, seed=0, small_threshold=4.5)
        assert c.provenance == ("pendant",) * 4
        assert any(f == "reserved_fallback:0" for f in c.flags)

    @given(graphs(min_n=2, max_n=8, force_connected=True))
    @settings(max_examples=60, deadline=None)
    def test_structural_invariants(self, g):
        n = g.n
        c = color_threshold(g, SMALL_PARAMS, seed=5)
        degs = g.degrees()
        z1 = sum(1 for d in degs if d == 1)
        assert c.palette_size == max(z1, SMALL_PARAMS.q) + 2
        pendant_colors = [c.colors[e] for e in range(g.m) if c.provenance[e] == "pendant"]
        assert len(pendant_colors) == len(set(pendant_colors))
        assert all(col < z1 for col in pendant_colors)
        # every leaf's edge carries the pendant tag
        for v in range(n):
            if degs[v] == 1:
                _, eid = g.adj[v][0]
                assert c.provenance[eid] == "pendant"
        # random-rule edges can never wear a reserved color
        red, blue = c.palette_size - 2, c.palette_size - 1
        for e in range(g.m):
            if c.provenance[e] == "random":
                assert c.colors[e] not in (red, blue)

    @given(graphs(min_n=3, max_n=8, force_connected=True),
           st.floats(min_value=1.5, max_value=6.5))
    @settings(max_examples=60, deadline=None)
    def test_reserved_rule_with_custom_cutoff(self, g, cutoff):
        n = g.n
        c = color_threshold(g, SMALL_PARAMS, seed=2, small_threshold=cutoff)
        red, blue = c.palette_size - 2, c.palette_size - 1
        degs = g.degrees()
        flagged = {int(f.split(":", 1)[1]) for f in c.flags if f.startswith("reserved_fallback")}
        for v in range(n):
            if not 2 <= degs[v] < cutoff:
                continue
            incident = {c.colors[eid] for _, eid in g.adj[v]
                        if c.provenance[eid] == "red_blue"}
            if v not in flagged:
                assert {red, blue} <= incident
        for e in range(g.m):
            if c.provenance[e] == "red_blue":
                assert c.colors[e] in (red, blue)
            if c.provenance[e] == "random":
                assert c.colors[e] not in (red, blue)

    def test_determinism_and_seed_sensitivity(self):
        g = cycle_graph(8)
        a = color_threshold(g, SMALL_PARAMS, seed=9)
        b = color_threshold(g, SMALL_PARAMS, seed=9)
        assert a == b
        other = color_threshold(g, SMALL_PARAMS, seed=10)
        assert a.colors != other.colors


class TestLineDistanceNeighbors:
    def test_p3(self):
        g = path_graph(3)
        assert line_distance_neighbors(g, 0, 1) == {1}

    def test_star_all_adjacent(self):
        g = star_graph(4)
        assert line_distance_neighbors(g, 0, 1) == {1, 2, 3}

    def test_c6_radius_2(self):
        g = cycle_graph(6)
        for e in range(6):
            assert len(line_distance_neighbors(g, e, 2)) == 4

    def test_radius_zero_empty(self):
        g = cycle_graph(6)
        assert line_distance_neighbors(g, 0, 0) == set()

    def test_bad_edge_id(self):
        with pytest.raises(ValueError):
            line_distance_neighbors(path_graph(3), 2, 1)

    @given(graphs(min_n=2, max_n=7), st.integers(min_value=0, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_matches_line_bfs_oracle(self, g, radius):
        if g.m == 0:
            return
        edges = list(g.edges)
        for e in range(g.m):
            got = line_distance_neighbors(g, e, radius)
            want = set()
            for f in range(g.m):
                if f == e:
                    continue
                d = oracles.line_distance(edges, e, f)
                if d is not None and d <= radius:
                    want.add(f)
            assert got == want


class TestColorGreedyPower:
    def test_all_distinct_when_radius_covers_line_graph(self):
        g = path_graph(5)  # line graph is P4, diameter 3
        c = color_greedy_power(g, radius=3, q=g.m, seed=4)
        assert len(c.used_colors()) == g.m

    def test_petersen_proper_radius_2(self):
        c = color_greedy_power(PETERSEN, radius=2, q=40, seed=1)
        edges = list(PETERSEN.edges)
        for e in range(PETERSEN.m):
            for f in range(e + 1, PETERSEN.m):
                if oracles.line_distance(edges, e, f) <= 2:
                    assert c.colors[e] != c.colors[f]

    def test_c6_q3_proper_or_exhausted(self):
        g = cycle_graph(6)
        for seed in range(20):
            try:
                c = color_greedy_power(g, radius=2, q=3, seed=seed)
            except PaletteExhausted:
                continue
            for e in range(6):
                for f in line_distance_neighbors(g, e, 2):
                    assert c.colors[e] != c.colors[f]

    def test_c6_q5_never_exhausted(self):
        # the radius-2 line power of C6 is 4-regular, so 5 colors always work
        g = cycle_graph(6)
        for seed in range(20):
            color_greedy_power(g, radius=2, q=5, seed=seed)

    def test_exhaustion_names_the_edge(self):
        g = path_graph(3)
        with pytest.raises(PaletteExhausted) as exc:
            color_greedy_power(g, radius=1, q=1, seed=0)
        assert exc.value.edge_id == 1

    def test_depth_k_bfs_trees_rainbow(self):
        # properness at radius 2k makes every depth-k BFS tree rainbow:
        # two tree edges are joined through at most 2k - 1 other tree edges
        from rainbowconn.graphs import grow_bfs_tree
        k = 2
        c = color_greedy_power(PETERSEN, radius=2 * k, q=60, seed=7)
        for root in range(PETERSEN.n):
            t = grow_bfs_tree(PETERSEN, root, depth=k)
            tree_cols = [c.colors[e] for e in t.edge_ids()]
            assert len(tree_cols) == len(set(tree_cols))

    def test_determinism(self):
        a = color_greedy_power(PETERSEN, radius=2, q=40, seed=11)
        b = color_greedy_power(PETERSEN, radius=2, q=40, seed=11)
        assert a == b
        assert a.colors != color_greedy_power(PETERSEN, radius=2, q=40, seed=12).colors

    def test_guards(self):
        with pytest.raises(ValueError):
            color_greedy_power(PETERSEN, radius=2, q=0)
        with pytest.raises(ValueError):
            color_greedy_power(PETERSEN, radius=-1, q=5)

    def test_gate4_r5_temporary_memory(self):
        # regular_n2000's peak RSS is reached at the end of a run, so a
        # large transient here would show there; the ball rows take
        # n^2 / 8 = 0.5 MB, and the build holds three such arrays at most
        g = gen_regular_config(GenParams(n=2000, r=5, seed=0))
        p = regular_params(2000, 5)
        tracemalloc.start()
        try:
            color_greedy_power(g, radius=2 * p.k, q=p.q, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20


class TestGreedyMatchesEdgeWalk:
    """``color_greedy_power`` reads each edge's ball off per-vertex bitset
    rows and ``line_distance_neighbors`` off two cut BFS sweeps;
    ``oracles`` keeps the edge walk they replaced."""

    @staticmethod
    def outcome(color, g, radius, q, seed):
        try:
            return color(g, radius, q, seed)
        except PaletteExhausted as exc:
            return ("exhausted", exc.edge_id, str(exc))

    @given(g=graphs(min_n=1, max_n=12), radius=st.integers(0, 5),
           q=st.integers(1, 24), seed=st.integers(0, 2 ** 32))
    @example(g=Graph(1, []), radius=2, q=1, seed=0)
    @example(g=Graph(5, []), radius=3, q=1, seed=0)
    @example(g=TWO_PARTS, radius=5, q=4, seed=3)
    @example(g=path_graph(6), radius=0, q=1, seed=0)
    @settings(max_examples=200, deadline=None)
    def test_colors_and_exhaustion_match_before(self, g, radius, q, seed):
        want = self.outcome(oracles.color_greedy_power_before, g, radius, q, seed)
        assert self.outcome(color_greedy_power, g, radius, q, seed) == want

    @given(g=graphs(min_n=1, max_n=12), radius=st.integers(0, 5))
    @example(g=TWO_PARTS, radius=5)
    @settings(max_examples=100, deadline=None)
    def test_line_distance_neighbors_match_before(self, g, radius):
        for e in range(g.m):
            want = oracles.line_distance_neighbors_before(g, e, radius)
            assert line_distance_neighbors(g, e, radius) == want

    def test_gate4_r3_coloring_matches_before(self):
        g = gen_regular_config(GenParams(n=2000, r=3, seed=0))
        p = regular_params(2000, 3)
        want = oracles.color_greedy_power_before(g, 2 * p.k, p.q, seed=1)
        assert color_greedy_power(g, radius=2 * p.k, q=p.q, seed=1) == want

    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 128, 129])
    def test_bitset_word_edges_match_before(self, n):
        g = two_parts(n)
        for radius in range(7):
            for q in (3, g.m + 1):  # g.m + 1 is never exhausted
                want = self.outcome(oracles.color_greedy_power_before, g, radius, q, 2)
                assert self.outcome(color_greedy_power, g, radius, q, 2) == want
        if n > 64:
            assert self.outcome(color_greedy_power, g, 6, 3, 2)[0] == "exhausted"

    @pytest.mark.parametrize("g", [PETERSEN, path_graph(40)], ids=["petersen", "path"])
    @pytest.mark.parametrize("q", [10 ** 9, 10 ** 30], ids=["1e9", "1e30"])
    def test_huge_palette_costs_nothing(self, g, q):
        # no step may grow with q; past int64 the colors stay Python ints
        start = time.perf_counter()
        got = color_greedy_power(g, radius=3, q=q, seed=4)
        assert time.perf_counter() - start < 1.0
        assert got == oracles.color_greedy_power_before(g, 3, q, seed=4)

    @pytest.mark.parametrize("g", [path_graph(12), PETERSEN, TWO_PARTS, two_parts(129)],
                             ids=["path", "petersen", "disconnected", "n129"])
    def test_huge_radius_is_radius_n_minus_1(self, g):
        # two balls n - 2 deep already hold every end of e's component, and
        # a ball is never grown deeper than n - 1, however large the radius
        far = color_greedy_power(g, radius=10 ** 8, q=g.m, seed=5)
        assert far == color_greedy_power(g, radius=g.n - 1, q=g.m, seed=5)
        for e in range(g.m):
            assert (line_distance_neighbors(g, e, 10 ** 8)
                    == line_distance_neighbors(g, e, g.n - 1))


def gadget_edges(offset):
    # triangle with a 2-edge path hanging off each corner
    base = [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (1, 5), (5, 6), (2, 7), (7, 8)]
    return [(u + offset, v + offset) for u, v in base]


class TestRecolorCycleClasses:
    @pytest.mark.parametrize("m", [2, 9])
    def test_wrong_length_names_both_counts(self, m):
        c = EdgeColoring(tuple(range(m)), m, ("greedy",) * m)
        with pytest.raises(ValueError, match=f"coloring colors {m} edges but the graph has 6"):
            recolor_cycle_classes(cycle_graph(6), c, k=1)

    def test_forest_untouched(self):
        g = path_graph(6)
        base = color_greedy_power(g, radius=2, q=6, seed=1)
        rec, classes = recolor_cycle_classes(g, base, k=2)
        assert rec.colors == base.colors
        assert rec.palette_size == base.palette_size
        assert classes == []
        assert rec.flags == ()

    def test_twin_gadgets_recolored_identically(self):
        g = graph_from_edges(18, gadget_edges(0) + gadget_edges(9))
        base = color_greedy_power(g, radius=2, q=30, seed=3)
        rec, classes = recolor_cycle_classes(g, base, k=2)
        assert rec.flags == ()
        assert len(classes) == 1
        cls = classes[0]
        assert cls.cycle_length == 3
        start, stop = cls.fresh_palette
        assert start == base.palette_size
        # both components induce the same 6 class edges; their canonical
        # colorings must agree position by position
        eid = {e: i for i, e in enumerate(g.edges)}
        first = [rec.colors[eid[(u, v)]] for u, v in gadget_edges(0)
                 if rec.provenance[eid[(u, v)]] == "cycle_class"]
        second = [rec.colors[eid[(u, v)]] for u, v in gadget_edges(9)
                  if rec.provenance[eid[(u, v)]] == "cycle_class"]
        assert first == second
        assert len(first) == 6
        assert all(start <= col < stop for col in first)

    def test_k4_ambiguous_left_alone(self):
        g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        base = color_greedy_power(g, radius=2, q=12, seed=0)
        rec, classes = recolor_cycle_classes(g, base, k=1)
        assert rec.colors == base.colors
        assert classes == []
        assert "ambiguous_roots:4" in rec.flags

    def test_fresh_palettes_disjoint_and_contiguous(self):
        g = gen_regular_config(GenParams(n=400, r=3, seed=2))
        p = regular_params(400, 3)
        base = color_greedy_power(g, radius=2 * p.k, q=p.q, seed=2)
        rec, classes = recolor_cycle_classes(g, base, k=p.k)
        cursor = base.palette_size
        for cls in sorted(classes, key=lambda c: c.fresh_palette):
            start, stop = cls.fresh_palette
            assert start == cursor
            assert stop > start
            cursor = stop
        assert cursor == rec.palette_size
        for e in range(g.m):
            if rec.provenance[e] == "cycle_class":
                assert rec.colors[e] >= base.palette_size
            else:
                assert rec.colors[e] == base.colors[e]

    def test_regular_2000_measured(self):
        g = gen_regular_config(GenParams(n=2000, r=3, seed=11))
        p = regular_params(2000, 3)
        base = color_greedy_power(g, radius=2 * p.k, q=p.q, seed=11)
        rec, classes = recolor_cycle_classes(g, base, k=p.k)
        fresh = rec.palette_size - base.palette_size
        assert len(classes) == 5
        assert sorted(c.cycle_length for c in classes) == [3, 4, 5, 6, 7]
        assert fresh == 43
        assert fresh <= math.log(2000) ** 2
        assert rec.flags == ()

    def test_mismatched_coloring_rejected(self):
        g = path_graph(4)
        wrong = random_coloring(path_graph(3), 4, seed=0)
        with pytest.raises(ValueError):
            recolor_cycle_classes(g, wrong, k=1)

    def test_negative_depth_rejected(self):
        # a radius below 0 used to make every ball the whole graph
        g = cycle_graph(6)
        with pytest.raises(ValueError, match="negative"):
            recolor_cycle_classes(g, random_coloring(g, 6, seed=0), k=-1)


class TestEdgeColoring:
    def test_negative_palette_refused(self):
        # a palette of -3 with no edges used to load and verify
        with pytest.raises(ValueError, match="^palette size -3 is negative$"):
            EdgeColoring((), -3, ())

    def test_empty_palette_without_edges_accepted(self):
        assert EdgeColoring((), 0, ()).m == 0

    @pytest.mark.parametrize("colors, bad", [
        ((0, 3, 1), 3), ((2, -1, 0), -1), ((-2, 5, 0), -2),
        # colors below 0 and at or above the palette: the smallest is named,
        # and the largest when none is below 0
        ((7, -1, 4, 1, -3, 9, -3), -3), ((3, 9, 3, 0, 4), 9), ((-5, -5, 2, 3), -5),
    ])
    def test_color_outside_palette_named(self, colors, bad):
        with pytest.raises(ValueError, match=rf"^color {bad} outside palette \[0, 3\)$"):
            EdgeColoring(colors, 3, ("random",) * len(colors))

    def test_unknown_tag_named(self):
        with pytest.raises(ValueError, match="^unknown provenance tag 'bogus'$"):
            EdgeColoring((0, 1), 2, ("random", "bogus"))


class TestColoringFile:
    def test_exact_bytes(self):
        c = EdgeColoring((2, 0), 3, ("greedy", "pendant"))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "c.colors"
            write_coloring(c, path)
            assert path.read_text() == "2 3\n0 2 greedy\n1 0 pendant\n"
            assert read_coloring(path) == c

    def test_round_trip_bit_exact(self):
        g = cycle_graph(8)
        c = color_greedy_power(g, radius=2, q=9, seed=6)
        with tempfile.TemporaryDirectory() as d:
            a, b = Path(d) / "a", Path(d) / "b"
            write_coloring(c, a)
            write_coloring(read_coloring(a), b)
            assert a.read_bytes() == b.read_bytes()

    def test_comments_and_blanks_ignored(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "c.colors"
            path.write_text("# palette\n2 5\n\n0 4 random  # top color\n1 0 random\n")
            c = read_coloring(path)
            assert c.colors == (4, 0)
            assert c.palette_size == 5

    def test_truncated_file_rejected(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "c.colors"
            path.write_text("2 5\n0 1 random\n")
            with pytest.raises(ValueError):
                read_coloring(path)

    def test_negative_edge_id_rejected(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "c.colors"
            path.write_text("2 2\n0 1 random\n-1 0 random\n")
            with pytest.raises(ValueError, match=r"c\.colors:3: edge id -1 outside"):
                read_coloring(path)

    def test_edge_id_past_end_rejected(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "c.colors"
            path.write_text("2 2\n0 1 random\n2 0 random\n")
            with pytest.raises(ValueError, match=r"c\.colors:3: edge id 2 outside"):
                read_coloring(path)

    def test_repeated_edge_id_rejected(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "c.colors"
            path.write_text("2 2\n# note\n0 1 random\n0 0 random\n")
            with pytest.raises(ValueError, match=r"c\.colors:4: edge id 0 colored twice"):
                read_coloring(path)

    def test_random_coloring_round_trip(self):
        g = star_graph(6)
        c = random_coloring(g, 9, seed=5)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "c.colors"
            write_coloring(c, path)
            assert read_coloring(path) == c
