"""Exact and budgeted rainbow path finding, report plumbing, brute-force rc."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rainbowconn import graphs as graphs_mod
from rainbowconn import verify as verify_mod
from rainbowconn.coloring import (EdgeColoring, color_greedy_power, color_threshold,
                                  random_coloring, recolor_cycle_classes, regular_params,
                                  threshold_params)
from rainbowconn.errors import GuardError, NotConnected
from rainbowconn.graphs import (GenParams, Graph, bfs_distances, complete_graph, cycle_graph,
                                diameter, gen_gnp, gen_regular_config, graph_from_edges,
                                path_graph, star_graph)
from rainbowconn.rng import derive_seed
from rainbowconn.verify import (
    PathWitness,
    VerifyReport,
    brute_force_rc,
    rainbow_path_exact,
    rainbow_path_search,
    rc_lower_bound,
    report_text,
    sample_pairs,
    verify_all_pairs,
    verify_sampled,
    witness_lines,
    witness_ok,
)
from strategies import graphs, hub_path, sparse_graphs


def mono(g, color=0, palette=1):
    return EdgeColoring((color,) * g.m, palette, ("random",) * g.m)


def distinct(g):
    return EdgeColoring(tuple(range(g.m)), g.m, ("random",) * g.m)


# C4 as 0-1-2-3-0; canonical edge order (0,1) (0,3) (1,2) (2,3)
C4 = cycle_graph(4)
C4_ALTERNATING = EdgeColoring((0, 1, 1, 0), 2, ("random",) * 4)


class TestWitnessOk:
    def test_valid(self):
        w = PathWitness((0, 1, 2), (0, 2), frozenset({0, 1}))
        assert witness_ok(C4, C4_ALTERNATING, w)

    def test_trivial_single_vertex(self):
        assert witness_ok(C4, C4_ALTERNATING, PathWitness((0,), (), frozenset()))

    def test_rejects_wrong_edge(self):
        w = PathWitness((0, 1, 2), (0, 3), frozenset({0}))
        assert not witness_ok(C4, C4_ALTERNATING, w)

    def test_rejects_repeated_vertex(self):
        w = PathWitness((0, 1, 0), (0, 0), frozenset({0}))
        assert not witness_ok(C4, C4_ALTERNATING, w)

    def test_rejects_repeated_color(self):
        g = path_graph(3)
        c = mono(g)
        w = PathWitness((0, 1, 2), (0, 1), frozenset({0}))
        assert not witness_ok(g, c, w)

    @pytest.mark.parametrize("eids", [(-1, 1), (3, 4), (3, 99)])
    def test_rejects_edge_id_outside_graph(self, eids):
        # (2, 3, 0) is a rainbow path on C4's edges 3 and 1; -1 must not
        # wrap around to edge 3, and 4 is past the last id
        assert witness_ok(C4, C4_ALTERNATING, PathWitness((2, 3, 0), (3, 1), frozenset({0, 1})))
        assert not witness_ok(C4, C4_ALTERNATING, PathWitness((2, 3, 0), eids, frozenset({0, 1})))

    def test_rejects_stale_color_set(self):
        w = PathWitness((0, 1, 2), (0, 2), frozenset({0, 5}))
        assert not witness_ok(C4, C4_ALTERNATING, w)


@pytest.mark.parametrize("verifier", [rainbow_path_exact, rainbow_path_search],
                         ids=["exact", "search"])
@pytest.mark.parametrize("x, y, name, bad", [(-1, 2, "x", -1), (6, 2, "x", 6),
                                             (2, -1, "y", -1), (2, 6, "y", 6),
                                             (-1, -1, "x", -1)],
                         ids=["x-1", "x_n", "y-1", "y_n", "both-1"])
def test_vertex_outside_graph_rejected(verifier, x, y, name, bad):
    # these returned None ("not found"), raised a numpy IndexError or a
    # GuaranteeViolation for a path through vertex -1
    g = cycle_graph(6)
    msg = f"^{name} {bad} is not a vertex of a graph on 6 vertices$"
    with pytest.raises(ValueError, match=msg):
        verifier(g, distinct(g), x, y)


class TestRainbowPathExact:
    def test_c4_alternating(self):
        w = rainbow_path_exact(C4, C4_ALTERNATING, 0, 2)
        assert w is not None
        assert w.vertices == (0, 1, 2)
        assert w.color_set == {0, 1}

    def test_c4_monochromatic_opposite_pair(self):
        assert rainbow_path_exact(C4, mono(C4), 0, 2) is None
        adj = rainbow_path_exact(C4, mono(C4), 0, 1)
        assert adj is not None and adj.length == 1

    def test_k5_one_color_all_adjacent(self):
        g = complete_graph(5)
        c = mono(g)
        for u in range(5):
            for v in range(u + 1, 5):
                w = rainbow_path_exact(g, c, u, v)
                assert w is not None and w.length == 1

    def test_identity_pair(self):
        w = rainbow_path_exact(C4, mono(C4), 3, 3)
        assert w is not None and w.length == 0 and w.vertices == (3,)

    def test_max_len_cuts_off(self):
        g = path_graph(4)
        c = distinct(g)
        assert rainbow_path_exact(g, c, 0, 3, max_len=2) is None
        assert rainbow_path_exact(g, c, 0, 3, max_len=3) is not None

    def test_finds_longer_detour_when_short_path_clashes(self):
        # direct 0-1-2 repeats a color; the 3-edge detour is rainbow
        # edge ids in sorted order: (0,1) (0,3) (1,2) (2,4) (3,4)
        g = graph_from_edges(5, [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4)])
        c = EdgeColoring((0, 1, 0, 3, 2), 4, ("random",) * 5)
        w = rainbow_path_exact(g, c, 0, 2)
        assert w is not None
        assert w.vertices == (0, 3, 4, 2)

    def test_guard_on_wide_palette_and_length(self):
        g = path_graph(26)
        c = distinct(g)
        with pytest.raises(GuardError):
            rainbow_path_exact(g, c, 0, 25)
        # either bound alone staying small keeps it tractable
        assert rainbow_path_exact(g, c, 0, 10, max_len=24) is not None
        narrow = random_coloring(g, 24, seed=0)
        rainbow_path_exact(g, narrow, 0, 25)

    def test_negative_max_len_rejected(self):
        # -1 used to pass the state-space guard and bound nothing
        g = cycle_graph(40)
        c = distinct(g)
        with pytest.raises(GuardError):
            rainbow_path_exact(g, c, 0, 20, max_len=30)
        with pytest.raises(ValueError, match="max_len -1"):
            rainbow_path_exact(g, c, 0, 20, max_len=-1)

    @given(graphs(min_n=2, max_n=6), st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80, deadline=None)
    def test_existence_matches_naive_enumeration(self, g, q, seed):
        c = random_coloring(g, q, seed=seed) if g.m else EdgeColoring((), q, ())
        edges = list(g.edges)
        cols = list(c.colors)
        for x in range(g.n):
            for y in range(x + 1, g.n):
                got = rainbow_path_exact(g, c, x, y)
                want = oracles.has_rainbow_path(g.n, edges, cols, x, y)
                assert (got is not None) == want
                if got is not None:
                    assert witness_ok(g, c, got)


class TestRainbowPathSearch:
    def test_distinct_tree_yields_tree_path(self):
        g = path_graph(5)
        w = rainbow_path_search(g, distinct(g), 0, 4)
        assert w is not None
        assert w.vertices == (0, 1, 2, 3, 4)

    def test_star_center_detour(self):
        g = star_graph(4)
        w = rainbow_path_search(g, distinct(g), 1, 4)
        assert w is not None and w.vertices == (1, 0, 4)

    def test_budget_zero_returns_none(self):
        g = path_graph(4)
        assert rainbow_path_search(g, distinct(g), 0, 3, budget=0) is None

    @pytest.mark.parametrize("kwargs, name", [({"max_len": -1}, "max_len"),
                                              ({"budget": -1}, "budget")])
    def test_negative_bounds_rejected(self, kwargs, name):
        # both used to return None, which reads as "no rainbow path"
        g = path_graph(4)
        with pytest.raises(ValueError, match=f"{name} -1"):
            rainbow_path_search(g, distinct(g), 0, 3, **kwargs)

    def test_disconnected_pair(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        assert rainbow_path_search(g, distinct(g), 0, 3) is None

    def test_palette_caps_depth(self):
        # pair at hop distance 5 can never be joined with 3 colors
        g = path_graph(6)
        c = random_coloring(g, 3, seed=1)
        assert rainbow_path_search(g, c, 0, 5) is None

    def test_identity_pair(self):
        g = path_graph(3)
        w = rainbow_path_search(g, mono(g), 2, 2)
        assert w is not None and w.length == 0

    def test_determinism(self):
        g = cycle_graph(8)
        c = random_coloring(g, 6, seed=3)
        a = rainbow_path_search(g, c, 0, 4, seed=9)
        b = rainbow_path_search(g, c, 0, 4, seed=9)
        assert a == b

    @given(graphs(min_n=2, max_n=6, force_connected=True),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=80, deadline=None)
    def test_sound_under_any_budget(self, g, q, seed, budget):
        c = random_coloring(g, q, seed=seed)
        w = rainbow_path_search(g, c, 0, g.n - 1, budget=budget, seed=seed)
        if w is not None:
            assert witness_ok(g, c, w)
            assert w.vertices[0] == 0 and w.vertices[-1] == g.n - 1

    @given(graphs(min_n=2, max_n=6, force_connected=True),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_complete_at_small_depth_with_full_budget(self, g, q, seed):
        c = random_coloring(g, q, seed=seed)
        for y in range(1, g.n):
            exact = rainbow_path_exact(g, c, 0, y)
            if exact is not None and exact.length <= 4:
                assert rainbow_path_search(g, c, 0, y, seed=seed) is not None

    @given(graphs(min_n=2, max_n=8), st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_exact_with_budget_to_spare(self, g, q, seed):
        # 8 vertices have under 10^5 expansions over all limits, each
        # shuffling at most 7 neighbor slots, so a budget of 10^6 never runs
        # out: a None proves absence, and the first limit that finds a path
        # is the shortest rainbow path's length
        c = random_coloring(g, q, seed=seed) if g.m else EdgeColoring((), q, ())
        for x in range(g.n):
            for y in range(x + 1, g.n):
                exact = rainbow_path_exact(g, c, x, y)
                w = rainbow_path_search(g, c, x, y, budget=10 ** 6, seed=seed)
                assert (w is None) == (exact is None)
                assert w is None or w.length == exact.length

    @pytest.mark.parametrize("length", [9, 10, 12])
    def test_deepens_past_four_diameters(self, length):
        # diameter 2, and the one rainbow 0-length path is the path itself:
        # a cap of 4 * diameter returned None with nearly all the budget left
        g, c = hub_path(length)
        w = rainbow_path_search(g, c, 0, length, budget=10 ** 6)
        assert w is not None and w.length == rainbow_path_exact(g, c, 0, length).length == length

    @pytest.mark.parametrize("length, budget", [(300, 0), (300, 1), (300, 5000),
                                                (300, 10 ** 5), (2000, 10 ** 6)])
    def test_budget_bounds_the_slots_shuffled(self, monkeypatch, length, budget):
        # the hub path with edge (1, 2) recolored to edge (0, 1)'s color has
        # no rainbow 0-length path, and each visit to the hub shuffles its
        # length + 1 slots.  The search gives up before the shuffle that
        # would pass the budget, so the slots it shuffled stay within it
        # and within one hub slice of it
        g, c = hub_path(length)
        colors = list(c.colors)
        colors[g.edge_id(1, 2)] = colors[g.edge_id(0, 1)]
        c = EdgeColoring(tuple(colors), c.palette_size, c.provenance)
        slots = []
        inner = verify_mod.stream

        def spying_stream(*args):
            rng = inner(*args)
            shuffle = rng.shuffle

            def counted(items):
                slots.append(len(items))
                shuffle(items)

            rng.shuffle = counted
            return rng

        monkeypatch.setattr(verify_mod, "stream", spying_stream)
        assert rainbow_path_search(g, c, 0, length, budget=budget) is None
        assert budget - (length + 1) < sum(slots) <= budget


class TestRewrittenSearches:
    """The searches against the versions they replaced: same witness or both None."""

    @given(graphs(min_n=2, max_n=8), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=10**6),
           st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
           st.one_of(st.just(0), st.integers(min_value=1, max_value=40), st.just(10**6)),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_witness_as_before(self, g, q, seed, max_len, budget, data):
        c = random_coloring(g, q, seed=seed) if g.m else EdgeColoring((), q, ())
        x = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        y = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        assert (rainbow_path_search(g, c, x, y, max_len, budget, seed)
                == oracles.rainbow_path_search_before(
                    g, c, x, y, max_len if max_len is not None else g.n - 1, budget, seed))
        assert (rainbow_path_exact(g, c, x, y, max_len)
                == oracles.rainbow_path_exact_before(g, c, x, y, max_len))

    @given(sparse_graphs(min_n=2, max_n=40), st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=10**6),
           st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
           st.one_of(st.just(0), st.integers(min_value=1, max_value=60), st.just(10**6)),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_witness_as_before_on_sparse_graphs(self, g, q, seed, max_len, budget, data):
        # long shortest paths: the corridor's balls reach radius 2 and more,
        # and its labels are continued inside x's ball
        c = random_coloring(g, q, seed=seed) if g.m else EdgeColoring((), q, ())
        x = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        y = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        assert (rainbow_path_search(g, c, x, y, max_len, budget, seed)
                == oracles.rainbow_path_search_before(
                    g, c, x, y, max_len if max_len is not None else g.n - 1, budget, seed))

    def test_every_budget_matches_on_the_threshold_graph(self):
        # each budget from 0 to one past the slots a search shuffles cuts
        # it where the one-sided sweep's search was cut; the tight palette
        # makes some searches run past their first limit
        n = 2000
        g = gen_gnp(GenParams(n=n, omega=math.log(math.log(n)), seed=0))
        c = random_coloring(g, 8, seed=2)
        longer = 0
        for x, y in sample_pairs(n, 20, 11):
            spent = None  # the smallest budget that finds the witness
            for budget in range(1000):
                w = rainbow_path_search(g, c, x, y, budget=budget, seed=x)
                assert w == oracles.rainbow_path_search_before(g, c, x, y, g.n - 1,
                                                               budget=budget, seed=x)
                if spent is None and w is not None:
                    spent, found = budget, w
                if spent is not None and budget > spent:
                    break
            assert spent is not None and w == found
            longer += found.length > int(bfs_distances(g, y)[x])
        assert longer > 0

    def test_budget_exhaustion_matches(self):
        # the x..y path of 5 edges shuffles exactly 9 neighbor slots, x's
        # one and two at each inner vertex: one fewer runs out
        g = path_graph(6)
        c = distinct(g)
        for budget, found in ((8, False), (9, True)):
            new = rainbow_path_search(g, c, 0, 5, budget=budget)
            assert new == oracles.rainbow_path_search_before(g, c, 0, 5, g.n - 1, budget=budget)
            assert (new is not None) == found

    def test_exhaustion_across_deepening_rounds(self):
        # C8 with one color repeated on the short side: the first round's
        # shuffled slots count against the budget of the longer rounds
        g = cycle_graph(8)
        c = EdgeColoring((0, 1, 0, 2, 3, 4, 5, 6), 7, ("random",) * 8)
        outcomes = set()
        for budget in range(0, 30):
            new = rainbow_path_search(g, c, 0, 3, budget=budget, seed=budget)
            assert new == oracles.rainbow_path_search_before(g, c, 0, 3, g.n - 1,
                                                             budget=budget, seed=budget)
            outcomes.add(None if new is None else new.length)
        assert outcomes == {None, 5}

    @pytest.mark.parametrize("name", ["regular_r3", "threshold_gnp", "disconnected"])
    def test_same_witness_as_before_at_scale(self, name):
        # 300 seeded pairs per graph.  The graphs have the level growth the
        # capped sweep is for; some witnesses are longer than dist(x), so
        # the sweep is extended mid-search.  On the disconnected graph some
        # pairs cross components.
        n = 2000
        if name == "regular_r3":
            g = gen_regular_config(GenParams(n=n, r=3, seed=0))
            rp = regular_params(n, 3)
            c = recolor_cycle_classes(g, color_greedy_power(g, radius=2 * rp.k, q=rp.q, seed=1),
                                      rp.k)[0]
        elif name == "threshold_gnp":
            g = gen_gnp(GenParams(n=n, omega=math.log(math.log(n)), seed=0))
            c = color_threshold(g, threshold_params(n), seed=derive_seed(0, "color"))
        else:
            g = gen_gnp(GenParams(n=n, p=1.2 / n, seed=3))
            c = random_coloring(g, 60, seed=2)
            assert diameter(g, mode="double_sweep") is None
        longer = apart = found = 0
        for x, y in sample_pairs(n, 300, 7):
            seed = derive_seed(3, f"{x}:{y}")
            w = rainbow_path_search(g, c, x, y, budget=20000, seed=seed)
            assert w == oracles.rainbow_path_search_before(g, c, x, y, g.n - 1,
                                                           budget=20000, seed=seed)
            dist_x = int(bfs_distances(g, y)[x])
            apart += dist_x < 0
            if w is not None:
                found += 1
                longer += w.length > dist_x
        if name == "disconnected":
            assert apart > 0 and found > 0
        else:
            assert found == 300 and longer > 0


class TestVerifyDrivers:
    def test_k4_one_color(self):
        g = complete_graph(4)
        rep = verify_all_pairs(g, mono(g))
        assert (rep.pairs_checked, rep.pairs_connected) == (6, 6)
        assert rep.max_witness_length == 1

    def test_p4_monochromatic_adjacent_only(self):
        g = path_graph(4)
        rep = verify_all_pairs(g, mono(g))
        assert (rep.pairs_checked, rep.pairs_connected) == (6, 3)

    def test_star_distinct_pendants(self):
        g = star_graph(5)
        rep = verify_all_pairs(g, distinct(g))
        assert (rep.pairs_checked, rep.pairs_connected) == (15, 15)
        assert rep.max_witness_length == 2

    def test_guard_propagates(self):
        g = path_graph(26)
        with pytest.raises(GuardError):
            verify_all_pairs(g, distinct(g))

    def test_unknown_mode(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            verify_all_pairs(g, mono(g), mode="psychic")

    def test_search_mode_counts(self):
        g = cycle_graph(6)
        c = random_coloring(g, 6, seed=2)
        exact = verify_all_pairs(g, c, mode="exact")
        search = verify_all_pairs(g, c, mode="search")
        # search is sound, so it can only miss pairs, never invent them
        assert search.pairs_connected <= exact.pairs_connected

    def test_witnesses_optional(self):
        g = path_graph(4)
        rep = verify_all_pairs(g, distinct(g), keep_witnesses=False)
        assert rep.witnesses is None
        assert rep.pairs_connected == 6

    def test_sampled_clamps_and_repeats(self):
        g = cycle_graph(7)
        c = random_coloring(g, 7, seed=4)
        rep = verify_sampled(g, c, num_pairs=100, seed=5)
        assert rep.pairs_checked == 21
        assert rep.mode == "search"
        again = verify_sampled(g, c, num_pairs=100, seed=5)
        assert (rep.pairs_checked, rep.pairs_connected) == (again.pairs_checked,
                                                            again.pairs_connected)

    @pytest.mark.parametrize("num_pairs", [0, -5])
    def test_sampled_needs_a_pair(self, num_pairs):
        g = cycle_graph(7)
        with pytest.raises(ValueError, match="at least one"):
            verify_sampled(g, distinct(g), num_pairs=num_pairs)

    def test_sampled_subset(self):
        g = cycle_graph(10)
        c = distinct(g)
        rep = verify_sampled(g, c, num_pairs=5, seed=0, keep_witnesses=True)
        assert rep.pairs_checked == 5
        assert rep.pairs_connected == 5
        assert len(rep.witnesses) == 5


class TestReports:
    def test_statistics_derive_from_lengths(self):
        rep = VerifyReport(pairs_checked=4, lengths=(2, 5, 3), witnesses=None,
                           mode="search", elapsed=0.0)
        assert rep.pairs_connected == 3
        assert rep.success_rate == 0.75
        assert rep.max_witness_length == 5
        assert rep.mean_witness_length == pytest.approx(10 / 3)
        empty = VerifyReport(0, (), None, "search", 0.0)
        assert (empty.pairs_connected, empty.max_witness_length) == (0, 0)
        assert empty.mean_witness_length is None and empty.success_rate == 1.0

    def test_lengths_kept_without_witnesses(self):
        g = path_graph(4)
        rep = verify_all_pairs(g, distinct(g), keep_witnesses=False)
        assert rep.witnesses is None
        assert sorted(rep.lengths) == [1, 1, 1, 2, 2, 3]

    def make_report(self):
        g = path_graph(4)
        return verify_all_pairs(g, distinct(g))

    def test_text_na_without_timing(self):
        rep = self.make_report()
        text = report_text(rep)
        lines = dict(line.split("=", 1) for line in text.strip().splitlines())
        assert lines["mode"] == "exact"
        assert lines["pairs_checked"] == "6"
        assert lines["pairs_connected"] == "6"
        assert lines["success_rate"] == "1.000000"
        assert lines["elapsed"] == "NA"

    def test_text_with_timing(self):
        rep = self.make_report()
        lines = dict(line.split("=", 1)
                     for line in report_text(rep, include_timing=True).strip().splitlines())
        assert lines["elapsed"] != "NA"
        float(lines["elapsed"])

    def test_witness_lines_format(self):
        g = path_graph(3)
        rep = verify_all_pairs(g, distinct(g))
        lines = witness_lines(rep)
        assert lines == ["0 1: 0 1", "0 2: 0 1 2", "1 2: 1 2"]

    def test_witness_lines_empty_without_witnesses(self):
        g = path_graph(3)
        rep = verify_all_pairs(g, distinct(g), keep_witnesses=False)
        assert witness_lines(rep) == []


class TestBruteForceRc:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_cliques_are_one(self, n):
        rc, coloring = brute_force_rc(complete_graph(n))
        assert rc == 1
        assert coloring.palette_size == 1

    @pytest.mark.parametrize("n,want", [(4, 3), (5, 4), (6, 5)])
    def test_paths_need_n_minus_one(self, n, want):
        rc, _ = brute_force_rc(path_graph(n))
        assert rc == want

    @pytest.mark.parametrize("n,want", [(5, 3), (6, 3)])
    def test_cycles(self, n, want):
        rc, _ = brute_force_rc(cycle_graph(n))
        assert rc == want

    def test_star_needs_all_pendant_colors(self):
        rc, _ = brute_force_rc(star_graph(4))
        assert rc == 4

    def test_witness_coloring_revalidates(self):
        g = cycle_graph(6)
        rc, coloring = brute_force_rc(g)
        assert coloring.palette_size == rc
        rep = verify_all_pairs(g, coloring)
        assert rep.pairs_connected == rep.pairs_checked

    def test_unresolved_when_cap_too_low(self):
        assert brute_force_rc(cycle_graph(5), q_max=2) is None

    @pytest.mark.parametrize("g", [cycle_graph(5), Graph(1, [])])
    def test_negative_cap_rejected(self, g):
        with pytest.raises(ValueError, match="q_max -1 is negative"):
            brute_force_rc(g, q_max=-1)

    def test_not_connected(self):
        with pytest.raises(NotConnected):
            brute_force_rc(graph_from_edges(4, [(0, 1), (2, 3)]))

    def test_single_vertex(self):
        rc, coloring = brute_force_rc(Graph(1, []))
        assert rc == 0 and coloring.m == 0

    @pytest.mark.parametrize("g, want, rc", [
        (path_graph(2), 1, 1),    # K2: its one edge is pendant at both ends
        (path_graph(3), 2, 2),
        (star_graph(4), 4, 4),
        (cycle_graph(5), 2, 3),   # no pendant edges; the diameter is 2
    ], ids=["K2", "P3", "star4", "C5"])
    def test_lower_bound(self, g, want, rc):
        for mode in ("exact", "double_sweep"):
            assert rc_lower_bound(g, diameter(g, mode)) == want
        assert brute_force_rc(g)[0] == rc

    @given(graphs(min_n=3, max_n=6, force_connected=True),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_matches_naive_oracle(self, g, seed):
        if g.m > 8:
            return
        rc, _ = brute_force_rc(g)
        assert rc == oracles.naive_rc(g.n, list(g.edges))

    @given(graphs(min_n=3, max_n=6, force_connected=True),
           st.integers(min_value=2, max_value=6),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_monotone_under_connected_colorings(self, g, q, seed):
        if g.m > 8:
            return
        c = random_coloring(g, q, seed=seed)
        rep = verify_all_pairs(g, c)
        if rep.pairs_connected == rep.pairs_checked:
            rc, _ = brute_force_rc(g)
            assert rc <= q


# ----------------------------------------------------------------------------
# witness validation and per-pair BFS cost
# ----------------------------------------------------------------------------

SRC = Path(verify_mod.__file__).resolve().parents[1]


def test_make_witness_check_survives_optimize_flag():
    """python -O strips asserts; the witness check must still reject."""
    script = (
        "from rainbowconn.coloring import EdgeColoring\n"
        "from rainbowconn.errors import RainbowError\n"
        "from rainbowconn.graphs import path_graph\n"
        "from rainbowconn.verify import make_witness\n"
        "c = EdgeColoring((0, 0), 1, ('random', 'random'))\n"
        "try:\n"
        "    make_witness(path_graph(3), c, [0, 1, 2], [0, 1])\n"
        "except RainbowError as exc:\n"
        "    print('rejected', type(exc).__name__)\n"
        "else:\n"
        "    print('accepted')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "rejected GuaranteeViolation"


def test_search_labels_only_the_levels_it_reads(monkeypatch):
    # a search labels a ball around each end and, inside x's ball, y's
    # levels up to limit - 1: at distance >= 4 fewer than half the vertices
    # of y's levels 0..dist(x) - 1, which a sweep from y labels, and no full BFS
    g = gen_gnp(GenParams(n=5000, omega=2.0, seed=0))
    c = random_coloring(g, 40, seed=1)
    pairs = [(3, 4000), (17, 2500), (100, 4999), (0, 1), (1234, 321)]
    dists = {y: bfs_distances(g, y) for _, y in pairs}
    bfs_calls = []
    labelled = []  # per search, the vertices its corridor labelled
    inner_bfs, inner_corridor = graphs_mod.bfs_distances, graphs_mod.corridor_distances

    def counting_bfs(graph, source):
        bfs_calls.append(source)
        return inner_bfs(graph, source)

    def counting_corridor(graph, x, y):
        # levels 0 and 1 of both balls, x, y and their CSR slices, are
        # labelled without a level step: counted whole, whether drawn or not
        labelled.append(2 + graph.degree(x) + graph.degree(y))
        yield from inner_corridor(graph, x, y)

    def counting_step(inner):
        # each level step, bfs_levels' and the continuation's, top-down or not
        def step(*args):
            level = inner(*args)
            labelled[-1] += level.size
            return level
        return step

    monkeypatch.setattr(graphs_mod, "bfs_distances", counting_bfs)
    monkeypatch.setattr(verify_mod, "bfs_distances", counting_bfs)
    monkeypatch.setattr(verify_mod, "corridor_distances", counting_corridor)
    for name in ("_label_fresh", "_bottom_up"):
        monkeypatch.setattr(graphs_mod, name, counting_step(getattr(graphs_mod, name)))
    far = 0
    for x, y in pairs:
        w = rainbow_path_search(g, c, x, y, budget=20000, seed=x)
        assert w is not None
        dist_x = int(dists[y][x])
        if dist_x >= 4:
            far += 1
            sweep = int(((dists[y] >= 0) & (dists[y] < dist_x)).sum())
            assert labelled[-1] < sweep / 2, (x, y, labelled[-1], sweep)
    assert far >= 3
    assert len(labelled) == len(pairs)
    assert bfs_calls == []


@pytest.mark.parametrize("name", ["disconnected", "fresh"])
def test_search_runs_no_whole_graph_probe(monkeypatch, name):
    # the cap needs no diameter and no eccentricity: once a double sweep, or
    # on a disconnected graph a full BFS from y, set the default max_len
    if name == "disconnected":
        g = graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6), (5, 6)])
    else:
        g = path_graph(5)  # no diameter kept on it yet
    calls = []

    def counting(inner):
        def wrapped(graph, *args):
            calls.append(inner.__name__)
            return inner(graph, *args)
        return wrapped

    for module, name in ((graphs_mod, "bfs_distances"), (verify_mod, "bfs_distances"),
                         (graphs_mod, "_double_sweep")):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    c = distinct(g)
    w = rainbow_path_search(g, c, 0, 3)
    assert w is not None and w.vertices == (0, 1, 2, 3)
    if name == "disconnected":
        assert rainbow_path_search(g, c, 0, 5) is None
    assert calls == []


@pytest.mark.parametrize("m", [2, 9])
@pytest.mark.parametrize("verifier", [
    lambda g, c: rainbow_path_exact(g, c, 0, 3),
    lambda g, c: rainbow_path_search(g, c, 0, 3),
    lambda g, c: verify_sampled(g, c, 3),
    lambda g, c: verify_all_pairs(g, c, mode="search"),
], ids=["exact", "search", "sampled", "all_pairs"])
def test_coloring_of_wrong_length_rejected(verifier, m):
    # too short once read as "no rainbow path" or raised IndexError; too
    # long was accepted silently
    c = EdgeColoring(tuple(range(m)), m, ("random",) * m)
    with pytest.raises(ValueError, match=f"coloring colors {m} edges but the graph has 6"):
        verifier(cycle_graph(6), c)
