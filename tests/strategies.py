"""Shared hypothesis strategies for small graphs, and the hub family."""

from itertools import combinations

from hypothesis import strategies as st

from rainbowconn.coloring import EdgeColoring
from rainbowconn.graphs import Graph, connected, graph_from_edges


def hub_path(length):
    """The path 0..length, its edge (i, i + 1) in color i + 1, and a hub
    ``length + 1`` joined to every path vertex in color 0.  The diameter is
    2, but the only rainbow 0-``length`` path is the path itself: any path
    through the hub uses two edges of color 0."""
    hub = length + 1
    g = graph_from_edges(length + 2, [(i, i + 1) for i in range(length)]
                         + [(i, hub) for i in range(hub)])
    colors = tuple(0 if hub in e else max(e) for e in g.edges)
    return g, EdgeColoring(colors, length + 1, ("random",) * g.m)


@st.composite
def graphs(draw, min_n=2, max_n=8, force_connected=False):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    all_pairs = list(combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(all_pairs), max_size=len(all_pairs)))
    edges = [pair for pair, keep in zip(all_pairs, mask) if keep]
    g = Graph(n, edges)
    if force_connected:
        if not connected(g):
            extra = [(i, i + 1) for i in range(n - 1)]
            merged = sorted(set(edges) | set(extra))
            g = Graph(n, merged)
    return g


@st.composite
def forests(draw, min_n=2, max_n=10):
    """Random forest: each non-root vertex may attach to a smaller one."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = []
    for v in range(1, n):
        attach = draw(st.integers(min_value=-1, max_value=v - 1))
        if attach >= 0:
            edges.append((attach, v))
    return Graph(n, sorted(edges))


@st.composite
def sparse_graphs(draw, min_n=1, max_n=60):
    """Random graph with at most 3n/2 edges, drawn as vertex pairs: long
    shortest paths, and often several components and isolated vertices."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n // 2))
    return graph_from_edges(n, {(min(u, v), max(u, v)) for u, v in pairs if u != v})
