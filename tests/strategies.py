"""Shared hypothesis strategies for small graphs."""

from itertools import combinations

from hypothesis import strategies as st

from rainbowconn.graphs import Graph, connected, graph_from_edges


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
