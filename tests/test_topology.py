import numpy as np
import pytest

from gridclear.topology import (Topology, build, from_adjacency, in_sellers,
                                out_buyers)


def test_full_topology():
    t = build("full", 4)
    assert t.m == 4
    assert t.edge_count() == 12
    assert (0, 1) in t.edges() and (3, 0) in t.edges()
    assert in_sellers(t, 2) == {0, 1, 3}
    assert out_buyers(t, 2) == {0, 1, 3}


def test_ring_topology():
    t = build("ring", 4)
    assert t.edge_count() == 8
    assert in_sellers(t, 0) == {1, 3}
    assert in_sellers(t, 2) == {1, 3}
    assert (0, 2) not in t.edges()


def test_line_topology():
    t = build("line", 4)
    assert t.edge_count() == 6
    assert in_sellers(t, 0) == {1}
    assert in_sellers(t, 3) == {2}
    assert in_sellers(t, 1) == {0, 2}
    assert (3, 0) not in t.edges()


def test_single_node_has_no_edges():
    for kind in ("full", "ring", "line"):
        t = build(kind, 1)
        assert t.edge_count() == 0
        assert in_sellers(t, 0) == set()


def test_edges_are_directed_pairs():
    t = build("line", 3)
    assert sorted(t.edges()) == [(0, 1), (1, 0), (1, 2), (2, 1)]


def test_from_adjacency_coerces_to_bool():
    t = from_adjacency([[0, 1], [1, 0]])
    assert t.adj == ((False, True), (True, False))
    assert t.m == 2


def test_asymmetric_adjacency_allowed():
    # 0 may sell to 1 but not the reverse
    t = from_adjacency([[0, 1], [0, 0]])
    assert out_buyers(t, 0) == {1}
    assert in_sellers(t, 0) == set()
    assert out_buyers(t, 1) == set()


def test_self_edge_rejected():
    with pytest.raises(ValueError, match="diagonal"):
        from_adjacency([[1, 0], [0, 0]])


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        Topology(2, ((False,), (False, False)))
    with pytest.raises(ValueError):
        Topology(0, ())
    with pytest.raises(ValueError):
        build("star", 3)
    with pytest.raises(ValueError):
        build("full", 0)


def test_node_out_of_range():
    t = build("full", 3)
    with pytest.raises(ValueError, match="out of range"):
        in_sellers(t, 3)
    with pytest.raises(ValueError, match="out of range"):
        out_buyers(t, -1)


def random_digraphs():
    """50 random directed adjacencies of 1-12 nodes, mostly asymmetric."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(1, 13))
        rows = rng.random((m, m)) < rng.uniform(0.1, 0.9)
        np.fill_diagonal(rows, False)
        yield from_adjacency(rows.tolist())


def test_cached_neighbors_match_a_scan():
    for t in random_digraphs():
        m = t.m
        for i in range(m):
            assert in_sellers(t, i) == {j for j in range(m) if t.adj[j][i]}
            assert out_buyers(t, i) == {j for j in range(m) if t.adj[i][j]}
            assert t.sellers[i] == tuple(sorted(in_sellers(t, i)))
            assert t.buyers[i] == tuple(sorted(out_buyers(t, i)))
        scan = [(i, j) for i in range(m) for j in range(m) if t.adj[i][j]]
        assert t.edges() == scan      # row-major order
        assert t.edge_count() == len(scan)
        sellers, buyers = t.edge_index
        assert list(zip(sellers.tolist(), buyers.tolist())) == scan


def test_accessors_return_fresh_copies():
    t = build("ring", 5)
    in_sellers(t, 0).add(2)
    out_buyers(t, 0).clear()
    t.edges().append((0, 2))
    assert in_sellers(t, 0) == {1, 4}
    assert out_buyers(t, 0) == {1, 4}
    assert (0, 2) not in t.edges() and len(t.edges()) == 10
