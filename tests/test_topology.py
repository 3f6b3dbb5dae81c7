import numpy as np
import pytest

from gridclear.topology import Topology, build, from_adjacency


def test_full_topology():
    t = build("full", 4)
    assert t.m == 4
    assert len(t.edge_index[0]) == 12
    assert 1 in t.buyers[0] and 0 in t.buyers[3]
    assert t.sellers[2] == (0, 1, 3)
    assert t.buyers[2] == (0, 1, 3)


def test_ring_topology():
    t = build("ring", 4)
    assert len(t.edge_index[0]) == 8
    assert t.sellers[0] == (1, 3)
    assert t.sellers[2] == (1, 3)
    assert 2 not in t.buyers[0]


def test_line_topology():
    t = build("line", 4)
    assert len(t.edge_index[0]) == 6
    assert t.sellers[0] == (1,)
    assert t.sellers[3] == (2,)
    assert t.sellers[1] == (0, 2)
    assert 0 not in t.buyers[3]


def test_single_node_has_no_edges():
    for kind in ("full", "ring", "line"):
        t = build(kind, 1)
        assert len(t.edge_index[0]) == 0
        assert t.sellers[0] == () and t.buyers[0] == ()


def test_edges_are_directed_pairs():
    t = build("line", 3)
    sellers, buyers = t.edge_index      # row-major
    assert sellers.tolist() == [0, 1, 1, 2]
    assert buyers.tolist() == [1, 0, 2, 1]


def test_from_adjacency_coerces_to_bool():
    t = from_adjacency([[0, 1], [1, 0]])
    assert t.adj == ((False, True), (True, False))
    assert t.m == 2


def test_asymmetric_adjacency_allowed():
    # 0 may sell to 1 but not the reverse
    t = from_adjacency([[0, 1], [0, 0]])
    assert t.buyers[0] == (1,)
    assert t.sellers[0] == ()
    assert t.buyers[1] == ()
    assert t.sellers[1] == (0,)


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
    assert t.check_node(2) == 2
    with pytest.raises(ValueError, match="out of range"):
        t.check_node(3)
    with pytest.raises(ValueError, match="out of range"):
        t.check_node(-1)


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
            assert t.sellers[i] == tuple(j for j in range(m) if t.adj[j][i])
            assert t.buyers[i] == tuple(j for j in range(m) if t.adj[i][j])
        scan = [(i, j) for i in range(m) for j in range(m) if t.adj[i][j]]
        sellers, buyers = t.edge_index
        assert list(zip(sellers.tolist(), buyers.tolist())) == scan
        assert not (sellers.flags.writeable or buyers.flags.writeable)
