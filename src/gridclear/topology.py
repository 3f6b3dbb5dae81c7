"""Directed connection graph between microgrids.

adj[i][j] = True means energy may flow from node i to node j, i.e. i can
sell to j. The diagonal is always False. Adjacency need not be symmetric;
the three canonical builders (full, ring, line) produce symmetric graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Topology", "build", "from_adjacency"]

KINDS = ("full", "ring", "line")


@dataclass(frozen=True)
class Topology:
    m: int
    adj: tuple  # tuple of m row-tuples of bools

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"need at least one node, got m={self.m}")
        if len(self.adj) != self.m or any(len(row) != self.m for row in self.adj):
            raise ValueError(f"adjacency must be {self.m}x{self.m}")
        for i in range(self.m):
            if self.adj[i][i]:
                raise ValueError(f"self-edges are not allowed (diagonal entry {i})")

    # Neighbor lists and the edge index are computed on first use and kept:
    # a market reads them every round. They are immutable.

    @cached_property
    def sellers(self) -> tuple:
        """sellers[i]: ascending ids of the nodes that may sell to node i."""
        return tuple(tuple(j for j in range(self.m) if self.adj[j][i])
                     for i in range(self.m))

    @cached_property
    def buyers(self) -> tuple:
        """buyers[i]: ascending ids of the nodes that node i may sell to."""
        return tuple(tuple(j for j in range(self.m) if self.adj[i][j])
                     for i in range(self.m))

    @cached_property
    def edge_index(self) -> tuple:
        """The edges as two read-only index arrays (sellers, buyers), in
        row-major order, for fancy-indexing an M×M matrix."""
        sellers = np.repeat(np.arange(self.m, dtype=np.intp),
                            [len(row) for row in self.buyers])
        buyers = np.array([j for row in self.buyers for j in row], dtype=np.intp)
        sellers.flags.writeable = buyers.flags.writeable = False
        return sellers, buyers

    def check_node(self, i: int) -> int:
        """Return node id i, or raise ValueError if there is no such node."""
        if not 0 <= i < self.m:
            raise ValueError(f"node {i} out of range for m={self.m}")
        return i


def build(kind: str, m: int) -> Topology:
    """Construct one of the canonical topologies: full, ring or line."""
    if m < 1:
        raise ValueError(f"need at least one node, got m={m}")
    if kind not in KINDS:
        raise ValueError(f"unknown topology kind {kind!r}, expected one of {KINDS}")
    rows = [[False] * m for _ in range(m)]
    if kind == "full":
        for i in range(m):
            for j in range(m):
                if i != j:
                    rows[i][j] = True
    else:
        for i in range(m - 1):
            rows[i][i + 1] = rows[i + 1][i] = True
        if kind == "ring" and m > 1:
            rows[m - 1][0] = rows[0][m - 1] = True
    return Topology(m, tuple(tuple(r) for r in rows))


def from_adjacency(rows) -> Topology:
    """Topology from a row-major 0/1 (or bool) matrix."""
    adj = tuple(tuple(bool(v) for v in row) for row in rows)
    return Topology(len(adj), adj)
