"""Ego-subgraph extraction around a node pair and structural node labels.

A candidate link (u, v) is represented by the subgraph induced on all nodes
within `radius` hops of u or of v. The pair's own edge is masked during
extraction (when present and requested): the walk and the adjacency build
skip it, without copying the graph, so the representation of a known link
never contains the link itself. An optional hop cap thins each BFS hop to
a sample drawn from a stream seeded by the pair alone, so a pair is
extracted the same way in training, validation and scoring. Each node then
gets a two-slot label:

    (drnl(d_u, d_v), 0)   when the node reaches both targets,
    (0, d)                when it reaches exactly one target at distance d,

with the two targets themselves pinned to (1, 0). Distances are measured
inside the extracted subgraph. drnl is the double-radius scheme

    1 + min(d_u, d_v) + (d // 2) * ((d // 2) + (d % 2) - 1),  d = d_u + d_v,

which injectively encodes the orbit of (d_u, d_v) under swapping.

`labeled_subgraph` is the one constructor: it extracts and labels in one
step, so every `LabeledSubgraph` carries its labels. Its fields are plain
tuples, which compare with `==` and sort as label tuples do. Its `content`
key stands for what the encoder reads, (labels, adj), and lets a batch
encode subgraphs of equal content once.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, NumericError
from .graphs import Graph, canonical_pair
from .rng import derive_rng


def drnl(d_u: int, d_v: int) -> int:
    """Double-radius label of a node at hop distances (d_u, d_v) from the
    two targets. Requires both distances finite and non-negative."""
    if d_u < 0 or d_v < 0:
        raise ConfigError(f"distances must be non-negative, got ({d_u}, {d_v})")
    d = d_u + d_v
    half = d // 2
    return 1 + min(d_u, d_v) + half * (half + d % 2 - 1)


@dataclass(frozen=True)
class LabelVocab:
    """Finite index space for label tuples.

    Two-sided labels (a, 0) map to min(a, drnl_cap); one-sided labels (0, b)
    map to drnl_cap + 1 + min(b, dist_cap). Values beyond the caps saturate
    instead of erroring, so rare deep nodes share the boundary index.
    """

    drnl_cap: int = 100
    dist_cap: int = 20

    def __post_init__(self):
        if self.drnl_cap < 1 or self.dist_cap < 1:
            raise ConfigError("label caps must be >= 1")

    @property
    def size(self) -> int:
        return self.drnl_cap + self.dist_cap + 2

    def index(self, label: tuple) -> int:
        a, b = label
        if a < 0 or b < 0 or (a > 0 and b > 0):
            raise ConfigError(f"malformed label tuple {label!r}")
        if a > 0:
            return min(a, self.drnl_cap)
        return self.drnl_cap + 1 + min(b, self.dist_cap)

    def indices(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """`index` over arrays of label slots: label i is (a[i], b[i])."""
        bad = (a < 0) | (b < 0) | ((a > 0) & (b > 0))
        if bad.any():
            i = int(np.argmax(bad))
            raise ConfigError(f"malformed label tuple {(int(a[i]), int(b[i]))!r}")
        return np.where(
            a > 0, np.minimum(a, self.drnl_cap), self.drnl_cap + 1 + np.minimum(b, self.dist_cap)
        )


class SubgraphContent:
    """Hashable key of a subgraph's (labels, adj), the fields the encoder
    reads. The hash is computed once (tuples do not cache theirs), and two
    keys are equal exactly when both fields are."""

    __slots__ = ("labels", "adj", "_hash")

    def __init__(self, labels: tuple, adj: tuple):
        self.labels, self.adj = labels, adj
        self._hash = hash((labels, adj))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, SubgraphContent):
            return NotImplemented
        return self._hash == other._hash and self.labels == other.labels and self.adj == other.adj


@dataclass(frozen=True)
class LabeledSubgraph:
    """Induced, labeled ego subgraph around a target pair.

    nodes:  original node ids; local index 0 is u, 1 is v, the rest ascend.
    adj:    per-node tuples of local neighbor indices, each sorted.
    radius: the extraction radius.
    labels: per-node (a, b) label tuples (see drnl_plus).
    """

    nodes: tuple
    adj: tuple
    radius: int
    labels: tuple

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def pair(self) -> tuple:
        return (self.nodes[0], self.nodes[1])

    def local_edges(self):
        return [(i, j) for i in range(self.n) for j in self.adj[i] if i < j]

    @cached_property
    def content(self) -> SubgraphContent:
        """Content key, built on first use and kept on the object: equal
        for subgraphs that differ only in node ids or radius, which the
        encoder never reads."""
        return SubgraphContent(self.labels, self.adj)


def _bounded_bfs(neighbors, source: int, radius: int, cap, rng) -> dict:
    """Distances within radius hops; each new frontier optionally thinned to
    cap nodes (uniform, seeded)."""
    dist = {source: 0}
    frontier = [source]
    for depth in range(1, radius + 1):
        nxt = sorted({w for x in frontier for w in neighbors(x)} - dist.keys())
        if cap is not None and len(nxt) > cap:
            picks = rng.choice(len(nxt), size=cap, replace=False)
            nxt = [nxt[i] for i in sorted(picks)]
        for w in nxt:
            dist[w] = depth
        frontier = nxt
    return dist


def labeled_subgraph(
    g: Graph,
    pair,
    radius: int,
    remove_target: bool = True,
    max_per_hop: int = None,
) -> LabeledSubgraph:
    """Labeled induced subgraph on nodes within radius hops of either
    endpoint; the form every model input takes.

    With remove_target set, the target edge (when present) is masked: the
    walk and the adjacency lists skip it, which gives the same subgraph as
    extracting from `g.without_edge(u, v)` without copying g. Known links
    are so represented the same way candidate links are. Both endpoints are
    always included, even when isolated. Node order is canonical: u, v, then
    ascending original ids. With max_per_hop, each hop keeps at most that
    many new nodes, drawn by `derive_rng(0, "hop-cap", u, v)`.
    """
    u, v = canonical_pair(*pair)
    if v >= g.n:
        raise ConfigError(f"pair {pair} out of range for graph with n={g.n}")
    if radius < 1:
        raise ConfigError(f"radius must be >= 1, got {radius}")
    masked = {u: v, v: u} if remove_target else {}

    def neighbors(x):
        row = g.neighbors(x).tolist()
        other = masked.get(x)
        return row if other is None else [w for w in row if w != other]

    rng = derive_rng(0, "hop-cap", u, v) if max_per_hop is not None else None
    du = _bounded_bfs(neighbors, u, radius, max_per_hop, rng)
    dv = _bounded_bfs(neighbors, v, radius, max_per_hop, rng)
    members = (du.keys() | dv.keys()) - {u, v}
    nodes = [u, v] + sorted(members)
    local = {orig: i for i, orig in enumerate(nodes)}
    adj = tuple(
        tuple(sorted(local[w] for w in neighbors(orig) if w in local))
        for orig in nodes
    )
    return LabeledSubgraph(nodes=tuple(nodes), adj=adj, radius=radius,
                           labels=_drnl_plus(nodes, adj))


def _local_distances(adj: tuple, source: int) -> list:
    dist = [math.inf] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        x = queue.popleft()
        for w in adj[x]:
            if math.isinf(dist[w]):
                dist[w] = dist[x] + 1
                queue.append(w)
    return dist


def _drnl_plus(nodes, adj: tuple) -> tuple:
    """Per-node label tuples for the subgraph on `nodes` with local `adj`.

    Targets are (1, 0) by definition. Other nodes combine their in-subgraph
    distances to the two targets; unreachable-from-one-side nodes fall back
    to the one-sided (0, d) form.
    """
    d_u = _local_distances(adj, 0)
    d_v = _local_distances(adj, 1)
    labels = [(1, 0), (1, 0)]
    for i in range(2, len(adj)):
        du, dv = d_u[i], d_v[i]
        u_ok, v_ok = not math.isinf(du), not math.isinf(dv)
        if u_ok and v_ok:
            labels.append((drnl(int(du), int(dv)), 0))
        elif u_ok:
            labels.append((0, int(du)))
        elif v_ok:
            labels.append((0, int(dv)))
        else:
            raise NumericError(
                f"node {nodes[i]} unreachable from both targets; "
                "extraction should make this impossible"
            )
    return tuple(labels)


def drnl_plus(sub: LabeledSubgraph) -> tuple:
    """Label tuples recomputed from a subgraph's nodes and adjacency."""
    return _drnl_plus(sub.nodes, sub.adj)
