"""Reference graph algorithms that only the tests use: plain per-pair forms
that the package's batched and faster code is checked against."""

import math
from collections import deque

from unilp.errors import ConfigError, NumericError
from unilp.graphs import Graph, canonical_pair
from unilp.labeling import LabeledSubgraph, drnl
from unilp.rng import derive_rng

#: Distance sentinel for node pairs with no connecting path.
UNREACHABLE = math.inf


def shortest_path(g: Graph, u: int, v: int):
    """Hop count of a shortest u-v path, or UNREACHABLE."""
    u, v = int(u), int(v)
    if u == v:
        return 0
    seen = {u}
    queue = deque([(u, 0)])
    while queue:
        x, d = queue.popleft()
        for w in g.neighbors(x):
            w = int(w)
            if w == v:
                return d + 1
            if w not in seen:
                seen.add(w)
                queue.append((w, d + 1))
    return UNREACHABLE


# ---------------------------------------------------------------------------
# the plain subgraph extractor: it reads `Graph.neighbors` arrays and masks
# the target edge on every row lookup. `labeling.labeled_subgraph` must
# reproduce `reference_labeled_subgraph` field for field


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


def reference_labeled_subgraph(
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
