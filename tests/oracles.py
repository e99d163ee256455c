"""Reference algorithms that only the tests use: plain per-pair graph forms
that the package's batched and faster code is checked against, and the
tape ops that the tests' reference definitions of the model are written
with."""

import math
from collections import deque

import numpy as np

from unilp.autodiff import Tape, Tensor, _broadcast_shape, _unbroadcast
from unilp.errors import ConfigError, DataError, NumericError
from unilp.graphs import MAX_SIMPLE_PATH_LEN, Graph, LatticeSpec, canonical_pair
from unilp.labeling import LabeledSubgraph, drnl, pack_content
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
# the per-pair graph builders: `Graph.from_edges` and `generate_lattice` must
# build the CSR arrays that these loops build


def reference_from_edges(n: int, edges, source_ids=None) -> Graph:
    """Build from an iterable of canonical (u, v) pairs with u < v."""
    n = int(n)
    if n < 0:
        raise ConfigError("node count must be non-negative")
    pairs = sorted(set(canonical_pair(u, v) for u, v in edges))
    bad = [p for p in pairs if p[0] < 0 or p[1] >= n]
    if bad:
        raise DataError(f"edge endpoints must lie in [0, {n}); got {bad[0]}")
    deg = np.zeros(n, dtype=np.int64)
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    indices = np.zeros(indptr[-1], dtype=np.int64)
    cursor = indptr[:-1].copy()
    # lexicographic pair order fills every row in ascending neighbor
    # order: back-neighbors (< u) land before forward ones (> u)
    for u, v in pairs:
        indices[cursor[u]] = v
        cursor[u] += 1
        indices[cursor[v]] = u
        cursor[v] += 1
    return Graph(indptr, indices, source_ids)


def reference_lattice(spec: LatticeSpec) -> Graph:
    rows, cols = spec.rows, spec.cols
    n = rows * cols

    def nid(r, c):
        return (r % rows) * cols + (c % cols)

    edges = set()
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols or spec.torus:
                edges.add(canonical_pair(nid(r, c), nid(r, c + 1)))
            if r + 1 < rows or spec.torus:
                edges.add(canonical_pair(nid(r, c), nid(r + 1, c)))
            if spec.kind == "triangular" and ((r + 1 < rows and c + 1 < cols) or spec.torus):
                edges.add(canonical_pair(nid(r, c), nid(r + 1, c + 1)))
    return reference_from_edges(n, edges)


def reference_count_simple_paths(g: Graph, u: int, v: int, edge_len: int) -> int:
    """Number of simple paths from u to v using exactly edge_len edges.

    Exhaustive DFS; edge_len is capped at MAX_SIMPLE_PATH_LEN because the
    enumeration grows with degree**edge_len.
    """
    u, v = int(u), int(v)
    if u == v:
        raise ConfigError("count_simple_paths requires distinct endpoints")
    if not 1 <= edge_len <= MAX_SIMPLE_PATH_LEN:
        raise ConfigError(
            f"edge_len must be in [1, {MAX_SIMPLE_PATH_LEN}], got {edge_len}"
        )
    visited = np.zeros(g.n, dtype=bool)
    visited[u] = True
    count = 0

    def walk(node, remaining):
        nonlocal count
        for w in g.neighbors(node):
            if w == v:
                if remaining == 1:
                    count += 1
                continue
            if remaining == 1 or visited[w]:
                continue
            visited[w] = True
            walk(w, remaining - 1)
            visited[w] = False

    walk(u, edge_len)
    return count


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
    return LabeledSubgraph(nodes=tuple(nodes), radius=radius,
                           content=pack_content(_drnl_plus(nodes, adj), adj))


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


# ---------------------------------------------------------------------------
# tape ops that only the tests' reference definitions of the model use


class ReferenceTape(Tape):
    """A `Tape` with `scale`, `concat` and `dot_rows`, which the per-query
    and per-head reference definitions in the tests are written with."""

    @classmethod
    def on(cls, tape: Tape) -> "ReferenceTape":
        """A ReferenceTape that records onto `tape`, for loss functions that
        are handed a plain Tape (`check_gradients` makes its own)."""
        ref = cls()
        ref._nodes = tape._nodes
        return ref

    def scale(self, a: Tensor, c: float) -> Tensor:
        c = float(c)
        return self._emit(a.values * c, ((a, lambda g: g * c),), "scale")

    def concat(self, a: Tensor, b: Tensor) -> Tensor:
        """Concatenate along the last axis; leading axes broadcast, so a
        (B, 1, F) block against an (m, F) one gives (B, m, 2F)."""
        av, bv = a.values, b.values
        if av.ndim == 0 or bv.ndim == 0:
            raise ConfigError(f"concat needs at least 1-D operands: {av.shape} ++ {bv.shape}")
        lead = _broadcast_shape("concat", av.shape[:-1], bv.shape[:-1])
        split = av.shape[-1]
        out = np.concatenate(
            [np.broadcast_to(av, lead + av.shape[-1:]), np.broadcast_to(bv, lead + bv.shape[-1:])],
            axis=-1,
        )
        return self._emit(out, ((a, lambda g: _unbroadcast(g[..., :split], av.shape)),
                                (b, lambda g: _unbroadcast(g[..., split:], bv.shape))), "concat")

    def dot_rows(self, x: Tensor, v: Tensor) -> Tensor:
        """Dot product over the last axis, v broadcast against x's trailing
        axes: (m, k) . (k,) -> (m,), or (B, m, H, k) . (H, k) -> (B, m, H).

        Unlike matmul this reduces every row with the same summation tree
        (one einsum inner loop over the last axis), so each output element
        depends only on its own row: permuting the rows of x permutes the
        result bit-exactly (BLAS matvec kernels do not guarantee that).
        """
        xv, vv = x.values, v.values
        if vv.ndim == 0 or xv.ndim < vv.ndim or xv.shape[xv.ndim - vv.ndim:] != vv.shape:
            raise ConfigError(f"dot_rows shapes incompatible: {xv.shape} . {vv.shape}")
        return self._emit(np.einsum("...k,...k->...", xv, vv),
                          ((x, lambda g: g[..., None] * vv),
                           (v, lambda g: _unbroadcast(g[..., None] * xv, vv.shape))), "dot_rows")
