"""Graph substrate: immutable undirected graphs, generators, paths, splits.

Graphs are simple (no self-loops, no multi-edges) over dense 0-based node
ids, stored in compressed row form with each neighbor list sorted. Every
graph, generated, loaded or split, is built from node pairs by one array
path, `Graph.from_edges`; all other modules treat `Graph` as read-only. A
pair u < v is numbered by `pair_index`, its position in the lexicographic
list of all pairs. Derived state that never changes (the edge array and its
pair indices, the forbidden pair indices of `sample_nonedges`) is cached on
the graph and dies with it. Subgraph extraction masks a target edge while
it walks the graph (see labeling); `Graph.without_edge` builds an explicit
copy without one edge, for callers that need a whole graph.
"""

from __future__ import annotations

import json
import logging
import math
import os
import tempfile
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ConfigError, DataError
from .rng import derive_rng

log = logging.getLogger(__name__)

#: Maximum path length accepted by count_simple_paths; the enumeration is
#: exponential in this bound, so it stays small by contract.
MAX_SIMPLE_PATH_LEN = 6

#: Above this many candidate pairs, exhaustive pair enumeration is refused
#: (see evaluation.verify_connectivity_pattern).
PAIR_ENUMERATION_GUARD = 50_000


def pair_index(n: int, u, v):
    """Position of the pair u < v in the lexicographic list of all pairs of
    n nodes; elementwise on arrays."""
    return u * (2 * n - u - 1) // 2 + v - u - 1


def canonical_pair(u: int, v: int) -> tuple[int, int]:
    """Return the pair ordered (min, max); rejects u == v."""
    u, v = int(u), int(v)
    if u == v:
        raise ConfigError(f"node pair must have two distinct endpoints, got ({u}, {v})")
    return (u, v) if u < v else (v, u)


class Graph:
    """Undirected simple graph in compressed row (CSR) layout.

    `indptr` has length n+1; `indices[indptr[u]:indptr[u+1]]` are the sorted
    neighbors of u. Instances are immutable; the backing arrays are marked
    read-only.
    """

    __slots__ = ("indptr", "indices", "source_ids", "_edge_array", "_edge_codes", "_nonedge_pools",
                 "_neighbor_lists")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, source_ids=None):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.source_ids = None if source_ids is None else np.asarray(source_ids, dtype=np.int64)
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False
        self._edge_array = None
        self._edge_codes = None
        self._nonedge_pools = {}
        self._neighbor_lists = None

    @classmethod
    def from_edges(cls, n: int, edges, source_ids=None) -> "Graph":
        """Build any graph from node pairs, in array form: `edges` is an
        iterable of (u, v) integer pairs (either order, repeats collapse) or an
        (m, 2) integer array. Input that is not pairs of integers, or holds a
        self-pair, raises ConfigError; an endpoint outside [0, n), DataError."""
        n = int(n)
        if n < 0:
            raise ConfigError("node count must be non-negative")
        try:
            pairs = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        except OverflowError as exc:
            raise DataError(f"edge endpoints must lie in [0, {n}): {exc}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"edges must be (u, v) pairs of integers: {exc}")
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise ConfigError(f"edges must be (u, v) pairs, got an array of shape {pairs.shape}")
        pairs = pairs.reshape(-1, 2)
        u, v = pairs[:, 0], pairs[:, 1]
        if (u == v).any():
            raise ConfigError(f"node pair must have two distinct endpoints, got {tuple(pairs[u == v][0].tolist())}")
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise DataError(f"edge endpoints must lie in [0, {n}); got ids {pairs.min()} to {pairs.max()}")
        # each edge both ways as row * n + col; sorted and unique, the CSR entries
        codes = np.sort(np.concatenate([u * n + v, v * n + u]))
        codes = codes[np.diff(codes, prepend=-1) != 0]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(codes // n, minlength=n), out=indptr[1:])
        return cls(indptr, codes % n, source_ids)

    @property
    def n(self) -> int:
        return len(self.indptr) - 1

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def neighbor_lists(self) -> tuple:
        """Every node's sorted neighbors as a tuple of Python ints, built
        once: the rows subgraph extraction walks."""
        if self._neighbor_lists is None:
            flat, ptr = self.indices.tolist(), self.indptr.tolist()
            self._neighbor_lists = tuple(tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:]))
        return self._neighbor_lists

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return i < len(row) and row[i] == v

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, sorted lexicographically."""
        if self._edge_array is None:
            rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
            mask = rows < self.indices
            arr = np.stack([rows[mask], self.indices[mask]], axis=1)
            arr.flags.writeable = False
            self._edge_array = arr
        return self._edge_array

    def edge_codes(self) -> np.ndarray:
        """pair_index of each edge_array() row, ascending (same order)."""
        if self._edge_codes is None:
            arr = self.edge_array()
            codes = pair_index(self.n, arr[:, 0], arr[:, 1])
            codes.flags.writeable = False
            self._edge_codes = codes
        return self._edge_codes

    def edge_set(self) -> frozenset:
        return frozenset(map(tuple, self.edge_array().tolist()))

    def without_edge(self, u: int, v: int) -> "Graph":
        """Copy of this graph with edge (u, v) removed; self if absent."""
        u, v = canonical_pair(u, v)
        if not self.has_edge(u, v):
            return self
        keep = np.ones(len(self.indices), dtype=bool)
        for a, b in ((u, v), (v, u)):
            lo, hi = self.indptr[a], self.indptr[a + 1]
            keep[lo + int(np.searchsorted(self.indices[lo:hi], b))] = False
        indices = self.indices[keep]
        drop = np.zeros(self.n + 1, dtype=np.int64)
        drop[u + 1] += 1
        drop[v + 1] += 1
        indptr = self.indptr - np.cumsum(drop)
        return Graph(indptr, indices, self.source_ids)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"


# ---------------------------------------------------------------------------
# ingestion


def load_edge_list(path) -> Graph:
    """Read a whitespace-separated "u v" edge list.

    Lines starting with '#' (and inline '# ...' tails) are comments. Node
    ids may be any integers in [0, 2**63); they are mapped onto a dense
    0-based range in sorted order and the original ids are kept on
    `Graph.source_ids`. Duplicate edges collapse; self-loops are dropped
    with a logged count.
    """
    pairs = []
    self_loops = 0
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"no such edge list: {path}")
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DataError(f"{path}: line {lineno}: expected 'u v', got {raw.strip()!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-integer node id in {raw.strip()!r}")
            if not (0 <= u < 2**63 and 0 <= v < 2**63):
                raise DataError(f"{path}: line {lineno}: node id outside [0, 2**63) in {raw.strip()!r}")
            if u == v:
                self_loops += 1
                continue
            pairs.append((u, v))
    if self_loops:
        log.warning("%s: dropped %d self-loop(s)", path, self_loops)
    if not pairs:
        raise DataError(f"{path}: no edges found")
    ids, dense = np.unique(np.array(pairs, dtype=np.int64), return_inverse=True)
    # the inverse's shape differs across NumPy versions
    return Graph.from_edges(len(ids), dense.reshape(-1, 2), source_ids=ids)


# ---------------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class LatticeSpec:
    """Regular lattice: 'grid' (4-neighbor) or 'triangular' (grid plus one
    diagonal per unit cell). With torus=True rows and columns wrap."""

    kind: str
    rows: int
    cols: int
    torus: bool = False

    def __post_init__(self):
        if self.kind not in ("grid", "triangular"):
            raise ConfigError(f"unknown lattice kind {self.kind!r}")
        if self.rows < 3 or self.cols < 3:
            raise ConfigError(f"lattice dimensions must be >= 3, got {self.rows}x{self.cols}")


@dataclass(frozen=True)
class SbmSpec:
    """Stochastic block model with shared intra/inter block probabilities."""

    block_sizes: tuple
    p_in: float
    p_out: float

    def __post_init__(self):
        object.__setattr__(self, "block_sizes", tuple(int(b) for b in self.block_sizes))
        if not self.block_sizes or any(b <= 0 for b in self.block_sizes):
            raise ConfigError("block sizes must be positive")
        for name, p in (("p_in", self.p_in), ("p_out", self.p_out)):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {p}")


def generate_lattice(spec: LatticeSpec) -> Graph:
    """Link node r * cols + c one step right, down and, if triangular, down-right."""
    rows, cols = spec.rows, spec.cols
    r, c = np.divmod(np.arange(rows * cols, dtype=np.int64), cols)
    steps = ((0, 1), (1, 0), (1, 1)) if spec.kind == "triangular" else ((0, 1), (1, 0))
    pairs = []
    for dr, dc in steps:
        keep = spec.torus | ((r + dr < rows) & (c + dc < cols))
        pairs.append(np.stack([r * cols + c, (r + dr) % rows * cols + (c + dc) % cols], axis=1)[keep])
    return Graph.from_edges(rows * cols, np.concatenate(pairs))


def generate_sbm(spec: SbmSpec, seed: int) -> Graph:
    """Sample an SBM graph; deterministic for a given (spec, seed)."""
    sizes = spec.block_sizes
    n = sum(sizes)
    block_of = np.repeat(np.arange(len(sizes)), sizes)
    rng = derive_rng(seed, "sbm", sizes, repr(spec.p_in), repr(spec.p_out))
    iu, iv = np.triu_indices(n, k=1)
    p = np.where(block_of[iu] == block_of[iv], spec.p_in, spec.p_out)
    mask = rng.random(len(iu)) < p
    return Graph.from_edges(n, np.stack([iu[mask], iv[mask]], axis=1))


# ---------------------------------------------------------------------------
# paths


def count_simple_paths(g: Graph, u: int, v: int, edge_len: int) -> int:
    """Number of simple paths from u to v using exactly edge_len edges.

    Exhaustive DFS over the rows of `Graph.neighbor_lists()`, keeping the
    nodes of the current path in a list. The last hop is a set lookup: from
    the path's second-to-last node, count the neighbours that are off the
    path and in v's row. edge_len is capped at MAX_SIMPLE_PATH_LEN because
    the enumeration grows with degree**edge_len.
    """
    u, v = int(u), int(v)
    if u == v:
        raise ConfigError("count_simple_paths requires distinct endpoints")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ConfigError(f"pair ({u}, {v}) out of range for graph with n={g.n}")
    if not 1 <= edge_len <= MAX_SIMPLE_PATH_LEN:
        raise ConfigError(f"edge_len must be in [1, {MAX_SIMPLE_PATH_LEN}], got {edge_len}")
    rows = g.neighbor_lists()
    if edge_len == 1:
        return int(v in rows[u])
    last = set(rows[v])  # holds no v: graphs have no self-loops
    path = [u]

    def walk(node, remaining):
        if remaining == 2:
            return sum(1 for w in rows[node] if w in last and w not in path)
        count = 0
        for w in rows[node]:
            if w != v and w not in path:
                path.append(w)
                count += walk(w, remaining - 1)
                path.pop()
        return count

    return walk(u, edge_len)



# ---------------------------------------------------------------------------
# splits and negative sampling


#: Non-edge pools kept per graph (one per distinct exclude set); training
#: and evaluation use one or two.
NONEDGE_POOLS_PER_GRAPH = 4


def _nonedge_pool(g: Graph, exclude) -> tuple:
    """(forbidden, gaps, starts), cached on g per exclude set (a frozenset
    is its own key); the pool of allowed pairs itself is never built.

    `forbidden` holds the sorted pair indices of the edges and the excluded
    non-edges; gaps[i] = forbidden[i] - i counts the allowed pairs below
    forbidden[i], so pool position k is pair index k + #{i : gaps[i] <= k}.
    starts[u] is the pair index of (u, u + 1), where row u begins."""
    key = exclude if isinstance(exclude, frozenset) else frozenset(map(tuple, exclude))
    entry = g._nonedge_pools.get(key)
    if entry is None:
        n = g.n
        excluded = {canonical_pair(u, v) for u, v in key} - g.edge_set()
        bad = sorted(p for p in excluded if p[0] < 0 or p[1] >= n)
        if bad:
            raise ConfigError(f"exclude pair {bad[0]} out of range for graph with n={n}")
        excluded_codes = np.array([pair_index(n, u, v) for u, v in excluded], dtype=np.int64)
        forbidden = np.sort(np.concatenate([g.edge_codes(), excluded_codes]))
        gaps = forbidden - np.arange(len(forbidden))
        nodes = np.arange(n, dtype=np.int64)
        entry = (forbidden, gaps, pair_index(n, nodes, nodes + 1))
        if len(g._nonedge_pools) >= NONEDGE_POOLS_PER_GRAPH:
            g._nonedge_pools.pop(next(iter(g._nonedge_pools)))
        g._nonedge_pools[key] = entry
    return entry


def sample_nonedges(g: Graph, count: int, seed: int, exclude=(), query=None) -> list:
    """Uniform sample (without replacement) of node pairs that are neither
    edges of g nor members of exclude (nor the pair `query`, if given).

    Deterministic per seed: the draw picks positions in the lexicographic
    list of allowed pairs, mapped to pairs through the forbidden pair
    indices cached on g per exclude set (see _nonedge_pool), so memory is
    O(n + edges + excluded), never O(n²). Exclude pairs and the query must
    lie in [0, n)."""
    count = int(count)
    if count < 0:
        raise ConfigError("count must be non-negative")
    if count == 0:
        return []
    n = g.n
    forbidden, gaps, starts = _nonedge_pool(g, exclude)
    n_excluded = len(forbidden) - g.edge_count
    skip = None  # pool position of the query, if it is an allowed pair
    if query is not None:
        a, b = canonical_pair(*query)
        if a < 0 or b >= n:
            raise ConfigError(f"query {query} out of range for graph with n={n}")
        code = pair_index(n, a, b)
        i = int(np.searchsorted(forbidden, code))
        if i == len(forbidden) or forbidden[i] != code:
            skip = code - i
            n_excluded += 1
    capacity = n * (n - 1) // 2 - g.edge_count - n_excluded
    if count > capacity:
        raise DataError(
            f"requested {count} non-edges but only {capacity} exist "
            f"(n={n}, edges={g.edge_count}, excluded={n_excluded})"
        )
    picks = derive_rng(seed, "nonedges", count).choice(capacity, size=count, replace=False)
    if skip is not None:
        picks += picks >= skip
    codes = picks + np.searchsorted(gaps, picks, side="right")
    u = np.searchsorted(starts, codes, side="right") - 1
    v = codes - starts[u] + u + 1
    return list(zip(u.tolist(), v.tolist()))


@dataclass(frozen=True)
class DataSplit:
    """Observed / validation / test partition of one graph's edges.

    `node_count` and `id_map` (dense index -> original id) carry enough
    information to rebuild the observed graph without the source file.
    """

    seed: int
    node_count: int
    observed: tuple
    valid_pos: tuple
    valid_neg: tuple
    test_pos: tuple
    test_neg: tuple
    id_map: tuple = field(default=None)

    def observed_graph(self) -> Graph:
        return Graph.from_edges(self.node_count, self.observed, source_ids=self.id_map)

    def full_edge_set(self) -> frozenset:
        return frozenset(self.observed) | frozenset(self.valid_pos) | frozenset(self.test_pos)

    def to_json_dict(self) -> dict:
        id_map = list(self.id_map) if self.id_map is not None else list(range(self.node_count))
        return {
            "seed": self.seed,
            "id_map": id_map,
            "observed": [list(e) for e in self.observed],
            "valid_pos": [list(e) for e in self.valid_pos],
            "valid_neg": [list(e) for e in self.valid_neg],
            "test_pos": [list(e) for e in self.test_pos],
            "test_neg": [list(e) for e in self.test_neg],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DataSplit":
        # each pair field is checked and made canonical as one int64 array
        try:
            id_map = tuple(doc["id_map"])
            ids = _integer_array(id_map, "id_map")
            fields = {}
            for key in ("observed", "valid_pos", "valid_neg", "test_pos", "test_neg"):
                if (np.fromiter(map(len, doc[key]), dtype=np.int64, count=len(doc[key])) != 2).any():
                    raise ValueError(f"{key} must hold (u, v) pairs")
                pairs = _integer_array(list(chain.from_iterable(doc[key])), key)
                fields[key] = pairs = np.sort(pairs.reshape(-1, 2), axis=1)
                if (pairs[:, 0] == pairs[:, 1]).any():
                    raise ValueError(f"node pair must have two distinct endpoints, got "
                                     f"{tuple(pairs[pairs[:, 0] == pairs[:, 1]][0].tolist())}")
            seed = doc["seed"]
            if type(seed) is not int:
                raise ValueError(f"seed must be an integer, got {seed!r}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed split document: {exc}")
        ids.sort()
        repeated = ids[1:] == ids[:-1]
        if repeated.any():
            raise DataError(f"id_map repeats id {ids[1:][repeated][0]}")
        for key, pairs in fields.items():
            bad = (pairs[:, 0] < 0) | (pairs[:, 1] >= len(id_map))
            if bad.any():
                raise DataError(f"{key} pair {tuple(pairs[bad.argmax()].tolist())} out of range "
                                f"for {len(id_map)} nodes")
            fields[key] = tuple(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist()))
        return cls(seed=seed, node_count=len(id_map), id_map=id_map, **fields)

    def save(self, path):
        write_json_atomic(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "DataSplit":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_json_dict(json.load(fh))
        except FileNotFoundError:
            raise DataError(f"no such split file: {path}")
        except json.JSONDecodeError as exc:
            raise DataError(f"{path} is not a valid split file: {exc}")


def _integer_array(values: list, what: str) -> np.ndarray:
    """int64 array of a JSON list that holds only integers: a float such as
    1.0 or 1.7, a bool or a string raises ValueError instead of being cast."""
    if set(map(type, values)) - {int}:
        bad = next(x for x in values if type(x) is not int)
        raise ValueError(f"{what} must hold integers, got {bad!r}")
    return np.fromiter(values, dtype=np.int64, count=len(values))


def split_edges(g: Graph, fractions: tuple, seed: int) -> DataSplit:
    """Partition edges into observed/valid/test and attach sampled negatives.

    fractions = (train, valid, test), each positive, summing to 1. Validation
    and test sizes round down; the remainder stays observed. One negative is
    sampled per held-out positive, uniformly from the non-edges of g, with
    valid and test negatives disjoint.
    """
    if len(fractions) != 3:
        raise ConfigError("fractions must be (train, valid, test)")
    f_train, f_valid, f_test = (float(f) for f in fractions)
    if min(f_train, f_valid, f_test) <= 0:
        raise ConfigError("all split fractions must be positive")
    if abs(f_train + f_valid + f_test - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {fractions}")
    m = g.edge_count
    if m < 10:
        raise DataError(f"graph has {m} edges; at least 10 required to split")
    perm = derive_rng(seed, "split-perm").permutation(m)
    n_valid = math.floor(m * f_valid)
    n_test = math.floor(m * f_test)
    valid_pos = tuple(map(tuple, g.edge_array()[perm[:n_valid]].tolist()))
    test_pos = tuple(map(tuple, g.edge_array()[perm[n_valid : n_valid + n_test]].tolist()))
    # edge_array() rows are sorted, so sorted positions give sorted pairs
    observed = tuple(map(tuple, g.edge_array()[np.sort(perm[n_valid + n_test :])].tolist()))
    negatives = sample_nonedges(g, n_valid + n_test, derive_seed_int(seed, "split-neg"))
    id_map = tuple(g.source_ids.tolist()) if g.source_ids is not None else tuple(range(g.n))
    return DataSplit(
        seed=int(seed),
        node_count=g.n,
        observed=observed,
        valid_pos=valid_pos,
        valid_neg=tuple(negatives[:n_valid]),
        test_pos=test_pos,
        test_neg=tuple(negatives[n_valid:]),
        id_map=id_map,
    )


def derive_seed_int(seed: int, *labels) -> int:
    """Collapse (seed, labels) to a single int, for APIs that take a seed."""
    return int(derive_rng(seed, *labels).integers(0, 2**63 - 1))


# ---------------------------------------------------------------------------
# shared file helpers


def write_json_atomic(path, doc):
    """Compact JSON, with no indent, so that `json` uses its C encoder."""
    write_text_atomic(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def write_text_atomic(path, text: str):
    """Write via temp file + rename so readers never see partial output."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_edge_list(path, g: Graph, header: str = ""):
    lines = [f"# {line}" for line in header.splitlines()]
    edges = g.edge_array() if g.source_ids is None else g.source_ids[g.edge_array()]
    lines.extend(f"{u} {v}" for u, v in edges.tolist())
    write_text_atomic(path, "\n".join(lines) + "\n")
