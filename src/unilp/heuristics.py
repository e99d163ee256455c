"""Classical link-prediction scores.

All scores are computed on a scoring view of the graph: if the queried pair
is itself an edge, that edge is removed first. This keeps scores for known
links comparable with scores for candidate links instead of letting the
answer leak into its own evidence.

`score_batch` scores a whole batch at once. Only the linked pairs (those
that are edges of g) have a view other than g, and removing the edge (u, v)
changes neither the common neighbours of u and v nor their degrees (no
common neighbour is u or v), so CN, AA and RA are array operations on g for
every pair, and PA subtracts one from each endpoint degree of a linked pair.
Shortest path and Katz need the view: each unlinked pair is scored from its
source, the endpoint that occurs in more pairs of the batch (the smaller id
on ties), with one BFS or one walk push per distinct source over g; each
linked pair gets its own traversal on `g.without_edge(u, v)`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_number_fields
from .graphs import Graph, pair_index

KINDS = ("cn", "aa", "ra", "pa", "sp", "katz")


@dataclass(frozen=True)
class Heuristic:
    """A heuristic kind plus the parameters Katz needs.

    katz_beta is the per-edge damping; katz_len the walk-length cutoff.
    Truncation keeps the score finite for any beta, but beta below
    1/(max_degree + 1) is the regime where the untruncated series is a
    sensible reference; larger values trigger a warning.
    """

    kind: str
    katz_beta: float = 0.005
    katz_len: int = 5

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown heuristic {self.kind!r}; choose from {KINDS}")
        check_number_fields(self, ints=("katz_len",), reals=("katz_beta",))
        if self.katz_beta <= 0:
            raise ConfigError("katz_beta must be positive")
        if self.katz_len < 1:
            raise ConfigError("katz_len must be >= 1")


def _gather_rows(g: Graph, nodes: np.ndarray) -> tuple:
    """(position in nodes, neighbour) for every CSR entry of every node, in
    node order and, within a node, in ascending neighbour order."""
    lengths = g.indptr[nodes + 1] - g.indptr[nodes]
    owner = np.repeat(np.arange(len(nodes), dtype=np.int64), lengths)
    row_start = np.cumsum(lengths) - lengths
    offsets = np.arange(len(owner), dtype=np.int64) - row_start[owner]
    return owner, g.indices[g.indptr[nodes][owner] + offsets]


def _hops(g: Graph, source: int, targets: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """Hop counts from source to each target (inf when unreachable), by a
    level-by-level BFS that stops once every target is reached. `seen` is an
    all-False buffer of length n, left all-False on return."""
    hops = np.full(len(targets), math.inf)
    frontier = np.array([source], dtype=np.int64)
    seen[source] = True
    visited = [frontier]
    level = 0
    pending = np.ones(len(targets), dtype=bool)
    while pending.any() and len(frontier):
        level += 1
        _, reached = _gather_rows(g, frontier)
        frontier = np.unique(reached[~seen[reached]])
        seen[frontier] = True
        visited.append(frontier)
        hit = pending & seen[targets]
        hops[hit] = level
        pending &= ~hit
    seen[np.concatenate(visited)] = False
    return hops


def _katz(g: Graph, source: int, targets: np.ndarray, beta: float, length: int) -> np.ndarray:
    """Truncated Katz scores from source to each target."""
    # walk counts by repeated frontier push: x_k = A x_{k-1}, x_0 = e_source
    rows = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    x = np.zeros(g.n)
    x[source] = 1.0
    score = np.zeros(len(targets))
    for step in range(1, length + 1):
        x = np.bincount(g.indices, weights=x[rows], minlength=g.n)
        score += beta**step * x[targets]
    return score


def _traverse(h: Heuristic, g: Graph, source: int, targets: np.ndarray, seen: np.ndarray) -> np.ndarray:
    if h.kind == "sp":
        return -_hops(g, source, targets, seen)
    return _katz(g, source, targets, h.katz_beta, h.katz_len)


def _traversal_scores(h: Heuristic, g: Graph, u: np.ndarray, v: np.ndarray, linked: np.ndarray) -> np.ndarray:
    """SP or Katz for every pair: one traversal of g per distinct source of
    the unlinked pairs, and one of its own view per linked pair."""
    out = np.empty(len(u))
    seen = np.zeros(g.n, dtype=bool)
    for i in np.flatnonzero(linked):
        a, b = int(u[i]), int(v[i])
        out[i] = _traverse(h, g.without_edge(a, b), a, v[i : i + 1], seen)[0]
    free = np.flatnonzero(~linked)
    if not len(free):
        return out
    u, v = u[free], v[free]
    nodes, uses = np.unique(np.concatenate([u, v]), return_counts=True)
    from_u = uses[np.searchsorted(nodes, u)] >= uses[np.searchsorted(nodes, v)]
    source, target = np.where(from_u, u, v), np.where(from_u, v, u)
    order = np.argsort(source, kind="stable")
    starts = np.flatnonzero(np.diff(source[order])) + 1
    for group in np.split(order, starts):
        out[free[group]] = _traverse(h, g, int(source[group[0]]), target[group], seen)
    return out


def score_batch(h: Heuristic, g: Graph, pairs) -> np.ndarray:
    """Vector of scores in the order of pairs, each on its scoring view of g."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    bad = np.flatnonzero(((pairs < 0) | (pairs >= g.n)).any(axis=1))
    if len(bad):
        raise ConfigError(f"pair {tuple(pairs[bad[0]].tolist())} out of range for graph with n={g.n}")
    same = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
    if len(same):
        raise ConfigError(f"node pair must have two distinct endpoints, got {tuple(pairs[same[0]].tolist())}")
    u, v = pairs.min(axis=1), pairs.max(axis=1)
    codes, query = g.edge_codes(), pair_index(g.n, u, v)
    at = np.searchsorted(codes, query)
    linked = at < len(codes)
    linked[linked] = codes[at[linked]] == query[linked]
    deg = np.diff(g.indptr)
    if h.kind == "pa":
        return ((deg[u] - linked) * (deg[v] - linked)).astype(np.float64)
    if h.kind == "katz" and len(u):
        max_deg = int(deg.max())
        if h.katz_beta >= 1.0 / (max_deg + 1):
            warnings.warn(
                f"katz_beta={h.katz_beta} >= 1/(max_degree+1)={1.0 / (max_deg + 1):.4g}; "
                "truncated score is finite but far from the series limit",
                stacklevel=2,
            )
    if h.kind in ("sp", "katz"):
        return _traversal_scores(h, g, u, v, linked)
    # common neighbours: keys position * n + neighbour present in both rows
    # of a pair, ascending by pair and then by neighbour
    owner_u, nbr_u = _gather_rows(g, u)
    owner_v, nbr_v = _gather_rows(g, v)
    common = np.intersect1d(owner_u * g.n + nbr_u, owner_v * g.n + nbr_v, assume_unique=True)
    owner, w = np.divmod(common, g.n)
    if h.kind == "cn":
        return np.bincount(owner, minlength=len(u)).astype(np.float64)
    if h.kind == "aa":
        # a common neighbour is adjacent to both endpoints, so its degree is >= 2
        degrees, where = np.unique(deg[w], return_inverse=True)
        terms = np.array([1.0 / math.log(d) for d in degrees.tolist()])[where]
    else:
        terms = 1.0 / deg[w]
    # bincount adds each pair's terms left to right, as a Python loop would
    # (np.add.reduceat sums pairwise and can differ in the last bits); with
    # no common neighbour in the batch it returns integers
    return np.bincount(owner, weights=terms, minlength=len(u)).astype(np.float64)


def score(h: Heuristic, g: Graph, pair) -> float:
    """Score one candidate pair with heuristic h on the scoring view of g."""
    return float(score_batch(h, g, [pair])[0])
