"""Reference graph algorithms that only the tests use: plain per-pair forms
that the package's batched code is checked against."""

import math
from collections import deque

from unilp.graphs import Graph

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
