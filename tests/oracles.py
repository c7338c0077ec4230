"""Independent reference implementations used to pin expected values.

Nothing here imports the package under test; these are deliberately naive
reimplementations so the two sides can disagree.
"""

import math
from collections import deque


def adjacency(n: int, edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def bfs_distances(n: int, edges, src: int) -> dict[int, int]:
    adj = adjacency(n, edges)
    dist = {src: 0}
    frontier = deque([src])
    while frontier:
        u = frontier.popleft()
        for v in sorted(adj[u]):
            if v not in dist:
                dist[v] = dist[u] + 1
                frontier.append(v)
    return dist


def flood_replay(n: int, edges, src: int, dst: int, ttl: int):
    """Replay one blind flood over a unit-delay network.

    Models the reference behavior: the origin emits with an undecremented
    TTL, relays decrement it, a copy arriving with TTL zero is discarded
    before any bookkeeping, and the destination never relays. Returns
    (transmissions, redundant receptions per node, reached flag).
    """
    adj = adjacency(n, edges)
    seen = {src}
    redundant: dict[int, int] = {}
    tx = 0
    reached = src == dst
    pending = deque()
    for nbr in sorted(adj[src]):
        tx += 1
        pending.append((nbr, src, ttl))
    while pending:
        me, frm, t = pending.popleft()
        if t == 0:
            continue
        if me in seen:
            redundant[me] = redundant.get(me, 0) + 1
            continue
        seen.add(me)
        if me == dst:
            reached = True
            continue
        for nbr in sorted(adj[me]):
            if nbr == frm:
                continue
            tx += 1
            pending.append((nbr, me, t - 1))
    return tx, redundant, reached


def pairs_in_range(positions, radio_range: float) -> list[tuple[int, int]]:
    """Every pair (i, j), i < j, of positions at most `radio_range` apart,
    in ascending order: the radio links of a geometric graph, by testing
    every pair."""
    return [(i, j) for i, (xi, yi) in enumerate(positions)
            for j, (xj, yj) in enumerate(positions[i + 1:], i + 1)
            if math.hypot(xi - xj, yi - yj) <= radio_range]
