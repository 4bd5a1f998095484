"""Coalition possible-manipulator detection for the Bucklin rule.

x is the current winner, y the target, maj = ceil(n/2), and ext[z][l] the
number of voters outside the coalition M ranking z within their top l.

1. Level condition.  y wins iff, for some level beta, y is within the top
   beta of at least maj voters and every z != y within the top s_z of fewer,
   where s_z = beta if z precedes y in the tie-break order, else beta - 1:
   this holds at y's own level, and it gives y a level <= beta that every
   z before y misses at beta and every z after y misses below beta.
2. Caps.  So every z != y, x included, may be within the top s_z of at most
   cap_z = maj - 1 - ext[z][s_z] suspect ballots; a negative cap rules the
   level out.  Positions 1 to beta - 1 count for every z, position beta only
   for an early z (s_z = beta): a late z there is free, one per ballot.
3. Two ballot kinds.  A ballot matters only through its top beta.  A
   helping ballot holds y there, so x above y: as x, y, then beta - 2
   others, a late one last, it uses no more of any cap.  A non-helping one
   holds beta candidates other than y, a late one (x included) last, then x
   unless placed, then y.  y needs maj - ext[y][beta] helping ballots.
4. Helping ballots.  h = min(|M|, cap_x) of them (none at beta = 1) is
   enough.  Below that, a non-helping ballot turns helping without raising
   any use past its cap: one that uses x's cap keeps x, takes in y and drops
   a capped other; if none does, x is used h < cap_x times in all, and any
   of them takes in x and y and drops others.

Whether the h helping and |M| - h other ballots fit is a max flow: source
-> kind (count * demand), kind -> (kind, z) (count: z once per ballot),
(kind, z) -> z -> sink (cap_z, less h for x), and for late z (kind, z) ->
free(kind) -> sink (count: one free slot per ballot).  Ballots that fit sum
to a flow saturating the source, and `_split` deals such a flow back out.
The network has O(m) nodes and edges, so Edmonds-Karp takes O(m^3) per
level, O(m^4 + |M| m^2) in all once the rest-of-profile table is built.
The witness is replayed before a YES is returned.
"""

from __future__ import annotations

from .core import Preference
from .detection import (
    DetectionQuery,
    DetectionVerdict,
    no_verdict,
    require_target,
)
from .errors import DispatchError
from .rules import BUCKLIN

METHOD_BUCKLIN = "bucklin-greedy"


def cpmw_bucklin(query: DetectionQuery) -> DetectionVerdict:
    """Coalition CPMW for Bucklin."""
    if query.rule.kind != BUCKLIN:
        raise DispatchError(f"bucklin detector cannot handle a {query.rule.kind} rule")
    inst = query.instance
    x, y = require_target(query)
    suspects = query.suspects
    m, c = inst.m, len(suspects)
    majority = (inst.n + 1) // 2
    tb_rank = inst.tb_rank
    ext = query.rest
    late = {z for z in range(m) if tb_rank[z] > tb_rank[y]}

    for beta in range(1, m + 1):
        # x's cap and y's shortfall rule out most levels before any other cap
        cap_x = majority - 1 - ext[x][beta - (x in late)]
        helping = min(c, cap_x) if beta > 1 else 0
        if cap_x < 0 or helping < majority - ext[y][beta]:
            continue
        caps = {z: majority - 1 - ext[z][beta - (z in late)] for z in range(m) if z != y}
        if min(caps.values()) < 0:
            continue
        tops = _fit(beta, x, y, caps, late, c, helping)
        if tops is None:
            continue
        witness = {}
        for i, top in zip(suspects, tops):
            ranking = top + [z for z in (x, y) if z not in top]
            witness[i] = Preference(ranking + [z for z in range(m) if z not in ranking])
        verdict = query.confirm(witness, METHOD_BUCKLIN)
        if verdict:
            return verdict
    return no_verdict(METHOD_BUCKLIN)


def _fit(beta, x, y, caps, late, c, helping):
    """The top beta of each suspect ballot, helping ones first, or None."""
    kinds = (
        ("helping", helping, beta - 2, [z for z in caps if z != x], [x, y]),
        ("other", c - helping, beta, list(caps), []),
    )
    kinds = [kind for kind in kinds if kind[1]]  # a kind without ballots adds no nodes
    net: dict = {}

    def edge(u, v, room):
        net.setdefault(u, {})[v] = room
        net.setdefault(v, {})[u] = 0

    for z, cap in caps.items():
        edge(z, "sink", cap - helping if z == x else cap)
    for kind, count, demand, pool, _ in kinds:
        edge("source", kind, count * demand)
        edge(("free", kind), "sink", count)
        for z in pool:
            edge(kind, (kind, z), count)
            edge((kind, z), z, count)
            if z in late:
                edge((kind, z), ("free", kind), count)
    if _max_flow(net, "source", "sink") < sum(n * d for _, n, d, _, _ in kinds):
        return None
    # no edge has a reverse twin, so the room left on v -> u is the flow on u -> v
    tops = []
    for kind, count, demand, pool, head in kinds:
        capped = {z: net[z][(kind, z)] for z in pool}
        free = {z: net[("free", kind)].get((kind, z), 0) for z in pool}
        tops += _split(count, demand, head, capped, free)
    return tops


def _max_flow(net, source, sink) -> int:
    """Edmonds-Karp over `net[u][v]`, the room on u -> v (every edge has its
    reverse); `net` is left as the residual network."""
    total = 0
    while True:
        parent = {source: None}
        frontier = [source]
        for u in frontier:
            for v, room in net[u].items():
                if room and v not in parent:
                    parent[v] = u
                    frontier.append(v)
        if sink not in parent:
            return total
        path = []
        v = sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        push = min(net[u][v] for u, v in path)
        for u, v in path:
            net[u][v] -= push
            net[v][u] += push
        total += push


def _split(count, demand, head, capped, free):
    """Deal one kind's flow out to `count` ballot tops, each `head` first.

    `capped[z]` and `free[z]` count the kind's ballots holding z on a capped
    and on the free slot.  With c ballots left, each z is held at most c
    times, free slots at most c times, and all holdings c * demand times.
    The next ballot frees any z with a free holding left, then takes the z
    held most among those with a capped one left.  That keeps all three: a
    z held c times has a capped holding unless it is the one freed, and at
    most demand such z exist (demand - 1 besides a freed one), so all are
    taken; more than c * (demand - 2) capped holdings (c * (demand - 1)
    with none freed) leave enough z to take.
    """
    tops = []
    for _ in range(count):
        spare = next((z for z in free if free[z]), None)
        held = sorted(
            (z for z in capped if capped[z] and z != spare),
            key=lambda z: capped[z] + free[z],
            reverse=True,
        )[: demand - (spare is not None)]
        for z in held:
            capped[z] -= 1
        if spare is not None:
            free[spare] -= 1
            held.append(spare)
        tops.append(head + held)
    return tops
