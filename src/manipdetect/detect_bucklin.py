"""Coalition possible-manipulator detection for the Bucklin rule.

Witnesses can be normalized so that the target y sits directly below the
current winner x and x's rank in each witness ballot is one of: first, one
above y's final level, at that level, or one below it.  Because the rule is
anonymous, only the count of suspects per position case matters, so the
search enumerates the target's final level, the count vector over the
(at most four) position cases, and then fills the remaining top-of-ballot
slots.

A fill placement only matters through level counts: each opponent has a hard
cap on how many suspect ballots may show it above the level at which it would
start beating y.  The fill walks the open slots depth-first under those caps
(per-ballot distinctness included), so a NO exhausts every witness shape.
"""

from __future__ import annotations

from .core import Preference
from .detection import (
    DetectionQuery,
    DetectionVerdict,
    current_winner,
    no_verdict,
    require_target,
    yes_verdict,
)
from .errors import DispatchError
from .rules import BUCKLIN, topk_counts, winner_from_ballots

METHOD_BUCKLIN = "bucklin-greedy"


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def case_positions(beta: int, m: int) -> tuple[int, ...]:
    """Admissible ranks for x in a witness ballot, given the target's level."""
    return tuple(sorted({p for p in (1, beta - 1, beta, beta + 1) if 1 <= p <= m - 1}))


def cpmw_bucklin(query: DetectionQuery) -> DetectionVerdict:
    """Coalition CPMW for Bucklin."""
    if query.rule.kind != BUCKLIN:
        raise DispatchError(f"bucklin detector cannot handle a {query.rule.kind} rule")
    inst = query.instance
    x = current_winner(query)
    y = require_target(query, x)
    suspects = query.suspects
    m, n = inst.m, inst.n
    majority = (n + 1) // 2
    tb_rank = inst.tiebreak.positions()
    ext = topk_counts(m, inst.ballots_excluding(suspects))
    c = len(suspects)
    if c == 0:
        return no_verdict(METHOD_BUCKLIN)

    def safe_level(z: int, beta: int) -> int:
        # deepest level z may be held out of a majority at: z loses ties to y
        # only when y is earlier in the tie-break order
        return beta if tb_rank[z] < tb_rank[y] else beta - 1

    others = [z for z in range(m) if z != x and z != y]

    for beta in range(1, m + 1):
        cases = case_positions(beta, m)
        if not cases:
            continue
        for counts in _compositions(c, len(cases)):
            # realized final level of y under this case assignment
            def cnt_y(l: int) -> int:
                extra = sum(
                    counts[k] for k, p in enumerate(cases) if p + 1 <= l
                )
                return ext[y][l] + extra

            realized = next(l for l in range(1, m + 1) if cnt_y(l) >= majority)
            if realized != beta:
                continue

            lx = safe_level(x, beta)
            x_count = ext[x][lx] + sum(
                counts[k] for k, p in enumerate(cases) if p <= lx
            )
            if x_count >= majority:
                continue

            caps = {}
            feasible = True
            for z in others:
                cap = majority - 1 - ext[z][safe_level(z, beta)]
                if cap < 0:
                    feasible = False
                    break
                caps[z] = cap
            if not feasible:
                continue

            ballot_cases = []
            for k, p in enumerate(cases):
                ballot_cases.extend([p] * counts[k])
            fills = _fill_top_segments(
                m, beta, ballot_cases, others, caps, tb_rank, y,
                lambda z: safe_level(z, beta),
            )
            if fills is None:
                continue

            witness = {}
            for idx, (p, fill) in zip(suspects, fills):
                ranking: list[int] = [-1] * m
                ranking[p - 1] = x
                ranking[p] = y
                for q, z in fill.items():
                    ranking[q - 1] = z
                used = set(ranking)
                rest = sorted((z for z in range(m) if z not in used), key=lambda z: tb_rank[z])
                it = iter(rest)
                for pos in range(m):
                    if ranking[pos] == -1:
                        ranking[pos] = next(it)
                witness[idx] = Preference(ranking)

            replay = [(pref, 1) for pref in witness.values()]
            if winner_from_ballots(m, replay, inst.tiebreak, query.rule, base=ext) == y:
                return yes_verdict(witness, y, METHOD_BUCKLIN)
    return no_verdict(METHOD_BUCKLIN)


def _fill_top_segments(m, beta, ballot_cases, others, caps, tb_rank, y, safe_level):
    """Assign candidates to the open top-of-ballot slots, depth first.

    Returns a list of (x_position, {slot -> candidate}) per suspect ballot, or
    None when no assignment respects the caps.  A slot at rank q consumes a
    candidate's cap only when q is at or above the level that candidate must
    be kept out of; deeper-is-first slot order and widest-remaining-cap
    candidate order make the first descent the common greedy path.
    """
    slots = []  # (ballot index, rank)
    for bi, p in enumerate(ballot_cases):
        for q in range(beta, 0, -1):
            if q != p and q != p + 1:
                slots.append((bi, q))
    remaining = dict(caps)
    used: list[set[int]] = [set() for _ in ballot_cases]
    fill: list[dict[int, int]] = [dict() for _ in ballot_cases]

    def choices(bi: int, q: int) -> list[int]:
        pool = []
        for z in others:
            if z in used[bi]:
                continue
            if q > safe_level(z):
                pool.append((0, -remaining[z], -tb_rank[z], z))  # cap-free here
            elif remaining[z] > 0:
                pool.append((1, -remaining[z], -tb_rank[z], z))
        pool.sort()
        return [z for _, _, _, z in pool]

    def dfs(si: int):
        if si == len(slots):
            return True
        bi, q = slots[si]
        for z in choices(bi, q):
            consumes = q <= safe_level(z)
            used[bi].add(z)
            fill[bi][q] = z
            if consumes:
                remaining[z] -= 1
            if dfs(si + 1):
                return True
            if consumes:
                remaining[z] += 1
            del fill[bi][q]
            used[bi].discard(z)
        return False

    if not dfs(0):
        return None
    return [(p, fill[bi]) for bi, p in enumerate(ballot_cases)]
