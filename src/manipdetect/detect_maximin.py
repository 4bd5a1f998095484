"""Single-suspect possible-manipulator detection for the maximin rule.

Adding one ballot to the rest of the profile moves every pairwise margin by
exactly one, and margin parity forces each candidate's maximin score to move
by exactly one as well.  The search therefore guesses the score shift (+1 or
-1) of the current winner x and of the target y, the adjacent position pair
holding x and y (y directly below x, the canonical witness shape), and which
worst-opponent witnesses sit above x; a top-down fill then places the
remaining candidates.

A candidate's final maximin score is fully determined the moment it is
placed: everything already placed sits above it (margin - 1), everything else
below (margin + 1).  The fill places a candidate only if that exact score
still loses to the target, and backtracks over the admissible choices, so a
NO is exhaustive over all ballots consistent with the guess.
"""

from __future__ import annotations

from .core import Preference
from .detection import (
    DetectionQuery,
    DetectionVerdict,
    no_verdict,
    require_target,
    yes_verdict,
)
from .errors import DegenerateRosterError, DispatchError
from .rules import (
    MAXIMIN,
    maximin_scores_from_margins,
    tally_without,
    winner_and_tally,
    winner_from_ballots,
)

METHOD_MAXIMIN = "maximin-single"

GUESS_ORDER = ((-1, -1), (-1, +1), (+1, -1), (+1, +1))


def cpmw_maximin_single(query: DetectionQuery) -> DetectionVerdict:
    """Single-suspect CPMW for maximin."""
    if query.rule.kind != MAXIMIN:
        raise DispatchError(f"maximin detector cannot handle a {query.rule.kind} rule")
    if len(query.suspects) != 1:
        raise DispatchError("this procedure handles exactly one suspect")
    inst = query.instance
    m = inst.m
    if m < 2:
        raise DegenerateRosterError("maximin detection needs at least two candidates")
    x, full = winner_and_tally(inst, query.rule)
    y = require_target(query, x)
    (i,) = query.suspects

    margins = tally_without(inst, query.rule, full, query.suspects)
    scores = maximin_scores_from_margins(margins)
    # worst opponents of x and of y in the profile without the suspect
    b_x = frozenset(z for z in range(m) if z != x and margins[x][z] == scores[x])
    b_y = frozenset(z for z in range(m) if z != y and margins[y][z] == scores[y])
    tb_rank = inst.tiebreak.positions()
    x_in_by = x in b_y
    bx_pool = b_x - {y}
    by_pool = b_y - {x}

    def target_beats(sy: int, c: int, sc: int) -> bool:
        return sy > sc or (sy == sc and tb_rank[y] < tb_rank[c])

    for gx, gy in GUESS_ORDER:
        target_x = scores[x] + gx
        target_y = scores[y] + gy
        if not target_beats(target_y, x, target_x):
            continue
        if gy == +1 and x_in_by:
            continue
        need_bx = gx == -1
        need_by = gy == -1 and not x_in_by
        forbid: set[int] = set()
        if gx == +1:
            forbid |= bx_pool
        if gy == +1:
            forbid |= by_pool
        avail_bx = bx_pool - forbid
        avail_by = by_pool - forbid
        if need_bx and not avail_bx:
            continue
        if need_by and not avail_by:
            continue

        for j in range(1, m):
            ballot = _fill_ballot(
                m,
                margins,
                x,
                y,
                j,
                target_y,
                tb_rank,
                forbid,
                need_bx,
                need_by,
                avail_bx,
                avail_by,
            )
            if ballot is None:
                continue
            pref = Preference(ballot)
            if winner_from_ballots(m, [(pref, 1)], inst.tiebreak, query.rule, base=margins) == y:
                return yes_verdict({i: pref}, y, METHOD_MAXIMIN)
    return no_verdict(METHOD_MAXIMIN)


def _fill_ballot(
    m,
    margins,
    x,
    y,
    j,
    target_y,
    tb_rank,
    forbid,
    need_bx,
    need_by,
    avail_bx,
    avail_by,
):
    """Depth-first fill of one ballot with x at position j and y at j+1.

    Positions above x must realize the guessed witness requirements; every
    other candidate is placed only while its exact final score loses to the
    target's guessed score.  Returns a complete ranking or None.
    """
    placed: list[int] = []
    placed_set: set[int] = set()
    unplaced = {c for c in range(m) if c != x and c != y}

    def score_if_placed_now(c: int) -> int:
        # everything already placed is above c, everything else ends up below
        best = None
        for w in range(m):
            if w == c or w in placed_set:
                continue
            d = margins[c][w] + 1
            if best is None or d < best:
                best = d
        for v in placed:
            d = margins[c][v] - 1
            if best is None or d < best:
                best = d
        return best

    def loses_to_target(c: int, sc: int) -> bool:
        return target_y > sc or (target_y == sc and tb_rank[y] < tb_rank[c])

    def coverable(bx_met: bool, by_met: bool, slots_left: int, pool: set[int]) -> bool:
        missing = []
        if need_bx and not bx_met:
            missing.append(avail_bx & pool)
        if need_by and not by_met:
            missing.append(avail_by & pool)
        if not missing:
            return True
        if any(not s for s in missing):
            return False
        if len(missing) == 1 or missing[0] & missing[1]:
            return slots_left >= 1
        return slots_left >= 2

    def choice_order(pool, bx_met: bool, by_met: bool) -> list[int]:
        want_bx = need_bx and not bx_met
        want_by = need_by and not by_met

        def klass(c: int) -> int:
            if want_bx and want_by and c in avail_bx and c in avail_by:
                return 0
            if want_bx and c in avail_bx:
                return 1
            if want_by and c in avail_by:
                return 2
            return 3

        return sorted(pool, key=lambda c: (klass(c), -tb_rank[c]))

    def place(c: int):
        placed.append(c)
        placed_set.add(c)

    def unplace(c: int):
        placed.pop()
        placed_set.discard(c)

    def dfs(pos: int, bx_met: bool, by_met: bool):
        if pos == m + 1:
            return list(placed)
        if pos == j or pos == j + 1:
            c = x if pos == j else y
            if pos == j and ((need_bx and not bx_met) or (need_by and not by_met)):
                return None
            place(c)
            result = dfs(pos + 1, bx_met, by_met)
            if result is None:
                unplace(c)
            return result
        in_top = pos < j
        pool = [c for c in unplaced if not (in_top and c in forbid)]
        for c in choice_order(pool, bx_met, by_met):
            sc = score_if_placed_now(c)
            if not loses_to_target(c, sc):
                continue
            nbx, nby = bx_met, by_met
            if in_top:
                nbx = bx_met or c in avail_bx
                nby = by_met or c in avail_by
                if not coverable(nbx, nby, (j - 1) - pos, unplaced - {c}):
                    continue
            place(c)
            unplaced.discard(c)
            result = dfs(pos + 1, nbx, nby)
            if result is not None:
                return result
            unplace(c)
            unplaced.add(c)
        return None

    return dfs(1, False, False)
