"""Single-suspect possible-manipulator detection for the maximin rule.

Let N be the margin matrix of the rest of the profile, s_c = min_z N[c][z]
the maximin score of c there, and W_c the worst opponents of c (the z with
N[c][z] = s_c).  Every margin of one profile has the parity of its voter
count, so any other opponent of c has a margin of at least s_c + 2.  The
suspect's ballot moves every margin by exactly one, so c ends at s_c - 1 if
some member of W_c is ranked above c, and at s_c + 1 otherwise.

The target y therefore scores t = s_y + 1 if no member of W_y sits above y
(impossible when x is in W_y, since x sits above y), and at least
t = s_y - 1 on any ballot; these are the two cases tried.  Every other
candidate c must lose to t: if it cannot even at s_c - 1 the case is
hopeless, if it loses even at s_c + 1 it may go anywhere, and otherwise
some member of W_c must sit above it.

Fill the ballot top down.  Every condition asks that some candidate already
be placed (a member of W_c above c, x above y, and in the first case y above
each member of W_y), so a candidate ready to go next stays ready however
many others go first.  A greedy that places any ready candidate is then
complete: were it stuck, the first unplaced candidate of an admissible
ballot would be ready.  y waits only for x, and placing a candidate never
makes another unready, so y goes right after x: the witness has y directly
below x.  No backtracking, no guessed position: O(m^2) per case.
"""

from __future__ import annotations

from .core import Preference
from .detection import (
    DetectionQuery,
    DetectionVerdict,
    no_verdict,
    require_target,
)
from .errors import DegenerateRosterError, DispatchError
from .rules import (
    MAXIMIN,
    maximin_scores_from_margins,
)

METHOD_MAXIMIN = "maximin-single"


def cpmw_maximin_single(query: DetectionQuery) -> DetectionVerdict:
    """Single-suspect CPMW for maximin."""
    if query.rule.kind != MAXIMIN:
        raise DispatchError(f"maximin detector cannot handle a {query.rule.kind} rule")
    if len(query.suspects) != 1:
        raise DispatchError("this procedure handles exactly one suspect")
    if query.instance.m < 2:
        raise DegenerateRosterError("maximin detection needs at least two candidates")
    x, y = require_target(query)
    (i,) = query.suspects

    margins = query.rest
    scores = maximin_scores_from_margins(margins)
    tb_rank = query.instance.tb_rank
    for t in (scores[y] + 1, scores[y] - 1):
        ballot = _greedy_ballot(margins, scores, tb_rank, x, y, t)
        if ballot is None:
            continue
        verdict = query.confirm({i: Preference(ballot)}, METHOD_MAXIMIN)
        if verdict:
            return verdict
    return no_verdict(METHOD_MAXIMIN)


def _greedy_ballot(margins, scores, tb_rank, x, y, t):
    """A ballot with y directly below x, y at t or more and every other
    candidate losing to t, or None.  `met[c]`: c loses wherever it goes next
    (even s_c + 1 loses to t, or a worst opponent of c is placed); when
    t = s_y + 1 the worst opponents of y also wait for y."""
    m = len(scores)
    guard_y = t > scores[y]

    def loses(c: int, s: int) -> bool:
        return t > s or (t == s and tb_rank[y] < tb_rank[c])

    if guard_y and margins[y][x] == scores[y]:
        return None
    if any(c != y and not loses(c, scores[c] - 1) for c in range(m)):
        return None
    worst = [[margins[c][z] == scores[c] and z != c for z in range(m)] for c in range(m)]
    met = [loses(c, scores[c] + 1) for c in range(m)]
    placed = [False] * m
    rest = [c for c in range(m) if c != x and c != y]
    ballot: list[int] = []
    while len(ballot) < m:
        if not placed[x] and met[x]:
            step = [x, y]
        else:
            step = [
                c for c in rest
                if not placed[c] and met[c] and not (guard_y and worst[y][c] and not placed[y])
            ][:1]
            if not step:
                return None
        for v in step:
            ballot.append(v)
            placed[v] = True
            met = [met[c] or worst[c][v] for c in range(m)]
    return ballot
