"""Coalition possible-manipulator detection for STV by elimination-tree search.

x is the current winner and y the target.  A suspect ballot matters to an
STV run only through the alive candidate it currently tops, and, every rule
being anonymous, only the multiset of those tops matters.  So the search
walks elimination sequences, not ballots:

1. Root.  Branch over the multisets of the |M| first choices, y left out,
   since x is alive at the start.
2. Each round counts every alive candidate (the first-choice weight of the
   rest of the profile plus the suspect ballots topping it) and drops the
   `rules.stv_loser`, as `rules.stv_order` does.  A branch that drops y is
   pruned.  The suspect ballots that topped the dropped candidate branch
   over the multisets of their next alive candidate, y left out while x is
   alive.  One candidate left, and it is y: YES.
3. Each witness ballot is its support sequence, then every other candidate.
   When the sequence reaches y without x, x goes just before y (x is dead
   by then); otherwise x goes right after the sequence.  So every ballot
   ranks x above y and replays the path found.  The witness is replayed
   before a YES is returned.

Every run of the suspects' ballots is a path of this tree, so the search is
complete, and exponential: one suspect gives at most about 1.62^m nodes
(Conitzer, Sandholm & Lang, JACM 2007).  The whole profile's first-choice
counts depend only on the alive set; they are memoized per alive bitmask
in the query's context, so every coalition of a search shares them, and
the rest of the profile counts that minus each suspect's own top alive
candidate.  A packed instance's units are counted from its position
planes, as `rules.stv_order` moves them.  The budget,
`oracle.DEFAULT_REPLAY_BUDGET`, counts simulated rounds: every round is
checked by `DetectionQuery.within`, so the search refuses at one round
past the budget, unless the query has `force` set.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from . import oracle
from .core import Preference, column_masks
from .detection import (
    DetectionQuery,
    DetectionVerdict,
    no_verdict,
    require_target,
)
from .errors import DispatchError
from .rules import STV, _hand_over, stv_loser

METHOD_STV = "stv-tree"


def cpmw_stv(query: DetectionQuery) -> DetectionVerdict:
    """Coalition CPMW for STV; past the round budget, refuse unless the
    query has `force` set."""
    if query.rule.kind != STV:
        raise DispatchError(f"STV detector cannot handle a {query.rule.kind} rule")
    inst, suspects, context = query.instance, query.suspects, query.context
    x, y = require_target(query)
    m, tb_rank, memo = inst.m, inst.tb_rank, context.first_choices
    budget = oracle.DEFAULT_REPLAY_BUDGET
    truthful = [pref.ranking for pref, _ in inst.ballots_of(suspects)]
    # each suspect ballot's support sequence, its current top last; a branch
    # point appends a placeholder (y) that each of its choices overwrites
    seqs = [[y] for _ in suspects]
    rounds = 0
    # branch points: the alive bitmask, the ballots that move there, their choices
    stack = [((1 << m) - 1, seqs, combinations_with_replacement(
        [c for c in range(m) if c != y], len(seqs)))]
    while stack:
        mask, movers, choices = stack[-1]
        choice = next(choices, None)
        if choice is None:
            stack.pop()
            for seq in movers:
                seq.pop()
            continue
        for seq, c in zip(movers, choice):
            seq[-1] = c
        while True:
            counts = memo.get(mask)
            if counts is None:
                counts = memo[mask] = _first_choices(inst.classes, m, mask)
            counts = counts.copy()
            for r in truthful:
                counts[next(c for c in r if mask >> c & 1)] -= 1
            for seq in seqs:
                counts[seq[-1]] += 1
            drop = stv_loser(counts, [c for c in range(m) if mask >> c & 1], tb_rank)
            rounds += 1
            query.within(rounds, budget, "STV elimination-tree search", "rounds")
            if drop == y:
                break
            mask &= ~(1 << drop)
            if not mask & (mask - 1):
                witness = {i: _ballot(seq, x, y, m) for i, seq in zip(suspects, seqs)}
                verdict = query.confirm(witness, METHOD_STV, exhaustive=True)
                if verdict:
                    return verdict
                break
            moving = [seq for seq in seqs if seq[-1] == drop]
            if moving:
                options = [c for c in range(m) if mask >> c & 1 and (c != y or not mask >> x & 1)]
                for seq in moving:
                    seq.append(y)
                stack.append((mask, moving, combinations_with_replacement(options, len(moving))))
                break
    return no_verdict(METHOD_STV, exhaustive=True)


def _first_choices(classes, m: int, mask: int) -> list[int]:
    """How many voters of the weighted profile top each candidate of `mask`.
    Packed units go to their first alive candidate by `rules._hand_over`,
    which lies at most as deep as the number of dead candidates."""
    planes, units, classes = getattr(classes, "pack", (None, 0, classes))
    counts = [0] * m
    if planes is not None:
        alive = [mask >> c & 1 for c in range(m)]
        depth, ones = m + 1 - sum(alive), (1 << units) - 1
        at = [column_masks(depth, own, ones) if live else () for own, live in zip(planes, alive)]
        _hand_over(ones, 0, at, alive, [0] * m, counts)
    for pref, w in classes:
        counts[next(c for c in pref.ranking if mask >> c & 1)] += w
    return counts


def _ballot(seq: list[int], x: int, y: int, m: int) -> Preference:
    """The ranking whose support sequence is `seq` and that places x above y."""
    head = list(seq)
    if x not in head:
        head.insert(head.index(y) if y in head else len(head), x)
    placed = set(head)
    return Preference._from_checked(tuple(head + [c for c in range(m) if c not in placed]))
