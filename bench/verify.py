"""Verdict checks made outside the timed phase.

* Winners are compared with the benchmark's own winner determination below,
  which works on the tallied lines the benchmark generated.
* Every YES is replayed by the benchmark: each witness ballot must rank the
  current winner x above the claimed winner y, and `rules.winner` on the
  profile with the witness ballots substituted must return y.
* Every answer is compared with a reference: the exhaustive oracle where its
  work (replays times voters) fits `ORACLE_WORK_LIMIT`, else the answers
  recorded in `reference.json` (default seed only).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from inputs import Election

ORACLE_WORK_LIMIT = 1_000_000


def rule_alphas(spec: str, m: int) -> list | None:
    """Scoring vector of a rule spec, or None for maximin, Bucklin and STV."""
    name, _, arg = spec.partition(":")
    if name == "borda":
        return list(range(m - 1, -1, -1))
    if name == "plurality":
        return [1] + [0] * (m - 1)
    if name == "veto":
        return [1] * (m - 1) + [0]
    if name == "approval":
        k = int(arg)
        return [1] * k + [0] * (m - k)
    if name == "scoring":
        return [Fraction(part) for part in arg.split(",")]
    return None


def positional_scores(election: Election, spec: str) -> list:
    """Score of every candidate under a scoring-rule spec."""
    alphas = rule_alphas(spec, election.m)
    score = [0] * election.m
    for ranking, count in election.lines:
        for p, c in enumerate(ranking):
            score[c] += alphas[p] * count
    return score


def own_winner(election: Election, spec: str) -> int:
    """Winner by the rules' definitions, over the weighted (ranking, count) lines."""
    m, lines = election.m, election.lines
    n = election.n
    tb_rank = [0] * m
    for p, c in enumerate(election.order):
        tb_rank[c] = p
    if rule_alphas(spec, m) is not None:
        score = positional_scores(election, spec)
        best = max(score)
        tied = [c for c in range(m) if score[c] == best]
    elif spec == "maximin":
        margin = [[0] * m for _ in range(m)]
        for ranking, count in lines:
            for i, a in enumerate(ranking):
                row = margin[a]
                for b in ranking[i + 1:]:
                    row[b] += count
                    margin[b][a] -= count
        score = [min(margin[c][z] for z in range(m) if z != c) for c in range(m)]
        best = max(score)
        tied = [c for c in range(m) if score[c] == best]
    elif spec == "bucklin":
        level = [m] * m
        within = [0] * m
        for depth in range(1, m + 1):
            for ranking, count in lines:
                within[ranking[depth - 1]] += count
            for c in range(m):
                if level[c] == m and 2 * within[c] >= n and depth < m:
                    level[c] = depth
        best = min(level)
        tied = [c for c in range(m) if level[c] == best]
    elif spec == "stv":
        alive = set(range(m))
        while len(alive) > 1:
            tops = {c: 0 for c in alive}
            for ranking, count in lines:
                tops[next(c for c in ranking if c in alive)] += count
            least = min(tops.values())
            alive.discard(max((c for c in alive if tops[c] == least), key=lambda c: tb_rank[c]))
        tied = list(alive)
    else:
        raise ValueError(f"unknown rule {spec!r}")
    return min(tied, key=lambda c: tb_rank[c])


def oracle_work(query, m: int, n: int) -> int:
    """Replays the exhaustive oracle would need for this query, at most, times n."""
    per_ballot = factorial(m) // 2
    if query.problem in ("cpmw", "cpm"):
        cost = per_ballot ** len(query.suspects)
    elif query.problem in ("cpmsw", "cpms"):
        cost = sum(comb(n, s) * per_ballot**s for s in range(1, query.k + 1))
    else:
        return 0
    return cost * (m - 1 if query.problem in ("cpm", "cpms") else 1) * n


def oracle_answer(oracle, query, instance, rule) -> bool:
    y = instance.candidate_id(query.target) if query.target is not None else None
    if query.problem == "cpmw":
        return oracle.oracle_cpmw(instance, rule, query.suspects, y).answer
    if query.problem == "cpm":
        return oracle.oracle_cpm(instance, rule, query.suspects).answer
    return oracle.search_coalitions(instance, rule, query.k, y).answer


def replay_problems(rules, query, instance, rule, verdict, x: int) -> list[str]:
    """Why a YES verdict does not hold up, as a list of reasons (empty when it does)."""
    witness = verdict.witness or {}
    y = verdict.witness_actual_winner
    problems = []
    if not witness or y is None:
        return ["YES without a witness"]
    if y == x:
        problems.append("claimed winner is the current winner")
    if query.target is not None and instance.names[y] != query.target:
        problems.append("claimed winner is not the queried target")
    if query.suspects and not set(witness) <= set(query.suspects):
        problems.append("witness outside the suspects")
    if query.k is not None and len(witness) > query.k:
        problems.append("coalition larger than k")
    if verdict.coalition is not None and set(verdict.coalition) != set(witness):
        problems.append("coalition differs from the witness voters")
    ballots = list(instance.ballots)
    for voter, pref in witness.items():
        ranking = tuple(pref.ranking)
        if sorted(ranking) != list(range(instance.m)):
            problems.append(f"witness ballot of voter {voter} is not a ranking")
            continue
        if ranking.index(x) > ranking.index(y):
            problems.append(f"witness ballot of voter {voter} ranks y above x")
        ballots[voter] = pref
    if not problems:
        replayed = type(instance)(instance.names, ballots, instance.tiebreak)
        if rules.winner(replayed, rule) != y:
            problems.append("replaying the witness does not elect y")
    return problems
