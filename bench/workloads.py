"""The three workloads: their elections and their query plans.

A query is labelled by the benchmark itself (`kind` and `label`); results
are never classified by the program's `verdict.method`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import inputs
from inputs import Election
from verify import own_winner, positional_scores

KINDS = ("winner", "cpmw", "cpm", "search")


@dataclass(frozen=True)
class Query:
    election: str
    problem: str  # winner | cpmw | cpm | cpmsw | cpms
    rule: str  # rule spec as the CLI takes it
    label: str
    suspects: tuple[int, ...] = ()
    target: str | None = None
    k: int | None = None
    expected: str | None = None  # "YES" or "NO" when the input's construction decides it

    @property
    def kind(self) -> str:
        return self.problem if self.problem in ("winner", "cpmw", "cpm") else "search"

    @property
    def key(self) -> str:
        suspects = ",".join(map(str, self.suspects))
        return f"{self.election}|{self.problem}|{self.rule}|{suspects}|{self.target}|{self.k}"


@dataclass
class Workload:
    """`queries` is one round of distinct queries; `traced` is the fixed work of a traced run.

    With `reparse`, each timed round runs on a fresh parse of the elections.
    """

    name: str
    elections: dict[str, Election]
    queries: list[Query]
    reparse: bool
    traced: list[Query]
    winners: dict[tuple[str, str], int] = field(default_factory=dict)


class Planner:
    def __init__(self, rng: random.Random, elections: dict[str, Election]):
        self.rng = rng
        self.elections = elections
        self.queries: list[Query] = []
        self.winners: dict[tuple[str, str], int] = {}

    def winner(self, election: str, rule: str) -> int:
        key = (election, rule)
        if key not in self.winners:
            self.winners[key] = own_winner(self.elections[election], rule)
        return self.winners[key]

    def add(self, election: str, problem: str, rule: str, label: str, size: int = 0, k=None,
            target: int | None = None, expected: str | None = None):
        """Append a query; CPMW/CPMSW get a random target unless one is given."""
        e = self.elections[election]
        x = self.winner(election, rule)
        name = None
        if problem in ("cpmw", "cpmsw"):
            if target is None:
                target = self.rng.choice([c for c in range(e.m) if c != x])
            name = e.names[target]
        suspects = tuple(sorted(self.rng.sample(range(e.n), size)))
        self.queries.append(Query(election, problem, rule, label, suspects, name, k, expected))

    def workload(self, name: str, reparse: bool, traced: list[Query]) -> Workload:
        return Workload(name, self.elections, list(self.queries), reparse, traced, self.winners)


def audit_large(seed: int) -> Workload:
    """Two big elections queried across all rules; the oracle is never used."""
    rng = random.Random(f"audit-large/{seed}")
    p = Planner(rng, {"wide": inputs.wide(rng), "tall": inputs.tall(rng)})
    for e in ("wide", "tall"):
        for rule in ("borda", "plurality", "maximin", "bucklin", "stv"):
            p.add(e, "winner", rule, f"winner-{rule}")
    for e, draws, rivals in (("wide", 10, 4), ("tall", 1, 1)):
        for _ in range(draws):
            p.add(e, "cpmw", "borda", "borda-10", size=10)
            p.add(e, "cpmw", "plurality", "plurality-50", size=50)
            p.add(e, "cpmw", "bucklin", "bucklin-3", size=3)
        p.add(e, "cpmw", "borda", "borda-single", size=1)
        # Greedy searches against the strongest Borda rivals: their answers
        # stay the same from seed to seed (YES on `wide`, where 100 voters
        # shift far more than the rivals trail), so their cost does not hinge
        # on the draw.
        scores = positional_scores(p.elections[e], "borda")
        x = p.winner(e, "borda")
        ranked = sorted((c for c in range(len(scores)) if c != x), key=lambda c: -scores[c])
        for y in ranked[:rivals]:
            p.add(e, "cpmsw", "borda", "borda-greedy", k=100, target=y)
    # Every CPM answers NO on every seed, so each scans all of its targets.
    # (A Bucklin CPM on `wide` is left out: its cost swings threefold from
    # seed to seed with the shape of the profile.)
    p.add("wide", "cpmw", "maximin", "maximin-single", size=1)
    p.add("wide", "cpm", "borda", "borda-10", size=10)
    p.add("wide", "cpms", "borda", "borda-greedy", k=100)
    p.add("tall", "cpm", "borda", "borda-single", size=1)
    p.add("tall", "cpm", "bucklin", "bucklin-3", size=3)
    p.add("tall", "cpm", "plurality", "plurality-50", size=50)
    rng.shuffle(p.queries)
    workload = p.workload("audit-large", reparse=False, traced=list(p.queries))
    # About 400 score-table builds today, too slow for every round: the traced
    # run does it once, as the sanity count.
    p.add("wide", "cpm", "borda", "borda-single", size=1)
    workload.traced.append(p.queries[-1])
    return workload


IRREGULAR = {4: "scoring:3,1,0,0", 5: "scoring:4,2,1,0,0"}
# (family, m, CPMW |M|, CPM |M|) of each election, in a repeating cycle: the
# shares stay fixed and only the ballots vary with the seed.
ORACLE_CYCLE = (
    ("stv", 4, 2, 2), ("maximin", 4, 2, 2), ("irregular", 4, 2, 2), ("bucklin", 4, 3, 2),
    ("stv", 5, 1, 1), ("maximin", 4, 2, 2), ("irregular", 4, 2, 2), ("stv", 4, 1, 1),
)
# One round takes 3 to 4 s, so the rounds of a run span all of it.
SMALL_ELECTIONS = 320


def oracle_small(seed: int) -> Workload:
    """Many distinct small elections decided mostly by exhaustive search.

    Each election gets four queries per round and each round runs on a fresh
    parse, so no instance object is queried in two rounds.
    """
    rng = random.Random(f"oracle-small/{seed}")
    shapes = [ORACLE_CYCLE[i % len(ORACLE_CYCLE)] for i in range(SMALL_ELECTIONS)]
    elections = {f"s{i:04d}": inputs.small(rng, shape[1]) for i, shape in enumerate(shapes)}
    p = Planner(rng, elections)
    for key, (family, m, cpmw_size, cpm_size) in zip(elections, shapes):
        rule = IRREGULAR[m] if family == "irregular" else family
        p.add(key, "winner", rule, f"winner-{family}")
        p.add(key, "cpmw", rule, f"{family}-{cpmw_size}", size=cpmw_size)
        p.add(key, "cpm", rule, f"{family}-{cpm_size}", size=cpm_size)
        p.add(key, "cpmsw", rule, f"{family}-k1", k=1)
    return p.workload("oracle-small", reparse=True, traced=list(p.queries))


# Random-suspect CPMW draws per election, so that a round holds over 100
# distinct queries and query_p90_ms has ten of them beyond it.
DRAWS = 5


def search_mid(seed: int) -> Workload:
    """Four mid-size elections, each searched for small coalitions many times.

    In the two landslides every query answers NO, so searches scan every
    coalition; in the two planted near-ties the searches against the planted
    rival answer YES at their first coalition.  Either way the cost of a query
    is set by the construction, not by the luck of the draw.
    """
    rng = random.Random(f"search-mid/{seed}")
    land5, x5 = inputs.landslide(rng, 5, 50)
    land6, x6 = inputs.landslide(rng, 6, 60)
    tie5, _, y5 = inputs.planted(rng, 5, 40)
    tie6, _, y6 = inputs.planted(rng, 6, 46)
    p = Planner(rng, {"land5": land5, "land6": land6, "tie5": tie5, "tie6": tie6})
    for e in ("land5", "land6", "tie5", "tie6"):
        p.add(e, "winner", "plurality", "winner-plurality")
        p.add(e, "winner", "bucklin", "winner-bucklin")
        for _ in range(DRAWS):
            p.add(e, "cpmw", "plurality", "plurality-2", size=2)
            p.add(e, "cpmw", "plurality", "plurality-1", size=1)
            p.add(e, "cpmw", "bucklin", "bucklin-2", size=2)
    # With x first on 70% of the ballots, two voters cannot unseat x under
    # plurality or Bucklin, nor one voter under maximin or the irregular vector.
    no = {"expected": "NO"}
    p.add("land5", "winner", "maximin", "winner-maximin")
    p.add("land5", "cpm", "maximin", "maximin-single", size=1, **no)
    p.add("land5", "cpmsw", "plurality", "plurality-k1", k=1, **no)
    p.add("land5", "cpms", "plurality", "plurality-k2", k=2, **no)
    p.add("land5", "cpmsw", "bucklin", "bucklin-k2", k=2, **no)
    p.add("land5", "cpmsw", "maximin", "maximin-k1", k=1, **no)
    p.add("land5", "cpms", "maximin", "maximin-k1", k=1, **no)
    p.add("land5", "cpmsw", IRREGULAR[5], "irregular-k1", k=1, **no)
    p.add("land5", "cpms", "borda", "borda-greedy", k=2)
    p.add("land5", "cpmsw", "approval:2", "approval2-greedy", k=2)
    p.add("land5", "cpms", "veto", "veto-greedy", k=2)
    p.add("land6", "cpm", "borda", "borda-single", size=1)
    p.add("land6", "cpmsw", "plurality", "plurality-k2", k=2, **no)
    p.add("land6", "cpmsw", "bucklin", "bucklin-k1", k=1, **no)
    p.add("land6", "cpmsw", "borda", "borda-greedy", k=2)
    p.add("land6", "cpms", "approval:2", "approval2-greedy", k=2)
    p.add("land6", "cpmsw", "veto", "veto-greedy", k=2)
    for e, y in (("tie5", y5), ("tie6", y6)):
        yes = {"target": y, "expected": "YES"}
        p.add(e, "cpmsw", "plurality", "plurality-k1", k=1, **yes)
        p.add(e, "cpmsw", "plurality", "plurality-k2", k=2, **yes)
        p.add(e, "cpmsw", "bucklin", "bucklin-k1", k=1, **yes)
        p.add(e, "cpmsw", "bucklin", "bucklin-k2", k=2, **yes)
        p.add(e, "cpms", "plurality", "plurality-k2", k=2, expected="YES")
        p.add(e, "cpms", "bucklin", "bucklin-k1", k=1, expected="YES")
        p.add(e, "cpmsw", "borda", "borda-greedy", k=2)
        p.add(e, "cpms", "veto", "veto-greedy", k=2)
    rng.shuffle(p.queries)
    return p.workload("search-mid", reparse=False, traced=list(p.queries))


WORKLOADS = {"audit-large": audit_large, "oracle-small": oracle_small, "search-mid": search_mid}
