import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import manipdetect
from manipdetect import ballotfile, oracle
from manipdetect.ballotfile import render_election
from manipdetect.core import Preference, margin_matrix
from manipdetect.errors import ValidationError
from manipdetect.generators import (
    MarginFunction,
    X3CInstance,
    cover_witness_ballot,
    find_exact_cover,
    mcgarvey_ballots,
    random_profile,
    x3c_to_stv,
)
from manipdetect.rules import VotingRule, winner


def test_mcgarvey_single_positive_pair():
    f = MarginFunction.from_pairs(3, {(0, 1): 2})
    ballots = mcgarvey_ballots(f)
    assert [b.ranking for b in ballots] == [(0, 1, 2), (2, 0, 1)]
    d = margin_matrix(3, [(b, 1) for b in ballots])
    assert d[0][1] == 2 and d[0][2] == 0 and d[1][2] == 0


def test_mcgarvey_zero_function_gives_empty_profile():
    f = MarginFunction.from_pairs(3, {})
    assert mcgarvey_ballots(f) == ()


def test_mcgarvey_condorcet_cycle():
    f = MarginFunction.from_pairs(3, {(0, 1): 2, (1, 2): 2, (2, 0): 2})
    ballots = mcgarvey_ballots(f)
    assert len(ballots) == 6
    d = margin_matrix(3, [(b, 1) for b in ballots])
    assert d[0][1] == 2 and d[1][2] == 2 and d[2][0] == 2


def test_mcgarvey_refuses_more_ballots_than_a_file_may_hold(monkeypatch):
    # the cap counts entries: sum |margin| = 6 + 4 ballots of 3 candidates
    # fit 30; 20 ballots, 60 entries, do not
    monkeypatch.setattr(ballotfile, "MAX_BALLOTS", 30)
    assert len(mcgarvey_ballots(MarginFunction.from_pairs(3, {(0, 1): 6, (2, 1): -4}))) == 10
    with pytest.raises(ValidationError, match="20 ballots of 3 candidates: 60 entries, past 30"):
        mcgarvey_ballots(MarginFunction.from_pairs(3, {(0, 1): 20}))


def test_random_profile_refuses_more_ballots_than_a_file_may_hold(monkeypatch):
    # the cap counts entries, ballots × candidates: 10 × 3 fit 30, 11 × 3 do not
    monkeypatch.setattr(ballotfile, "MAX_BALLOTS", 30)
    assert random_profile(3, 10, seed=1).n == 10
    with pytest.raises(ValidationError, match="11 ballots of 3 candidates: 33 entries, past 30"):
        random_profile(3, 11, seed=1)


@pytest.mark.parametrize("x3c", [
    X3CInstance(3, [(1, 2, 3)]),
    X3CInstance(6, [(1, 2, 3), (4, 5, 6), (1, 5, 6)]),
])
def test_x3c_gadget_refuses_more_entries_than_a_file_may_hold(monkeypatch, x3c):
    # the refusal counts the gadget's ballot lines and roster before it is
    # built; at a cap of exactly its entries it is built, one less refuses it
    inst = x3c_to_stv(x3c).instance
    lines = len(render_election(inst).splitlines()) - 2  # less candidates: and tiebreak:
    monkeypatch.setattr(ballotfile, "MAX_BALLOTS", lines * inst.m)
    assert x3c_to_stv(x3c).instance.m == inst.m
    monkeypatch.setattr(ballotfile, "MAX_BALLOTS", lines * inst.m - 1)
    with pytest.raises(ValidationError, match=f"{lines} ballots of {inst.m} candidates"):
        x3c_to_stv(x3c)


def test_oversized_generators_are_refused_before_anything_is_built():
    # a 30,008-candidate gadget of 30,017 lines, and 1,000 ballots of 10^6
    # candidates, under a 1.5 GB address-space cap set in a child process
    # only: each must be refused at once, not run out of memory or time
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))\n"
        "from manipdetect.errors import ValidationError\n"
        "from manipdetect.generators import X3CInstance, random_profile, x3c_to_stv\n"
        "for build in (lambda: x3c_to_stv(X3CInstance(30000, [(1, 2, 3)])),\n"
        "              lambda: random_profile(10**6, 1000, 0)):\n"
        "    try:\n"
        "        build()\n"
        "    except ValidationError as exc:\n"
        "        print('refused:', exc)\n"
    )
    src = str(Path(manipdetect.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert [line.split()[0] for line in done.stdout.splitlines()] == ["refused:"] * 2, done.stdout


def test_exact_cover_search_past_the_subset_budget_is_refused(monkeypatch):
    # C(4, 2) = 6 pairs of triples cover a universe of 6
    x3c = X3CInstance(6, [(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6)])
    monkeypatch.setattr(oracle, "DEFAULT_SUBSET_BUDGET", 6)
    assert find_exact_cover(x3c) == (0, 3)
    monkeypatch.setattr(oracle, "DEFAULT_SUBSET_BUDGET", 5)
    with pytest.raises(ValidationError, match="needs 6 subsets, budget is 5"):
        find_exact_cover(x3c)


def test_margin_function_validation():
    with pytest.raises(ValidationError):
        MarginFunction.from_pairs(2, {(0, 1): 3})  # odd
    with pytest.raises(ValidationError):
        MarginFunction(((0, 2), (2, 0)))  # not antisymmetric


@pytest.mark.parametrize(
    "margins, message",
    [
        (((0, 2), (-2,)), "square"),
        (((0, 2, 0), (-2, 0, 0)), "square"),
        (((0, 0, 0), (0, 0, 0), ()), "square"),
        (((2, 0), (0, 0)), "zero diagonal"),
        (((0, 2, 0), (-2, 0, 2), (0, 2, 0)), "antisymmetric"),
    ],
)
def test_margin_function_rejects_malformed_tables(margins, message):
    with pytest.raises(ValidationError, match=message):
        MarginFunction(margins)


def test_margin_function_from_pairs_rejects_contradicting_orientations():
    with pytest.raises(ValidationError, match="disagree"):
        MarginFunction.from_pairs(2, {(0, 1): 2, (1, 0): 2})
    with pytest.raises(ValidationError, match="zero diagonal"):
        MarginFunction.from_pairs(2, {(0, 0): 2})
    agreeing = MarginFunction.from_pairs(3, {(0, 1): 2, (1, 0): -2, (2, 1): 4})
    assert agreeing.margins == ((0, 2, 0), (-2, 0, -4), (0, 4, 0))


@given(
    st.integers(2, 5).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(
                st.integers(-3, 3), min_size=m * (m - 1) // 2, max_size=m * (m - 1) // 2
            ),
        )
    )
)
@settings(max_examples=100)
def test_mcgarvey_then_margins_is_identity(args):
    m, halves = args
    pairs = {}
    k = 0
    for a in range(m):
        for b in range(a + 1, m):
            pairs[(a, b)] = 2 * halves[k]
            k += 1
    f = MarginFunction.from_pairs(m, pairs)
    ballots = mcgarvey_ballots(f)
    assert len(ballots) == sum(abs(v) for v in pairs.values())
    d = margin_matrix(m, [(b, 1) for b in ballots])
    assert tuple(tuple(row) for row in d) == f.margins


def test_x3c_roster_size_example():
    gadget = x3c_to_stv(X3CInstance(3, [(1, 2, 3)]))
    assert gadget.instance.m == 11  # 5m + n + 3 with m=1, n=3


def test_x3c_validation():
    with pytest.raises(ValidationError):
        X3CInstance(4, [(1, 2, 3)])
    with pytest.raises(ValidationError):
        X3CInstance(3, [(1, 2, 2)])
    with pytest.raises(ValidationError):
        X3CInstance(3, [(1, 2, 4)])


def test_x3c_generator_is_total_without_cover():
    inst = X3CInstance(6, [(1, 2, 3), (1, 2, 4)])
    gadget = x3c_to_stv(inst)
    assert gadget.instance.m == 5 * 2 + 6 + 3
    assert find_exact_cover(inst) is None


def test_x3c_reported_winner_is_x():
    cases = [
        X3CInstance(3, [(1, 2, 3)]),
        X3CInstance(3, [(1, 2, 3), (1, 2, 3)]),
        X3CInstance(6, [(1, 2, 3), (4, 5, 6)]),
        X3CInstance(6, [(1, 2, 3), (1, 2, 4)]),
        X3CInstance(6, [(1, 2, 3), (4, 5, 6), (1, 2, 4)]),
    ]
    for x3c in cases:
        gadget = x3c_to_stv(x3c)
        assert winner(gadget.instance, VotingRule.stv()) == gadget.reported_winner


def test_x3c_cover_witness_elects_target():
    cases = [
        X3CInstance(3, [(1, 2, 3), (1, 2, 3)]),
        X3CInstance(6, [(1, 2, 3), (4, 5, 6)]),
        X3CInstance(6, [(1, 2, 3), (4, 5, 6), (1, 2, 4)]),
    ]
    for x3c in cases:
        gadget = x3c_to_stv(x3c)
        cover = find_exact_cover(x3c)
        assert cover is not None
        ballot = cover_witness_ballot(gadget, cover)
        assert ballot.prefers(gadget.reported_winner, gadget.target)
        replayed = gadget.instance.with_ballots_replaced({gadget.suspect: ballot})
        assert winner(replayed, VotingRule.stv()) == gadget.target


def test_x3c_gadget_yes_without_cover():
    # a cover implies YES, but a YES does not imply a cover
    inst = X3CInstance(6, [(1, 2, 3), (3, 4, 5), (1, 5, 6)])
    assert find_exact_cover(inst) is None
    gadget = x3c_to_stv(inst)
    ids = gadget.instance.candidate_id
    head = [ids(name) for name in ("a1", "a2", "a3", "d0", "x", "y")]
    ballot = Preference(head + [c for c in range(gadget.instance.m) if c not in head])
    replayed = gadget.instance.with_ballots_replaced({gadget.suspect: ballot})
    assert winner(replayed, VotingRule.stv()) == gadget.target


def test_random_profile_deterministic():
    a = random_profile(3, 5, seed=7)
    b = random_profile(3, 5, seed=7)
    assert a.ballots == b.ballots
    c = random_profile(3, 5, seed=8)
    assert a.ballots != c.ballots or a is not c


def test_random_profile_single_candidate():
    inst = random_profile(1, 4, seed=1)
    assert all(b.ranking == (0,) for b in inst.ballots)


def test_random_profile_top_rank_frequencies():
    m, n = 4, 10_000
    inst = random_profile(m, n, seed=123)
    tops = [0] * m
    for b in inst.ballots:
        tops[b.ranking[0]] += 1
    p = 1 / m
    sigma = math.sqrt(n * p * (1 - p))
    for c in range(m):
        assert abs(tops[c] - n * p) <= 5 * sigma
