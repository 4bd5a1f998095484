import gc
import json
import warnings
from math import comb

import pytest

from manipdetect import ballotfile, cli, oracle
from manipdetect.core import Preference
from manipdetect.detection import verify_verdict, yes_verdict
from manipdetect.errors import ConfigError
from manipdetect.ballotfile import Report, parse_election
from manipdetect.cli import main, rule_from_string
from manipdetect.rules import VotingRule, winner

E1_TEXT = "candidates: a,b,c\na>c>b\n2x b>a>c\n"


@pytest.fixture()
def e1_file(tmp_path):
    path = tmp_path / "e1.txt"
    path.write_text(E1_TEXT)
    return str(path)


def test_rule_from_string_variants():
    assert rule_from_string("borda", 3).vector.alphas == (2, 1, 0)
    assert rule_from_string("plurality", 3).vector.alphas == (1, 0, 0)
    assert rule_from_string("veto", 3).vector.alphas == (1, 1, 0)
    assert rule_from_string("approval:2", 4).vector.alphas == (1, 1, 0, 0)
    assert rule_from_string("scoring:5,2,0", 3).vector.alphas == (5, 2, 0)
    assert rule_from_string("maximin", 3).kind == "maximin"
    assert rule_from_string("bucklin", 3).kind == "bucklin"
    assert rule_from_string("stv", 3).kind == "stv"


@pytest.mark.parametrize(
    "spec", ["scoring:1/0,0,0", "scoring:1e5,0,0", "scoring:1,,0,0", "approval:abc", "approval:"]
)
def test_rule_from_string_refuses_zero_denominators_and_exponents(spec):
    with pytest.raises(ConfigError):
        rule_from_string(spec, 3)


def test_zero_denominator_score_exit_two_without_internal_error(e1_file, capsys):
    assert main(["winner", e1_file, "--rule", "scoring:1/0,0,0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "internal error" not in err


def test_winner_command(e1_file, capsys):
    assert main(["winner", e1_file, "--rule", "maximin"]) == 0
    out = capsys.readouterr().out
    assert "winner: b" in out


def test_cpmw_yes_exit_zero(e1_file, capsys):
    code = main(
        ["cpmw", e1_file, "--rule", "borda", "--suspects", "0", "--actual-winner", "b", "--json"]
    )
    assert code == 0
    report = Report.from_dict(json.loads(capsys.readouterr().out))
    assert report.verdict == "YES"
    assert report.witness == [{"voter": 0, "ballot": "a>b>c"}]
    assert report.current_winner == "a"
    assert report.witness_actual_winner == "b"
    assert not report.exhaustive


def test_witness_outside_the_suspects_exit_two(e1_file, monkeypatch, capsys):
    # a witness for voter 0 that replays to b, reported for suspect 1 only
    verdict = yes_verdict({0: Preference((0, 1, 2))}, 1, "planted")
    verdict.current_winner = 0
    rule = rule_from_string("borda", 3)
    assert verify_verdict(parse_election(E1_TEXT), rule, verdict)
    monkeypatch.setattr(cli, "decide_cpmw", lambda *args, **kwargs: verdict)
    args = ["cpmw", e1_file, "--rule", "borda", "--suspects", "1", "--actual-winner", "b"]
    assert main(args) == 2
    assert "replay verification" in capsys.readouterr().err


def test_verify_verdict_checks_bound_and_target():
    verdict = yes_verdict({0: Preference((0, 1, 2))}, 1, "planted")
    inst, rule = parse_election(E1_TEXT), rule_from_string("borda", 3)
    assert verify_verdict(inst, rule, verdict, bound=1, actual_winner=1)
    assert not verify_verdict(inst, rule, verdict, bound=0)
    assert not verify_verdict(inst, rule, verdict, actual_winner=2)


@pytest.mark.parametrize(
    "decider, args, code",
    [
        ("decide_cpmsw", ["cpmsw", "--actual-winner", "b", "-k", "1"], 0),
        ("decide_cpmsw", ["cpmsw", "--actual-winner", "b", "-k", "0"], 2),
        ("decide_cpms", ["cpms", "-k", "0"], 2),
        ("decide_cpmw", ["cpmw", "--suspects", "0", "--actual-winner", "c"], 2),
        ("oracle_cpmw", ["oracle", "--suspects", "0", "--actual-winner", "c"], 2),
    ],
    ids=["cpmsw-within-bound", "cpmsw-over-bound", "cpms-over-bound", "cpmw-other-target",
         "oracle-other-target"],
)
def test_witness_beyond_the_bound_or_for_another_target_exit_two(
    e1_file, monkeypatch, capsys, decider, args, code
):
    # a replay-valid one-voter witness electing b, whatever was asked
    verdict = yes_verdict({0: Preference((0, 1, 2))}, 1, "planted")
    verdict.current_winner = 0
    monkeypatch.setattr(cli, decider, lambda *args, **kwargs: verdict)
    assert main([args[0], e1_file, "--rule", "borda", *args[1:]]) == code
    if code == 2:
        assert "replay verification" in capsys.readouterr().err


def test_cpmw_no_exit_one(tmp_path, capsys):
    path = tmp_path / "e2.txt"
    path.write_text("candidates: a,b,c\na>b>c\na>c>b\nb>a>c\n")
    code = main(
        ["cpmw", str(path), "--rule", "borda", "--suspects", "0", "--actual-winner", "b"]
    )
    assert code == 1
    assert "verdict: NO" in capsys.readouterr().out


def test_cpmw_stv_routes_to_stv_tree(e1_file, capsys):
    # E1's STV winner is b, so a valid query must target another candidate
    code = main(
        ["cpmw", e1_file, "--rule", "stv", "--suspects", "0", "--actual-winner", "a", "--json"]
    )
    report = Report.from_dict(json.loads(capsys.readouterr().out))
    assert report.exhaustive
    assert report.method == "stv-tree"
    assert code in (0, 1)


def test_cpmsw_and_cpms(e1_file, capsys):
    assert main(["cpmsw", e1_file, "--rule", "borda", "--actual-winner", "b", "-k", "1"]) == 0
    capsys.readouterr()
    assert main(["cpms", e1_file, "--rule", "borda", "-k", "1"]) == 0


def test_oracle_command(e1_file, capsys):
    code = main(
        ["oracle", e1_file, "--rule", "borda", "--suspects", "0", "--actual-winner", "b", "--json"]
    )
    assert code == 0
    report = Report.from_dict(json.loads(capsys.readouterr().out))
    assert report.problem == "oracle"
    assert report.exhaustive


def test_winner_closes_election_file(e1_file, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["winner", e1_file, "--rule", "borda"]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_huge_count_exit_two(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("candidates: a,b\n" + "9" * 20 + "x a>b\n")
    assert main(["winner", str(path), "--rule", "borda"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("candidates: a,b\na>a\n")
    assert main(["winner", str(bad), "--rule", "borda"]) == 2
    assert "error:" in capsys.readouterr().err
    # target equals the current winner
    good = tmp_path / "good.txt"
    good.write_text(E1_TEXT)
    assert (
        main(["cpmw", str(good), "--rule", "maximin", "--suspects", "0", "--actual-winner", "b"])
        == 2
    )


@pytest.mark.parametrize(
    "exc, line", [(MemoryError(), "error: out of memory"), (RuntimeError("boom"), "internal error:")]
)
def test_unexpected_exception_exit_two(e1_file, monkeypatch, capsys, exc, line):
    # 1 is the NO status, so no failure may end with it
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "decide_cpmw", fail)
    args = ["cpmw", e1_file, "--rule", "borda", "--suspects", "0", "--actual-winner", "b"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert line in err
    assert ("Traceback" in err) == isinstance(exc, RuntimeError)


def test_budget_error_exit_two_without_force(tmp_path, capsys):
    # 9 candidates, a maximin coalition of two suspects goes to the oracle:
    # C(9!/2 + 1, 2) replays, far beyond the default budget
    names = ",".join(f"c{i}" for i in range(9))
    ballot = ">".join(f"c{i}" for i in range(9))
    path = tmp_path / "big.txt"
    path.write_text(f"candidates: {names}\n3x {ballot}\n")
    code = main(
        ["cpmw", str(path), "--rule", "maximin", "--suspects", "0,1", "--actual-winner", "c1"]
    )
    assert code == 2
    assert "--force" in capsys.readouterr().err


def test_budget_refusal_json_report(tmp_path, capsys):
    # 7 candidates, three suspects under maximin: one oracle replay per
    # multiset of three of the 7!/2 = 2520 admissible ballots
    names = ",".join(f"c{i}" for i in range(7))
    ballot = ">".join(f"c{i}" for i in range(7))
    path = tmp_path / "big.txt"
    path.write_text(f"candidates: {names}\n4x {ballot}\n")
    code = main(
        ["cpmw", str(path), "--rule", "maximin", "--suspects", "0,1,2", "--actual-winner", "c1",
         "--json"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "--force" in captured.err
    report = Report.from_json(captured.out)
    assert report.budget == "exceeded"
    assert report.cost == comb(2522, 3)
    assert report.limit == 10_000_000
    assert (report.problem, report.rule, report.verdict) == ("cpmw", "maximin", "-")
    assert report.witness is None and report.coalition is None


def test_stv_round_budget_refusal_json_report(tmp_path, capsys, monkeypatch):
    # the STV search counts rounds; a refusal reports one past the budget
    monkeypatch.setattr(oracle, "DEFAULT_REPLAY_BUDGET", 10)
    path = tmp_path / "five.txt"
    path.write_text("candidates: c0,c1,c2,c3,c4\n3x c0>c1>c2>c3>c4\n")
    args = ["cpmw", str(path), "--rule", "stv", "--suspects", "0,1", "--actual-winner", "c1"]
    assert main([*args, "--json"]) == 2
    captured = capsys.readouterr()
    assert "--force" in captured.err
    report = Report.from_json(captured.out)
    assert (report.budget, report.cost, report.limit) == ("exceeded", 11, 10)
    assert (report.problem, report.rule, report.verdict) == ("cpmw", "stv", "-")
    assert main([*args, "--force"]) in (0, 1)


@pytest.mark.parametrize(
    "args",
    [["cpmw", "--suspects", "0", "--actual-winner", "b"], ["cpm", "--suspects", "0"],
     ["cpmsw", "--actual-winner", "b", "-k", "1"], ["cpms", "-k", "1"],
     ["oracle", "--suspects", "0"], ["oracle", "--suspects", "0", "--actual-winner", "b"]],
    ids=["cpmw", "cpm", "cpmsw", "cpms", "oracle", "oracle-winner-given"],
)
def test_every_detection_command_takes_force(e1_file, capsys, args):
    assert main([args[0], e1_file, "--rule", "borda", *args[1:], "--force", "--json"]) in (0, 1)
    assert Report.from_json(capsys.readouterr().out).budget == "forced"


def test_winner_takes_no_force(e1_file, capsys):
    # winner determination has no budget to run past
    with pytest.raises(SystemExit) as exited:
        main(["winner", e1_file, "--rule", "borda", "--force"])
    assert exited.value.code == 2
    assert "--force" in capsys.readouterr().err


def test_gen_random_round_trips(capsys):
    assert main(["gen", "random", "--m", "3", "--n", "4", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    inst = parse_election(out)
    assert inst.m == 3 and inst.n == 4


def test_gen_mcgarvey(capsys):
    code = main(
        ["gen", "mcgarvey", "--candidates", "a,b,c", "--margin", "a,b,2", "--margin", "b,c,2"]
    )
    assert code == 0
    inst = parse_election(capsys.readouterr().out)
    assert inst.n == 4


@pytest.mark.parametrize(
    "candidates, margin, message",
    [
        ("a,b,c", "a,z,2", "unknown candidate"),
        ("a#1,b,c", "a#1,b,2", "invalid candidate name"),
        ("tiebreak:a,b", "tiebreak:a,b,2", "invalid candidate name"),
        ("a,candidates:b", "a,candidates:b,2", "invalid candidate name"),
    ],
)
def test_gen_mcgarvey_refuses_bad_names(candidates, margin, message, capsys):
    code = main(["gen", "mcgarvey", "--candidates", candidates, "--margin", margin])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err and "internal error" not in err


@pytest.mark.parametrize(
    "margins, message",
    [
        (["a,b,2", "b,a,2"], "disagree"),
        (["a,a,2"], "zero diagonal"),
        (["a,b,2", "a,b,4"], "disagree"),
    ],
)
def test_gen_mcgarvey_refuses_contradicting_margins(margins, message, capsys):
    args = [arg for margin in margins for arg in ("--margin", margin)]
    code = main(["gen", "mcgarvey", "--candidates", "a,b", *args])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err and "internal error" not in err


def test_gen_mcgarvey_refuses_more_ballots_than_a_file_may_hold(monkeypatch, capsys):
    # the margin of a over b takes 20 ballots, past a cap lowered to 10
    monkeypatch.setattr(ballotfile, "MAX_BALLOTS", 10)
    code = main(["gen", "mcgarvey", "--candidates", "a,b,c", "--margin", "a,b,20"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err and "internal error" not in err


@pytest.mark.parametrize(
    "args, cap",
    [
        (["gen", "random", "--m", "3", "--n", "11"], (ballotfile, "MAX_BALLOTS", 10)),
        (
            ["gen", "x3c", "--universe", "6", "--witness"]
            + [arg for t in ("1,2,3", "2,3,4", "3,4,5", "4,5,6") for arg in ("--triple", t)],
            (oracle, "DEFAULT_SUBSET_BUDGET", 5),
        ),
        (
            ["gen", "mcgarvey", "--candidates", ",".join(f"c{i}" for i in range(1000))]
            + ["--margin", "c0,c1,20000"],
            (ballotfile, "MAX_BALLOTS", 10_000_000),
        ),
    ],
)
def test_gen_refuses_oversized_elections_before_printing(monkeypatch, capsys, args, cap):
    # 11 ballots past a cap of 10; C(4, 2) = 6 exact-cover candidates past a
    # budget of 5; 20,000 ballots of 1,000 candidates, 2 * 10^7 entries, past 10^7
    monkeypatch.setattr(*cap)
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err and "internal error" not in err


def test_gen_x3c_with_witness(capsys):
    code = main(
        [
            "gen", "x3c", "--universe", "6",
            "--triple", "1,2,3", "--triple", "4,5,6", "--witness",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "# cover witness ballot:" in out
    inst = parse_election(out)
    assert winner(inst, VotingRule.stv()) == inst.candidate_id("x")


def test_end_to_end_witness_replays(e1_file, capsys):
    main(["cpm", e1_file, "--rule", "borda", "--suspects", "0", "--json"])
    report = Report.from_dict(json.loads(capsys.readouterr().out))
    assert report.verdict == "YES"
    inst = parse_election(E1_TEXT)
    replaced = {
        entry["voter"]: [inst.candidate_id(n) for n in entry["ballot"].split(">")]
        for entry in report.witness
    }
    from manipdetect.core import Preference

    replayed = inst.with_ballots_replaced({i: Preference(b) for i, b in replaced.items()})
    rule = rule_from_string(report.rule, inst.m)
    assert winner(replayed, rule) == inst.candidate_id(report.witness_actual_winner)


@pytest.mark.parametrize("suspects, actual, code", [("0", "b", 0), ("1", "c", 1)])
def test_detection_builds_each_full_profile_table_once(e1_file, monkeypatch, capsys,
                                                        suspects, actual, code):
    # The decision builds the full score table once and the report reads the
    # current winner from the verdict; a YES adds the replay check's own build.
    from manipdetect import rules as rules_module

    full = []
    original = rules_module.positional_scores

    def counted(m, profile, vector):
        profile = list(profile)
        full.append(sum(w for _, w in profile) > 1)
        return original(m, profile, vector)

    monkeypatch.setattr(rules_module, "positional_scores", counted)
    assert main(["cpmw", e1_file, "--rule", "borda", "--suspects", suspects,
                 "--actual-winner", actual, "--json"]) == code
    assert Report.from_dict(json.loads(capsys.readouterr().out)).current_winner == "a"
    assert sum(full) == (2 if code == 0 else 1)
