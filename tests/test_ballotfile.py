import pytest
from hypothesis import given, settings, strategies as st

from manipdetect import ballotfile
from manipdetect.ballotfile import Report, parse_election, render_election
from manipdetect.core import ElectionInstance
from manipdetect.errors import ParseError

from samples import e1


def test_parse_e1_with_counts():
    text = "candidates: a,b,c\na>c>b\n2x b>a>c\n"
    inst = parse_election(text)
    assert inst == e1()


def test_parse_comments_and_blank_lines():
    text = "# header\ncandidates: a,b  # inline\n\na>b  # ballot\n"
    inst = parse_election(text)
    assert inst.names == ("a", "b")
    assert inst.n == 1


def test_parse_single_candidate():
    inst = parse_election("candidates: a\na\n")
    assert inst.m == 1 and inst.n == 1


def test_parse_tiebreak_line():
    inst = parse_election("candidates: a,b\ntiebreak: b,a\na>b\n")
    assert inst.tiebreak.ranking == (1, 0)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_election("candidates: a,b\na>a\n")
    assert err.value.line == 2

    with pytest.raises(ParseError) as err:
        parse_election("candidates: a,b,c\n\n\na>b\n")
    assert err.value.line == 4  # missing candidate c

    with pytest.raises(ParseError) as err:
        parse_election("candidates: a,b\nb>d\n")
    assert err.value.line == 2

    with pytest.raises(ParseError):
        parse_election("candidates: a,b\n")  # no ballots

    with pytest.raises(ParseError) as err:
        parse_election("a>b\ncandidates: a,b\n")
    assert err.value.line == 1

    with pytest.raises(ParseError) as err:
        parse_election("candidates: a,b\n0x a>b\n")
    assert err.value.line == 2


@pytest.mark.parametrize("digits", [20, 5000])
def test_parse_rejects_huge_counts(digits):
    with pytest.raises(ParseError) as err:
        parse_election("candidates: a,b\n" + "9" * digits + "x a>b\n")
    assert err.value.line == 2


def test_parse_caps_total_ballots(monkeypatch):
    monkeypatch.setattr(ballotfile, "MAX_BALLOTS", 3)
    with pytest.raises(ParseError) as err:
        parse_election("candidates: a,b\n2x a>b\n2x b>a\n")
    assert err.value.line == 3


def test_parse_rejects_bad_tiebreak():
    with pytest.raises(ParseError):
        parse_election("candidates: a,b\ntiebreak: a,a\na>b\n")
    with pytest.raises(ParseError):
        parse_election("candidates: a,b\ntiebreak: a\na>b\n")


names_strategy = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=3),
    min_size=1,
    max_size=4,
    unique=True,
)


@given(
    names_strategy.flatmap(
        lambda names: st.tuples(
            st.just(names),
            st.lists(st.permutations(range(len(names))), min_size=1, max_size=5),
            st.permutations(range(len(names))),
        )
    )
)
@settings(max_examples=80)
def test_parse_render_round_trip(args):
    names, ballots, tb = args
    inst = ElectionInstance(names, ballots, tiebreak=tb)
    assert parse_election(render_election(inst)) == inst


def test_report_round_trip():
    report = Report(
        problem="cpmw",
        rule="borda",
        verdict="YES",
        current_winner="a",
        witness_actual_winner="b",
        witness=[{"voter": 0, "ballot": "a>b>c"}],
        coalition=[0],
        method="scoring-single",
        exhaustive=False,
        budget="ok",
        elapsed_ms=1.25,
    )
    assert Report.from_json(report.to_json()) == report
    assert Report.from_dict(report.to_dict()) == report
