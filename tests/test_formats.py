import pytest

from rncca.engine import BiPeriodic, Cyclic, Finite, canonicalize
from rncca.formats import (
    ConfigParseError,
    format_configuration,
    parse_configuration,
    parse_configuration_text,
)

ROUND_TRIPS = [
    Finite(0, (1, 2), 0),
    Finite(-3, (), 0),
    Finite(2, ((1, 0), (0, 1)), (0, 0)),
    Cyclic((4, 11, 0, 15)),
    Cyclic(((1, 0), (0, 0))),
    BiPeriodic((0, 15), (5, 10), 0, (0, 15)),
    BiPeriodic((0, 15), (), -4, (3, 12)),
    BiPeriodic(((0, 0),), ((1, 1),), 7, ((0, 0),)),
]


@pytest.mark.parametrize("config", ROUND_TRIPS)
def test_round_trip(config):
    line = format_configuration(config)
    assert parse_configuration(line) == config


def test_golden_lines():
    assert (
        format_configuration(BiPeriodic((0, 15), (5, 10), 0, (0, 15)))
        == "biperiodic left=0,15 center@0=5,10 right=0,15"
    )
    assert format_configuration(Cyclic((4, 11, 0, 15))) == "cyclic: 4,11,0,15"
    assert format_configuration(Finite(0, (1, 1), 0)) == "finite q#=0 @0: 1,1"
    assert format_configuration(Finite(0, (), 0)) == "finite q#=0 @0:"
    assert (
        format_configuration(Finite(0, ((1, 1),), (0, 0)))
        == "finite q#=(0,0) @0: (1,1)"
    )


def test_parse_file_skips_comments_and_blanks():
    text = "# a configuration\n\nbiperiodic left=0,15 center@0=5,10 right=0,15\n"
    assert parse_configuration_text(text) == BiPeriodic((0, 15), (5, 10), 0, (0, 15))


def test_parse_file_requires_exactly_one_record():
    with pytest.raises(ConfigParseError):
        parse_configuration_text("cyclic: 1\ncyclic: 2\n")
    with pytest.raises(ConfigParseError):
        parse_configuration_text("# nothing here\n")


def test_parse_errors_cite_line():
    with pytest.raises(ConfigParseError) as err:
        parse_configuration_text("\n\nwhat: 1,2\n")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "bad",
    [
        "finite q#=0 @x: 1",
        "finite @0: 1",
        "cyclic:",
        "cyclic: ",
        "biperiodic left=1 center@0=2",
        "biperiodic left= center@0=2 right=1",
        "finite q#=(0 @0: 1",
        "cyclic: (1,2,3)",
        "cyclic: O",
    ],
)
def test_malformed_records(bad):
    with pytest.raises(ConfigParseError):
        parse_configuration(bad)


@pytest.mark.parametrize(
    "bad, error",
    [
        ("", "empty record"),
        ("finite q#=0 @0 1", "expected '@<offset>:' after the quiescent cell"),
        ("biperiodic left=1 center@0 right=1", "expected 'center@<offset>=...'"),
        ("biperiodic left=1 center@x=2 right=1", "bad center offset 'x'"),
    ],
)
def test_malformed_records_name_the_fault(bad, error):
    with pytest.raises(ConfigParseError) as err:
        parse_configuration(bad, 4)
    assert str(err.value) == f"line 4: {error}"


def test_pair_past_int_digit_limit_raises_its_own_error():
    # int() refuses decimals this long; the literal is named as bad, not
    # left to escape as a plain ValueError.
    with pytest.raises(ConfigParseError, match=r"^line 1: bad pair literal '\(3,9999"):
        parse_configuration(f"cyclic: (1,2),(3,{'9' * 5000})")


@pytest.mark.parametrize("function", [canonicalize, format_configuration])
def test_non_configurations_are_type_errors(function):
    with pytest.raises(TypeError) as err:
        function("x")
    assert str(err.value) == "not a configuration: 'x'"
