"""The configuration and ``.ncca`` parsers against the per-character and
per-line versions they replaced.

``reference_*`` below are the earlier ``formats`` tokenizer and
formatter, the earlier ``cli._parse_ncca`` and the mapping checks of the
earlier ``engine.make_rule``, kept verbatim apart from their names and the ``.ncca`` error class,
``rpca.RuleParseError`` in both.  On
any record or file the new parsers must give an equal result, or raise
the same exception type with the same message and line.  Only the typed
parse errors may escape the configuration parser.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rncca import cli
from rncca.convert import NEIGHBORHOOD
from rncca.engine import BiPeriodic, Cyclic, Finite
from rncca.formats import ConfigParseError, format_configuration, parse_configuration_text
from rncca.rpca import RuleParseError


def reference_cell_text(cell):
    if isinstance(cell, tuple):
        return f"({cell[0]},{cell[1]})"
    return str(cell)


def reference_cells_text(cells):
    return ",".join(reference_cell_text(cell) for cell in cells)


def reference_format_configuration(config):
    if isinstance(config, Finite):
        head = f"finite q#={reference_cell_text(config.quiescent)} @{config.offset}:"
        return f"{head} {reference_cells_text(config.word)}" if config.word else head
    if isinstance(config, Cyclic):
        return f"cyclic: {reference_cells_text(config.word)}"
    if isinstance(config, BiPeriodic):
        return (
            f"biperiodic left={reference_cells_text(config.left)}"
            f" center@{config.center_offset}={reference_cells_text(config.center)}"
            f" right={reference_cells_text(config.right)}"
        )
    raise TypeError(f"not a configuration: {config!r}")


def reference_parse_cell(text, line):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1].split(",")
        if len(inner) != 2:
            raise ConfigParseError(f"bad pair literal {text!r}", line)
        try:
            return (int(inner[0]), int(inner[1]))
        except ValueError:
            raise ConfigParseError(f"bad pair literal {text!r}", line) from None
    try:
        return int(text)
    except ValueError:
        raise ConfigParseError(f"bad cell literal {text!r}", line) from None


def reference_parse_cells(text, line):
    if not text:
        return ()
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ConfigParseError("unbalanced parentheses in cell list", line)
        current.append(ch)
    if depth != 0:
        raise ConfigParseError("unbalanced parentheses in cell list", line)
    parts.append("".join(current))
    return tuple(reference_parse_cell(part, line) for part in parts)


def reference_parse_configuration(text, line=1):
    tokens = text.split()
    if not tokens:
        raise ConfigParseError("empty record", line)
    kind = tokens[0]
    if kind == "finite":
        if len(tokens) not in (3, 4) or not tokens[1].startswith("q#="):
            raise ConfigParseError("expected 'finite q#=<cell> @<offset>: cells'", line)
        quiescent = reference_parse_cell(tokens[1][3:], line)
        at = tokens[2]
        if not at.startswith("@") or not at.endswith(":"):
            raise ConfigParseError("expected '@<offset>:' after the quiescent cell", line)
        try:
            offset = int(at[1:-1])
        except ValueError:
            raise ConfigParseError(f"bad offset {at!r}", line) from None
        cells = reference_parse_cells(tokens[3], line) if len(tokens) == 4 else ()
        return Finite(offset, cells, quiescent)
    if kind == "cyclic:":
        if len(tokens) != 2:
            raise ConfigParseError("expected 'cyclic: cells'", line)
        cells = reference_parse_cells(tokens[1], line)
        if not cells:
            raise ConfigParseError("cyclic word must be non-empty", line)
        return Cyclic(cells)
    if kind == "biperiodic":
        if (
            len(tokens) != 4
            or not tokens[1].startswith("left=")
            or not tokens[2].startswith("center@")
            or not tokens[3].startswith("right=")
        ):
            raise ConfigParseError(
                "expected 'biperiodic left=... center@<offset>=... right=...'", line
            )
        left = reference_parse_cells(tokens[1][len("left="):], line)
        center_spec = tokens[2][len("center@"):]
        if "=" not in center_spec:
            raise ConfigParseError("expected 'center@<offset>=...'", line)
        offset_text, _, center_text = center_spec.partition("=")
        try:
            offset = int(offset_text)
        except ValueError:
            raise ConfigParseError(f"bad center offset {offset_text!r}", line) from None
        center = reference_parse_cells(center_text, line)
        right = reference_parse_cells(tokens[3][len("right="):], line)
        if not left or not right:
            raise ConfigParseError("background words must be non-empty", line)
        return BiPeriodic(left, center, offset, right)
    raise ConfigParseError(f"unknown record kind {kind!r}", line)


def reference_parse_configuration_text(text):
    record = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if record is not None:
            raise ConfigParseError("expected exactly one configuration record", line_no)
        record = reference_parse_configuration(line, line_no)
    if record is None:
        raise ConfigParseError("no configuration record found", 1)
    return record


def reference_make_table(state_count, local_map):
    """The mapping checks of the earlier ``make_rule`` (neighborhood
    -2..1, quiescent 0), then the table as a tuple over all neighborhoods."""
    s, m = int(state_count), len(NEIGHBORHOOD)
    if s < 1:
        raise ValueError("state_count must be at least 1")
    table = {}
    for key, value in dict(local_map).items():
        if not isinstance(key, tuple):
            raise ValueError(f"local map keys must be {m}-tuples, got {key!r}")
        table[key] = int(value)
    if len(table) != s**m:
        raise ValueError(f"local map must cover all {s ** m} neighborhoods, got {len(table)}")
    for key, value in table.items():
        if len(key) != m or any(not (0 <= x < s) for x in key):
            raise ValueError(f"neighborhood key {key} out of range")
        if not 0 <= value < s:
            raise ValueError(f"output {value} for neighborhood {key} out of range")
    if table[(0,) * m] != 0:
        raise ValueError("quiescent state must map to itself on the all-quiescent neighborhood")
    return tuple(table[hood] for hood in itertools.product(range(s), repeat=m))


def reference_parse_ncca(text):
    header = None
    table = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if header is None:
            if tokens[0] != "ncca":
                raise RuleParseError("expected an 'ncca ...' header", line_no)
            fields = dict(token.split("=", 1) for token in tokens[1:] if "=" in token)
            try:
                header = int(fields["states"])
            except (KeyError, ValueError):
                raise RuleParseError("header must carry states=<int>", line_no) from None
            continue
        if tokens[0] in ("bc", "br"):
            continue
        if tokens[0] == "t":
            if len(tokens) != 7 or tokens[5] != "->":
                raise RuleParseError("expected 't a b c d -> q'", line_no)
            try:
                key = tuple(int(v) for v in tokens[1:5])
                table[key] = int(tokens[6])
            except ValueError:
                raise RuleParseError("transition fields must be integers", line_no) from None
            continue
        raise RuleParseError(f"unknown line kind {tokens[0]!r}", line_no)
    if header is None:
        raise RuleParseError("missing 'ncca ...' header", 1)
    if not table:
        raise RuleParseError(
            "no transition table; re-run convert with --dump-table to make the file runnable", 1
        )
    return reference_make_table(header, table)


def outcome(fn, *args):
    """The result, or the exception's type, message and line."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def ncca_table(text):
    """The parsed rule as a tuple over all neighborhoods."""
    rule = cli._parse_ncca(text)
    s, m = rule.state_count, len(rule.neighborhood)
    hoods = np.array(list(itertools.product(range(s), repeat=m)), dtype=np.intp).reshape(-1, m)
    batch = tuple(rule.local_batch(list(hoods.T)).tolist())
    assert batch == tuple(rule.local(*hood) for hood in hoods.tolist())
    return batch


# ------------------------------------------------------ configuration records

integers = st.one_of(
    st.integers(-3, 120).map(str),
    st.sampled_from(["+1", "-0", "1_0", "_1", "1__0", "007", "", "x", "1.5", "٣", "99999999999999999999"]),
)
pairs = st.tuples(integers, integers).map(lambda p: f"({p[0]},{p[1]})")
junk = st.sampled_from(["(", ")", "((1,2))", "(1,2,3)", "()", "(1)", "1(2,3)", "(1,2)3", ")(", "(1,(2),3)", ""])
cells = st.one_of(integers, pairs, junk)
cell_lists = st.lists(cells, max_size=6).map(",".join)
records = st.one_of(
    st.builds(
        lambda q, offset, word: f"finite q#={q} @{offset}:" + (f" {word}" if word else ""),
        st.one_of(cells, st.just("(0,0)")),
        st.one_of(st.integers(-5, 5).map(str), integers),
        cell_lists,
    ),
    cell_lists.map(lambda word: f"cyclic: {word}"),
    st.builds(
        lambda left, offset, center, right: f"biperiodic left={left} center@{offset}={center} right={right}",
        cell_lists,
        st.one_of(st.integers(-5, 5).map(str), integers),
        cell_lists,
        cell_lists,
    ),
)
files = st.lists(
    st.one_of(records, st.sampled_from(["", "   ", "# comment", "cyclic:", "finite", "what: 1"])),
    min_size=0,
    max_size=3,
).map("\n".join)


@settings(max_examples=400, deadline=None)
@given(text=files)
def test_configuration_records_parse_as_before(text):
    got = outcome(parse_configuration_text, text)
    assert got == outcome(reference_parse_configuration_text, text)
    assert got[0] in ("ok", ConfigParseError)


@settings(max_examples=300, deadline=None)
@given(text=st.text(max_size=40))
def test_arbitrary_text_raises_only_config_parse_errors(text):
    for record in (text, f"cyclic: {text}", f"finite q#=0 @0: {text}", f"biperiodic left=0 center@0={text} right=1"):
        got = outcome(parse_configuration_text, record)
        assert got == outcome(reference_parse_configuration_text, record)
        assert got[0] in ("ok", ConfigParseError)


small = st.integers(0, 120)
configs = st.one_of(
    st.builds(Finite, st.integers(-9, 9), st.lists(small, max_size=8), st.just(0)),
    st.builds(Finite, st.integers(-9, 9), st.lists(st.tuples(small, small), max_size=5), st.just((0, 0))),
    st.builds(Cyclic, st.lists(st.one_of(small, st.tuples(small, small)), min_size=1, max_size=8)),
    st.builds(
        BiPeriodic,
        st.lists(small, min_size=1, max_size=3),
        st.lists(small, max_size=6),
        st.integers(-9, 9),
        st.lists(small, min_size=1, max_size=3),
    ),
)


@settings(max_examples=400, deadline=None)
@given(config=configs)
def test_format_configuration_as_before_and_round_trips(config):
    line = format_configuration(config)
    assert line == reference_format_configuration(config)
    assert parse_configuration_text(line) == config


# ------------------------------------------------------------- .ncca files


def dump_lines(states, table):
    return [f"t {a} {b} {c} {d} -> {q}" for (a, b, c, d), q in table.items()]


@st.composite
def ncca_files(draw):
    states = draw(st.integers(1, 3))
    hoods = list(itertools.product(range(states), repeat=4))
    table = {hood: draw(st.integers(0, states - 1)) for hood in hoods}
    table[(0, 0, 0, 0)] = draw(st.sampled_from([0, 0, 0, 1]))
    lines = dump_lines(states, table)
    header = draw(
        st.sampled_from(
            [f"ncca C=1 R=1 states={states} neighborhood=-2,-1,0,1 phi=canonical source=0123456789",
             f"ncca states={states}", f"ncca states=+{states}", "ncca states=x", "ncca C=1", "nca states=2",
             f"ncca states={states} # header", f"  ncca   states={states}  "]
        )
    )
    edits = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(lines)),
                st.sampled_from(
                    ["", "# comment", "bc 0 15", "br 1 2", "t 0 0 0 0 -> 0", "t 0 0 0 0 ->", "t  0 0 0 0 -> 0",
                     "t 0 0 0 0 -> 0 # note", "t +0 0 0 0 -> 0", "t 0 0 0 0 -> 007", "t 0 0 0 00 -> 0",
                     "t 1 0 0 0 -> 9", "t 9 0 0 0 -> 0", "t -1 0 0 0 -> 0", "t 0 0 0 0 -> -1", "t 0 0 0 x -> 0",
                     "t 0 0 0 0 -> 123", "t 99999999999999999999 0 0 0 -> 0", "t 0 0 0 0 -> 99999999999999999999",
                     "q 1 2", "t 0 0 0 0 => 0", "t\t1 0 0 0 -> 0", "\tt 0 1 0 0 -> 1", "drop", "duplicate",
                     f"ncca states={states}", "t 0 0 0 0 -> 0\r"]
                ),
            ),
            max_size=4,
        )
    )
    for at, edit in edits:
        if edit == "drop":
            if lines:
                lines.pop(at % len(lines))
        elif edit == "duplicate":
            if lines:
                lines.insert(at, lines[at % len(lines)])
        else:
            lines.insert(at, edit)
    lines.insert(draw(st.integers(0, min(2, len(lines)))), header)
    if draw(st.booleans()):
        lines.insert(0, "# derived rule")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=300, deadline=None)
@given(text=ncca_files())
def test_ncca_files_load_as_before(text):
    assert outcome(ncca_table, text) == outcome(reference_parse_ncca, text)


def test_ncca_edge_files_load_as_before():
    dump = "\n".join(dump_lines(2, {hood: 0 for hood in itertools.product(range(2), repeat=4)}))
    for text in (
        "",
        "\n\n# only comments\n",
        "ncca states=2\n",
        "t 0 0 0 0 -> 0\nncca states=2\n",
        f"{dump}\nncca states=2\n",
        f"# c\nncca states=2\n{dump}",
        f"ncca states=2\r\n{dump}",
        f"ncca states=2 {dump}",
        f"ncca states=0\n{dump}",
        f"ncca states=10000000000000000000\n{dump}",
        f"ncca states=2\n{dump}\nt 1 1 1 1 -> 1\nt 1 1 1 1 -> 0",
        "ncca states=2\nt 0 0 0 0 -> 0\nt 0 0 0 0 -> 1",
    ):
        assert outcome(ncca_table, text) == outcome(reference_parse_ncca, text), text


def test_ncca_parse_errors_are_rule_parse_errors():
    # One error class for both rule formats, naming the line.
    with pytest.raises(RuleParseError) as err:
        cli._parse_ncca("ncca states=16\nx 1\n")
    assert (err.value.line, str(err.value)) == (2, "line 2: unknown line kind 'x'")


def test_dumped_ncca_loads_in_bulk(tmp_path):
    path = tmp_path / "r.rpca"
    path.write_text("rpca C=2 R=2\n0 0 -> 0 0\n0 1 -> 1 1\n1 0 -> 0 1\n1 1 -> 1 0\n")
    out = tmp_path / "r.ncca"
    assert cli.main(["convert", str(path), "--dump-table", "--dump-balanced-pairs", "-o", str(out)]) == 0
    text = out.read_text()
    lines = text.splitlines()
    dumped, _ = cli._dump_lines(lines)
    assert dumped.tolist() == [line.startswith("t ") for line in lines]
    assert ncca_table(text) == reference_parse_ncca(text)
