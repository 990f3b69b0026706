import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rncca.engine import BiPeriodic, Cyclic, Finite, canonicalize
from rncca.rpca import (
    QUIESCENT_PAIR,
    RuleParseError,
    check_local_injective,
    example_rpca,
    format_rpca,
    invert_rpca,
    make_rpca,
    parse_rpca,
    step_rpca,
)
from reference_stepper import LocalRule, reference_step

XOR = example_rpca("xor")


def all_pair_words(p, length):
    pairs = [(c, r) for c in range(p.c_size) for r in range(p.r_size)]
    return itertools.product(pairs, repeat=length)


def test_identity_table_is_injective():
    assert check_local_injective(example_rpca("identity"))


def test_xor_table_is_injective_by_enumeration():
    outputs = [XOR.table[c][r] for c in range(2) for r in range(2)]
    assert sorted(outputs) == sorted((c, r) for c in range(2) for r in range(2))
    assert check_local_injective(XOR)


def test_constant_table_is_not_injective():
    table = {(c, r): (0, 0) for c in range(2) for r in range(2)}
    assert not check_local_injective(make_rpca(2, 2, table))


def test_make_rpca_rejects_moving_quiescent_pair():
    table = {(c, r): ((c + 1) % 2, r) for c in range(2) for r in range(2)}
    with pytest.raises(ValueError):
        make_rpca(2, 2, table)


def test_make_rpca_rejects_partial_table():
    with pytest.raises(ValueError):
        make_rpca(2, 2, {(0, 0): (0, 0)})


def test_identity_step_shifts_right_parts():
    p = example_rpca("identity")
    cfg = Finite(0, [(1, 1)], QUIESCENT_PAIR)
    out = step_rpca(p, cfg)
    # center part stays, right part moves to the right neighbor
    assert out == Finite(0, ((1, 0), (0, 1)), QUIESCENT_PAIR)


def test_xor_step_worked_example():
    cfg = Finite(0, [(1, 1)], QUIESCENT_PAIR)
    out = step_rpca(XOR, cfg)
    assert out == Finite(0, ((1, 0), (1, 1)), QUIESCENT_PAIR)


def test_quiescent_stability():
    out = step_rpca(XOR, Finite(0, [], QUIESCENT_PAIR))
    assert out == Finite(0, (), QUIESCENT_PAIR)


def test_step_rejects_bad_cells():
    with pytest.raises(ValueError):
        step_rpca(XOR, Finite(0, [(2, 0)], QUIESCENT_PAIR))


@pytest.mark.parametrize("step", [lambda c: step_rpca(XOR, c), invert_rpca(XOR).step_back])
def test_steps_refuse_non_integer_parts_and_accept_integral_ones(step):
    for cell in [(0.5, 0), (0, 1.5), (2, 0), (0, -1), (0, 0, 0), [1, 0]]:
        for config in (Finite(0, [cell], QUIESCENT_PAIR), Cyclic([(0, 0), cell])):
            with pytest.raises(ValueError) as exc:
                step(config)
            assert str(exc.value) == f"cell {cell!r} is not a pair in 2x2"
    expected = step(Finite(0, [(1, 0)], QUIESCENT_PAIR))
    for cell in [(1.0, 0), (True, 0), (np.int64(1), np.int8(0))]:
        assert step(Finite(0, [cell], QUIESCENT_PAIR)) == expected


@pytest.mark.parametrize("step", [lambda c: step_rpca(XOR, c), invert_rpca(XOR).step_back])
@pytest.mark.parametrize("cell", [([0], 0), (np.array(1), 0), (0, {0: 0})])
def test_steps_refuse_unhashable_parts(step, cell):
    starts = (
        Finite(0, [cell], QUIESCENT_PAIR),
        Cyclic([(0, 0), cell]),
        BiPeriodic([(0, 0)], [cell], 0, [(1, 0)]),
    )
    for config in starts:
        with pytest.raises(ValueError) as exc:
            step(config)
        assert str(exc.value) == f"cell {cell!r} is not a pair in 2x2"


def test_invert_round_trips_all_small_supports():
    back = invert_rpca(XOR)
    for word in all_pair_words(XOR, 4):
        cfg = canonicalize(Finite(0, word, QUIESCENT_PAIR))
        assert back.step_back(step_rpca(XOR, cfg)) == cfg


def test_invert_identity_shifts_left():
    back = invert_rpca(example_rpca("identity"))
    cfg = Finite(0, [(1, 0), (0, 1)], QUIESCENT_PAIR)
    assert back.step_back(cfg) == Finite(0, ((1, 1),), QUIESCENT_PAIR)


def test_invert_rejects_non_injective():
    table = {(c, r): (0, 0) for c in range(2) for r in range(2)}
    with pytest.raises(ValueError):
        invert_rpca(make_rpca(2, 2, table))


def test_invert_round_trips_on_rings():
    p = example_rpca("random", c_size=3, r_size=2, seed=8)
    back = invert_rpca(p)
    for word in all_pair_words(p, 3):
        cfg = Cyclic(word)
        assert back.step_back(step_rpca(p, cfg)) == cfg


def test_example_identity_sizes():
    p = example_rpca("identity", c_size=3, r_size=2)
    assert sum(p.table[c][r] == (c, r) for c in range(3) for r in range(2)) == 6


def test_example_swap():
    p = example_rpca("swap", c_size=3, r_size=3)
    assert check_local_injective(p)
    assert p.table[1][2] == (2, 1)
    with pytest.raises(ValueError):
        example_rpca("swap", c_size=2, r_size=3)


def test_example_random_is_reversible_permutation():
    p = example_rpca("random", c_size=4, r_size=6, seed=1)
    assert p.state_count == 24
    assert p.table[0][0] == (0, 0)
    outputs = sorted(p.table[c][r] for c in range(4) for r in range(6))
    assert outputs == sorted((c, r) for c in range(4) for r in range(6))
    assert check_local_injective(p)


def test_example_random_is_seed_deterministic():
    a = example_rpca("random", c_size=3, r_size=2, seed=9)
    b = example_rpca("random", c_size=3, r_size=2, seed=9)
    c = example_rpca("random", c_size=3, r_size=2, seed=10)
    assert a.table == b.table
    assert a.table != c.table


def test_unknown_example_name():
    with pytest.raises(ValueError):
        example_rpca("nope")


def test_global_injectivity_on_small_rings():
    # A permutation table gives collision-free stepping on every ring;
    # total check for rings of length <= 5.
    for p in (XOR, example_rpca("swap")):
        for n in range(1, 6):
            images = {}
            for word in all_pair_words(p, n):
                image = step_rpca(p, Cyclic(word)).word
                assert image not in images or images[image] == word
                images[image] = word


def test_non_injective_table_collides_on_rings():
    table = {(c, r): (0, 0) for c in range(2) for r in range(2)}
    p = make_rpca(2, 2, table)
    images = set()
    collided = False
    for word in all_pair_words(p, 2):
        image = step_rpca(p, Cyclic(word)).word
        collided = collided or image in images
        images.add(image)
    assert collided


def test_rule_text_round_trip():
    for p in (XOR, example_rpca("random", c_size=4, r_size=6, seed=1)):
        assert parse_rpca(format_rpca(p)) == p


def test_rule_text_comments_and_blanks():
    text = "# xor rule\n\nrpca C=2 R=2\n0 0 -> 0 0\n0 1 -> 1 1\n1 0 -> 1 0\n1 1 -> 0 1\n"
    assert parse_rpca(text) == XOR


def test_rule_text_malformed_entry_cites_line():
    text = "rpca C=2 R=2\n0 0 -> 0 0\n1 2 ->\n"
    with pytest.raises(RuleParseError) as err:
        parse_rpca(text)
    assert err.value.line == 3


def test_rule_text_duplicate_entry():
    text = "rpca C=1 R=1\n0 0 -> 0 0\n0 0 -> 0 0\n"
    with pytest.raises(RuleParseError) as err:
        parse_rpca(text)
    assert err.value.line == 3


def test_rule_text_missing_header():
    with pytest.raises(RuleParseError):
        parse_rpca("0 0 -> 0 0\n")


def test_rule_text_incomplete_table():
    text = "rpca C=2 R=2\n0 0 -> 0 0\n"
    with pytest.raises(RuleParseError):
        parse_rpca(text)


numbers = st.one_of(
    st.integers(-2, 4).map(str),
    st.integers(-(10**40), 10**40).map(str),
    st.sampled_from(["+1", "-0", "1_0", "_1", "007", "", "x", "1.5", "1e3", "0x2", "٣", "9" * 5000]),
)
headers = st.one_of(
    st.builds("rpca C={} R={}".format, numbers, numbers),
    st.sampled_from(["rpca", "rpca C=2", "rpca C=2 R=2 x", "RPCA C=2 R=2", "rpca R=2 C=2", "rpca C= R="]),
)
entries = st.builds(
    "{} {} {} {} {}".format, numbers, numbers, st.sampled_from(["->", "=>", "-", "->->"]), numbers, numbers
)
# Small headers and entries, so that some texts are whole tables.
small_entries = st.builds(
    "{} {} -> {} {}".format, *(st.integers(0, 2) for _ in range(4))
)
rule_lines = st.one_of(
    headers,
    entries,
    small_entries,
    st.sampled_from(["", "   ", "# comment", "0 0 -> 0 0 # comment", "#rpca C=1 R=1", "->", "0 0 ->"]),
    st.text(max_size=20),
)


@st.composite
def rule_texts(draw):
    """A header (often a small valid one) and further lines; or a whole
    table with one line replaced, inserted or left out."""
    if draw(st.booleans()):
        head = draw(st.one_of(st.builds("rpca C={} R={}".format, st.integers(1, 2), st.integers(1, 2)), rule_lines))
        return "\n".join([head, *draw(st.lists(rule_lines, max_size=6))])
    p = example_rpca("random", draw(st.integers(1, 3)), draw(st.integers(1, 3)), seed=draw(st.integers(0, 9)))
    lines = format_rpca(p).splitlines()
    i = draw(st.integers(0, len(lines)))
    edit = draw(st.sampled_from(["replace", "insert", "drop", "keep"]))
    if edit == "replace" and i < len(lines):
        lines[i] = draw(rule_lines)
    elif edit == "insert":
        lines.insert(i, draw(rule_lines))
    elif edit == "drop":
        del lines[i:i + 1]
    return "\n".join(lines)


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(rule_texts(), st.text(max_size=60)))
def test_parse_rpca_raises_only_rule_parse_errors(text):
    # Arbitrary text, huge or malformed integers and bad headers: only
    # RuleParseError, naming a line of the text, may leave the parser.
    try:
        p = parse_rpca(text)
    except RuleParseError as exc:
        assert 1 <= exc.line <= max(1, len(text.splitlines()))
        return
    assert parse_rpca(format_rpca(p)) == p


@st.composite
def pair_tables(draw, injective):
    """A random table up to 3x4 that fixes (0, 0): a seeded permutation,
    or any map."""
    c_size, r_size = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    if injective:
        return example_rpca("random", c_size, r_size, seed=draw(st.integers(0, 10**6)))
    pair = st.tuples(st.integers(0, c_size - 1), st.integers(0, r_size - 1))
    rows = [[draw(pair) for _ in range(r_size)] for _ in range(c_size)]
    rows[0][0] = QUIESCENT_PAIR
    return make_rpca(c_size, r_size, rows)


@st.composite
def pair_configurations(draw, p):
    """Any shape of pair configuration, often not canonical."""
    pair = st.tuples(st.integers(0, p.c_size - 1), st.integers(0, p.r_size - 1))
    word = lambda lo, hi: draw(st.lists(pair, min_size=lo, max_size=hi))
    shape = draw(st.sampled_from(["finite", "cyclic", "biperiodic"]))
    if shape == "finite":
        return Finite(draw(st.integers(-4, 4)), word(0, 6), QUIESCENT_PAIR)
    if shape == "cyclic":
        return Cyclic(word(1, 6))
    return BiPeriodic(word(1, 3), word(0, 5), draw(st.integers(-4, 4)), word(1, 3))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pair_steps_equal_the_per_cell_reference(data):
    # Stepping goes through integer codes; the reference steps the pairs
    # themselves, cell by cell.
    p = data.draw(pair_tables(injective=False))
    cfg = data.draw(pair_configurations(p))
    forward = LocalRule((0, -1), lambda here, left: p.table[here[0]][left[1]])
    assert step_rpca(p, cfg) == reference_step(forward, cfg)
    p = data.draw(pair_tables(injective=True))
    cfg = data.draw(pair_configurations(p))
    inverse = {p.table[c][r]: (c, r) for c in range(p.c_size) for r in range(p.r_size)}
    backward = LocalRule((0, 1), lambda here, right: (inverse[here][0], inverse[right][1]))
    assert invert_rpca(p).step_back(cfg) == reference_step(backward, cfg)
