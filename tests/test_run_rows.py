"""``step`` and ``run`` step numpy rows; both must agree with the
per-cell reference stepper on every shape, for table rules, computed
rules with a ``local_batch`` and callables without one."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rncca.convert import convert
from rncca.engine import BiPeriodic, Cyclic, Finite, Rule, canonicalize, make_rule, run, step
from rncca.rpca import example_rpca
from reference_stepper import reference_step


def random_table(states, neighborhood, seed):
    rng = random.Random(seed)
    keys = itertools.product(range(states), repeat=len(neighborhood))
    table = {key: rng.randrange(states) for key in keys}
    table[(0,) * len(neighborhood)] = 0
    return table


def random_table_rule(states, neighborhood, seed):
    return make_rule(states, neighborhood, random_table(states, neighborhood, seed), 0)


def random_callable_rule(states, neighborhood, seed):
    table = random_table(states, neighborhood, seed)
    return make_rule(states, neighborhood, lambda *cells: table[cells], 0)


RULES = [
    convert(example_rpca("xor")),
    convert(example_rpca("random", 2, 3, seed=1)),
    random_table_rule(3, (0, 1), seed=1),
    random_table_rule(3, (-1, 0, 1), seed=2),
    random_table_rule(3, (1, 2), seed=3),
    random_callable_rule(3, (-2, 0), seed=4),
    random_table_rule(3, (-3, -1), seed=5),
    random_table_rule(3, (2,), seed=6),
]


def words(states, min_size, max_size):
    return st.lists(st.integers(0, states - 1), min_size=min_size, max_size=max_size)


@st.composite
def configurations(draw, states):
    """Any shape, often not canonical: quiescent or background cells at
    the center's ends, repeated background periods, backgrounds of
    different periods, and empty centers between distinct backgrounds."""
    shape = draw(st.sampled_from(["finite", "cyclic", "biperiodic"]))
    if shape == "finite":
        return Finite(draw(st.integers(-5, 5)), draw(words(states, 0, 8)), 0)
    if shape == "cyclic":
        return Cyclic(draw(words(states, 1, 8)))
    left = draw(words(states, 1, 3)) * draw(st.integers(1, 2))
    right = draw(words(states, 1, 3)) * draw(st.integers(1, 2))
    return BiPeriodic(left, draw(words(states, 0, 6)), draw(st.integers(-5, 5)), right)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_run_equals_iterated_step(data):
    rule = data.draw(st.sampled_from(RULES))
    config = data.draw(configurations(rule.state_count))
    steps = data.draw(st.integers(0, 12))
    configs = run(rule, config, steps).configs
    assert len(configs) == steps + 1
    assert configs[0] == canonicalize(config)
    assert step(rule, config) == reference_step(rule, config)
    expected = config
    for t in range(1, steps + 1):
        expected = reference_step(rule, expected)
        assert configs[t] == expected
        assert step(rule, configs[t - 1]) == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_run_rejects_out_of_range_states_like_step(data):
    rule = data.draw(st.sampled_from(RULES))
    config = data.draw(configurations(rule.state_count))
    bad = data.draw(st.sampled_from([rule.state_count, rule.state_count + 7, -1]))
    if isinstance(config, BiPeriodic):
        part = data.draw(st.sampled_from(["left", "center", "right"]))
    else:
        part = "word"
    cells = list(getattr(config, part))
    cells.insert(data.draw(st.integers(0, len(cells))), bad)
    config = dataclasses.replace(config, **{part: cells})
    with pytest.raises(ValueError) as from_step:
        step(rule, config)
    with pytest.raises(ValueError) as from_run:
        run(rule, config, data.draw(st.integers(1, 6)))
    assert str(from_run.value) == str(from_step.value)


@pytest.mark.parametrize("rule", RULES[:3])
def test_run_rejects_mismatched_quiescent_background_like_step(rule):
    config = Finite(0, [1, 0, 1], 1)
    with pytest.raises(ValueError) as from_step:
        step(rule, config)
    with pytest.raises(ValueError) as from_run:
        run(rule, config, 3)
    assert str(from_run.value) == str(from_step.value)


@pytest.mark.parametrize(
    "rule, start, expected",
    [
        (
            Rule(3, (0,), lambda a: (a + 1) % 3, 0, lambda cols: (cols[0] + 1) % 3),
            Finite(0, (2,), 0),
            [Finite(0, (0,), 1), Finite(0, (1,), 2), Finite(0, (2,), 0)],
        ),
        (
            Rule(3, (-1, 0), lambda a, b: (a + b + 1) % 3, 0, lambda cols: (cols[0] + cols[1] + 1) % 3),
            Finite(0, (2, 1), 0),
            [Finite(0, (0, 1, 2), 1), Finite(0, (2, 2, 1, 1), 0)],
        ),
    ],
)
def test_finite_rows_step_a_moving_quiescent_state(rule, start, expected):
    # make_rule refuses these rules, Rule does not: each step's image has
    # the quiescent state the rule makes of the all-quiescent
    # neighborhood.  reference_step keeps the start's quiescent state, so
    # the images are written out.
    assert step(rule, start) == expected[0]
    assert run(rule, start, len(expected)).configs == (start, *expected)
