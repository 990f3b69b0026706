"""``run`` steps numpy rows for integer-state rules with a batch
evaluator; it must agree with iterated ``step`` on every shape."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rncca.convert import convert
from rncca.engine import BiPeriodic, Cyclic, Finite, canonicalize, make_rule, run, step
from rncca.rpca import example_rpca


def random_table_rule(states, neighborhood, seed):
    rng = random.Random(seed)
    keys = itertools.product(range(states), repeat=len(neighborhood))
    table = {key: rng.randrange(states) for key in keys}
    table[(0,) * len(neighborhood)] = 0
    return make_rule(states, neighborhood, table, 0)


RULES = [
    convert(example_rpca("xor")),
    convert(example_rpca("random", 2, 3, seed=1)),
    random_table_rule(3, (0, 1), seed=1),
    random_table_rule(3, (-1, 0, 1), seed=2),
    random_table_rule(3, (1, 2), seed=3),
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
    assert rule.local_batch is not None
    config = data.draw(configurations(rule.state_count))
    steps = data.draw(st.integers(0, 6))
    configs = run(rule, config, steps).configs
    assert len(configs) == steps + 1
    assert configs[0] == canonicalize(config)
    expected = config
    for t in range(1, steps + 1):
        expected = step(rule, expected)
        assert configs[t] == expected


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
