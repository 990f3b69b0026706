"""``step`` and ``run`` step numpy rows; both must agree with the
per-cell reference stepper on every shape, for table rules, computed
rules with a ``local_batch`` and callables without one."""

import dataclasses
import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rncca import engine, verify
from rncca.cli import RenderSpec, main, render
from rncca.convert import convert, encode_tau_prime
from rncca.engine import BiPeriodic, Cyclic, Finite, Rule, canonicalize, make_rule, run, step
from rncca.rpca import QUIESCENT_PAIR, example_rpca
from reference_oracles import reference_ledger_is_constant
from reference_stepper import reference_step

GOLDEN = Path(__file__).parent / "golden"


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


@pytest.mark.parametrize("rule", RULES[:2] + RULES[4:6])
@pytest.mark.parametrize(
    "start",
    [
        Finite(-3, [0, 1, 0, 2, 0], 0),
        Cyclic([1, 0, 2, 2, 1]),
        # Background periods 2 and 3, one of them not primitive.
        BiPeriodic([1, 0], [2, 1], 1, [0, 2, 1]),
        BiPeriodic([2, 2], [0, 1, 0], -2, [1, 0, 1, 0]),
        BiPeriodic([1], [], 4, [1, 2, 0]),
    ],
)
def test_configs_are_built_from_the_rows_when_first_read(rule, start):
    trajectory = run(rule, start, 9)
    assert "configs" not in vars(trajectory)
    configs = trajectory.configs
    assert isinstance(configs, tuple) and trajectory.configs is configs
    expected = [canonicalize(start)]
    for _ in range(9):
        expected.append(reference_step(rule, expected[-1]))
    assert configs == tuple(expected)
    # Equal to a trajectory built from its configurations.
    assert trajectory == engine.Trajectory(rule, configs)


@pytest.mark.parametrize(
    "start",
    [
        Finite(-3, [0, 1, 0, 2, 0], 0),
        Cyclic([1, 0, 2, 2, 1]),
        # Stepped at periods 4 and 6, read at the primitive 2 and 3.
        BiPeriodic([1, 0, 1, 0], [2, 1], 1, [0, 2, 1, 0, 2, 1]),
    ],
)
def test_trajectory_built_from_configs_and_rows_reads_like_run(start):
    rule = RULES[1]
    trajectory = run(rule, start, 7)
    rebuilt = engine.Trajectory(rule, trajectory.configs, trajectory.rows)
    assert trajectory.start == start and rebuilt.start == trajectory.configs[0]
    lo = min(x0 for x0, _ in trajectory.rows) - 9
    hi = max(x0 + len(cells) for x0, cells in trajectory.rows) + 9
    for x_min, x_max in [(lo, hi), (lo, lo + 4), (hi - 4, hi)]:
        expected = [engine.window_cells(cfg, x_min, x_max) for cfg in trajectory.configs]
        assert engine.window_matrix(rebuilt, x_min, x_max).tolist() == [list(cells) for cells in expected]
        spec = RenderSpec("text", x_min, x_max, 7)
        assert render(rebuilt, spec) == render(trajectory, spec)
    window = (lo + 9, hi - 9)
    expected = verify.mass_ledger(rule.code, list(trajectory.configs), window)
    assert verify.mass_ledger(rule.code, rebuilt, window) == expected
    assert verify.mass_ledger(rule.code, trajectory, window) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_step_is_the_first_step_of_run(data):
    rule = data.draw(st.sampled_from(RULES))
    config = data.draw(configurations(rule.state_count))
    assert step(rule, config) == run(rule, config, 1).configs[1]


@pytest.mark.parametrize(
    "config, args",
    [
        ("embed-tau.cfg", ["--steps", "12", "--format", "csv"]),
        ("embed-ring.cfg", ["--steps", "9", "--window", "-40", "70"]),
        ("finite.cfg", ["--steps", "10", "--window", "-75", "-41"]),
        ("biperiodic.cfg", ["--steps", "10", "--window", "-60", "90"]),
    ],
)
def test_cli_run_builds_no_configuration(monkeypatch, capsys, config, args):
    def refuse(*_):
        raise AssertionError("a configuration was built")

    monkeypatch.setattr(engine, "_canonical", refuse)
    assert main(["run", str(GOLDEN / "rule.rpca"), str(GOLDEN / config), *args]) == 0
    assert capsys.readouterr().out


def test_ledger_reads_the_rows_and_builds_no_configuration():
    p = example_rpca("random", 2, 3, seed=1)
    rule = convert(p)
    word = [(1, 2), (0, 1), (1, 0)]
    for gaps in ([1, 3], [2, 2]):
        trajectory = engine.run(rule, encode_tau_prime(rule.code, Finite(0, word, QUIESCENT_PAIR), gaps=gaps), 6)
        result = verify.ledger_is_constant(rule.code, trajectory)
        assert "configs" not in vars(trajectory)
        assert result == reference_ledger_is_constant(rule.code, trajectory)


def xor_hoods():
    return np.array(list(itertools.product(range(16), repeat=4)))


@pytest.mark.parametrize("dtype", [np.uint8, np.intp])
def test_local_batch_equals_local_on_every_xor_neighborhood(dtype):
    rule = convert(example_rpca("xor"))
    hoods = xor_hoods()
    images = rule.local_batch(list(hoods.T.astype(dtype)))
    assert images.tolist() == [rule.local(*hood) for hood in hoods.tolist()]


@pytest.mark.parametrize("dtype", [np.uint8, np.intp])
def test_local_batch_broadcasts_grid_columns_of_a_96_state_rule(dtype):
    rule = convert(example_rpca("random", 4, 6, seed=3))
    rng = np.random.default_rng(5)
    # Columns along different axes of one grid, as the sweeps pass them.
    cols = [
        rng.integers(0, 96, (3, 1, 1, 1)),
        rng.integers(0, 96, (1, 7, 1, 1)),
        rng.integers(0, 96, (1, 1, 6, 1)),
        rng.integers(0, 96, (1, 1, 1, 9)),
    ]
    images = rule.local_batch([col.astype(dtype) for col in cols])
    hoods = np.stack(np.broadcast_arrays(*cols), axis=-1)
    assert images.shape == hoods.shape[:-1]
    expected = [rule.local(*hood) for hood in hoods.reshape(-1, 4).tolist()]
    assert images.reshape(-1).tolist() == expected


def slice_step(rule, rows):
    """The row step as one call of the batch evaluator on the rows'
    shifted slices, one per offset."""
    nb = rule.neighborhood
    width = rows.shape[-1] - (max(nb) - min(nb))
    return engine._batch_of(rule)([rows[..., d - min(nb) : d - min(nb) + width] for d in nb])


SOURCE = example_rpca("random", 3, 2, seed=7)
TABLE_RULES = {
    "forward": SOURCE._forward,
    "backward": SOURCE._backward,
    "xor-derived": convert(example_rpca("xor")),
    "derived-2x3": convert(example_rpca("random", 2, 3, seed=1)),
}
neighborhoods = st.one_of(
    st.sampled_from([(-3, 0, 2), (-4, -2, -1), (1, 3), (0,), (2, -1, 0, -3)]),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4, unique=True).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_table_rows_step_as_the_slice_path(data):
    # A table rule's row step gathers each cell's index shares once; it
    # must equal its evaluator's call on shifted slices, value and dtype.
    if data.draw(st.booleans()):
        rule = TABLE_RULES[data.draw(st.sampled_from(sorted(TABLE_RULES)))]
    else:
        nb = data.draw(neighborhoods)
        rule = random_table_rule(data.draw(st.integers(1, 4)), nb, seed=data.draw(st.integers(0, 99)))
    batch = engine._batch_of(rule)
    assert isinstance(batch, engine._IndexTable)
    span = max(rule.neighborhood) - min(rule.neighborhood)
    shape = (data.draw(st.integers(1, 3)),) * data.draw(st.integers(0, 1))
    shape += (span + data.draw(st.integers(0, 9)),)
    dtype = data.draw(st.sampled_from([np.intp, batch.table.dtype]))
    size = int(np.prod(shape))
    cells = data.draw(st.lists(st.integers(0, rule.state_count - 1), min_size=size, max_size=size))
    rows = np.array(cells, dtype=dtype).reshape(shape)
    got, expected = engine._shrink_step(rule, rows), slice_step(rule, rows)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


def test_a_replaced_local_batch_steps_rows_in_run_and_in_the_simulate_sweep(monkeypatch):
    # dataclasses.replace swaps a derived rule's evaluator for a hand-built
    # one: stepping and the simulate sweep must both call it.
    p = example_rpca("xor")
    rule = convert(p)
    s = rule.state_count
    shapes = []

    def local_batch(cols):
        shapes.append(np.broadcast_shapes(*(col.shape for col in cols)))
        return (rule.local_batch(cols) + 1) % s

    replaced = dataclasses.replace(rule, local_batch=local_batch)
    start = encode_tau_prime(rule.code, Finite(0, ((1, 0), (0, 1)), QUIESCENT_PAIR), k=3)
    rows = run(replaced, start, 3).rows
    assert len(shapes) == 3
    assert np.array_equal(rows[1][1], (run(rule, start, 3).rows[1][1] + 1) % s)
    shapes.clear()
    monkeypatch.setattr(verify, "convert", lambda source: replaced)
    assert not verify.check_simulation_correspondence(p, max_support=2, steps=2).passed
    # The sweep's row matrices, then the one confirmed start's rows.
    assert [len(shape) for shape in shapes] == [2] * 4 + [1] * 4


@pytest.mark.parametrize("steps", [0, 3])
def test_start_check_takes_int_subclasses_and_names_the_first_other_cell(steps):
    rule = RULES[0]
    assert run(rule, Finite(0, [True, 3], 0), steps) == run(rule, Finite(0, [1, 3], 0), steps)
    cases = [
        (Finite(0, [1, np.int64(2), 99], 0), "state np.int64(2) out of range for 16 states"),
        (Cyclic([3, 2.0, 1]), "state 2.0 out of range for 16 states"),
        (BiPeriodic([0], [5, True, 16], 0, [1, -1]), "state 16 out of range for 16 states"),
        (BiPeriodic([0, 2**70], [], 0, [0]), f"state {2**70} out of range for 16 states"),
    ]
    for config, message in cases:
        for call in (lambda: step(rule, config), lambda: run(rule, config, steps)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message
