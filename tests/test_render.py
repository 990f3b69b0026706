"""``render`` formats whole row windows through per-state labels; its
output must stay byte-identical to the per-cell renderer kept here."""

import pytest

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from rncca.cli import RenderSpec, _default_window, render
from rncca.convert import ParticleCode, convert, encode_tau, encode_tau_prime
from rncca.engine import BiPeriodic, Cyclic, Finite, Rule, Trajectory, cell_at, make_rule, run
from rncca.rpca import QUIESCENT_PAIR, example_rpca

XOR_RULE = convert(example_rpca("xor"))
RULE_2X3 = convert(example_rpca("random", 2, 3, seed=1))
# 112 states: text labels three characters wide.
RULE_4X7 = convert(example_rpca("random", 4, 7, seed=2))
ONE_STATE = make_rule(1, (-2, -1, 0, 1), {hood: 0 for hood in itertools.product([0], repeat=4)}, 0)
# Its outputs leave its three states, which ``run`` does not check after
# the start.
DOUBLING = Rule(3, (0,), lambda a: 2 * a, 0, lambda cols: 2 * cols[0])


def per_cell_render(trajectory, spec):
    """The renderer as it was, one cell_at call per cell."""

    def gray(value, state_count):
        if state_count <= 1:
            return 0
        return 255 * value // (state_count - 1)

    xs = range(spec.x_min, spec.x_max + 1)
    if spec.format == "text":
        width = len(str(trajectory.rule.state_count - 1))
        lines = [
            " ".join(str(cell_at(cfg, x)).rjust(width) for x in xs)
            for cfg in trajectory.configs
        ]
        return "\n".join(lines) + "\n"
    if spec.format == "pgm":
        s = trajectory.rule.state_count
        lines = ["P2", f"{spec.x_max - spec.x_min + 1} {len(trajectory.configs)}", "255"]
        for cfg in trajectory.configs:
            lines.append(" ".join(str(gray(cell_at(cfg, x), s)) for x in xs))
        return "\n".join(lines) + "\n"
    lines = ["t,x,state"]
    for t, cfg in enumerate(trajectory.configs):
        for x in xs:
            lines.append(f"{t},{x},{cell_at(cfg, x)}")
    return "\n".join(lines) + "\n"


TRAJECTORIES = {
    "finite": (XOR_RULE, Finite(-2, [5, 10, 0, 7, 9, 2], 0), 6),
    "cyclic": (XOR_RULE, Cyclic([5, 10, 0, 15, 4, 11, 0, 15]), 5),
    "tau-prime": (
        RULE_2X3,
        encode_tau_prime(
            ParticleCode(2, 3), Finite(0, [(1, 2), (0, 1), (1, 0)], QUIESCENT_PAIR), k=3
        ),
        7,
    ),
    "one-state": (ONE_STATE, Finite(0, [], 0), 3),
    "112-states": (
        RULE_4X7,
        encode_tau(ParticleCode(4, 7), Finite(0, [(3, 6), (0, 1), (2, 5)], QUIESCENT_PAIR)),
        6,
    ),
    "batch-out-of-range": (DOUBLING, Finite(0, [1, 2], 0), 3),
    # A tuple of configurations is a trajectory built by hand.  These
    # start with cells outside the rule's states, which ``run`` refuses,
    # or hold a later row of cells that are not all ints.
    "unstepped-out-of-range": (XOR_RULE, (Finite(-1, [5, 300, -1, 15], 0),), 0),
    "unstepped-biperiodic": (XOR_RULE, (BiPeriodic([0, 15], [16, 3], 1, [0, 15]),), 0),
    "hand-built-mixed-types": (XOR_RULE, (Finite(0, (1, 2), 0), Finite(0, (1.5, True), 0)), 1),
}


@pytest.mark.parametrize("name", TRAJECTORIES)
@pytest.mark.parametrize("fmt", ["text", "pgm", "csv"])
def test_render_matches_per_cell_renderer(name, fmt):
    rule, config, steps = TRAJECTORIES[name]
    if isinstance(config, tuple):
        trajectory, config = Trajectory(rule, config), config[0]
    else:
        trajectory = run(rule, config, steps)
    default = _default_window(config, rule, steps)
    # Explicit windows reach far into the background on each side, or
    # lie wholly left or right of the support.
    windows = (
        default,
        (default[0] - 17, default[1]),
        (-3, default[1] + 11),
        (4, 4),
        (default[0] - 40, default[0] - 5),
        (default[1] + 5, default[1] + 29),
    )
    for x_min, x_max in windows:
        spec = RenderSpec(fmt, x_min, x_max, steps)
        assert render(trajectory, spec) == per_cell_render(trajectory, spec)


def words(states, min_size, max_size):
    return st.lists(st.integers(0, states - 1), min_size=min_size, max_size=max_size)


@st.composite
def starts(draw, states):
    shape = draw(st.sampled_from(["finite", "cyclic", "biperiodic"]))
    if shape == "finite":
        return Finite(draw(st.integers(-5, 5)), draw(words(states, 0, 8)), 0)
    if shape == "cyclic":
        return Cyclic(draw(words(states, 1, 8)))
    left, right = draw(words(states, 1, 3)), draw(words(states, 1, 3))
    return BiPeriodic(left, draw(words(states, 0, 6)), draw(st.integers(-5, 5)), right)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_render_from_rows_matches_configs(data):
    rule = data.draw(st.sampled_from([XOR_RULE, RULE_2X3]))
    config = data.draw(starts(rule.state_count))
    steps = data.draw(st.integers(0, 8))
    trajectory = run(rule, config, steps)
    assert trajectory.rows is not None
    # Windows inside the stored rows, past them on either or both
    # sides, or wholly beside them.
    lo = min(x0 for x0, _ in trajectory.rows)
    hi = max(x0 + len(cells) for x0, cells in trajectory.rows)
    x_min = data.draw(st.integers(lo - 12, hi + 4))
    x_max = data.draw(st.integers(x_min, hi + 12))
    spec = RenderSpec(data.draw(st.sampled_from(["text", "pgm", "csv"])), x_min, x_max, steps)
    drawn = render(trajectory, spec)
    assert drawn == render(Trajectory(rule, trajectory.configs), spec)
    assert drawn == render(Trajectory(rule, trajectory.configs, trajectory.rows), spec)
    assert drawn == per_cell_render(trajectory, spec)


def test_rows_take_no_part_in_equality_hash_or_repr():
    config = encode_tau(ParticleCode(2, 2), Finite(0, [(1, 1), (0, 1)], QUIESCENT_PAIR))
    first, second = run(XOR_RULE, config, 5), run(XOR_RULE, config, 5)
    assert first.rows is not second.rows
    assert first == second and hash(first) == hash(second)
    bare = Trajectory(XOR_RULE, first.configs)
    assert bare.rows is None
    assert first == bare and hash(first) == hash(bare) and repr(first) == repr(bare)
