"""``render`` formats whole row windows through per-state labels; its
output must stay byte-identical to the per-cell renderer kept here."""

import pytest

import itertools

from rncca.cli import RenderSpec, _default_window, render
from rncca.convert import ParticleCode, convert, encode_tau, encode_tau_prime
from rncca.engine import BiPeriodic, Cyclic, Finite, Trajectory, canonicalize, cell_at, make_rule, run
from rncca.rpca import QUIESCENT_PAIR, example_rpca

XOR_RULE = convert(example_rpca("xor"))
RULE_2X3 = convert(example_rpca("random", 2, 3, seed=1))
# 112 states: text labels three characters wide.
RULE_4X7 = convert(example_rpca("random", 4, 7, seed=2))
ONE_STATE = make_rule(1, (-2, -1, 0, 1), {hood: 0 for hood in itertools.product([0], repeat=4)}, 0)


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
    # Starts with cells outside the rule's states, which ``run`` refuses:
    # rendered as one-row trajectories built by hand.
    "unstepped-out-of-range": (XOR_RULE, Finite(-1, [5, 300, -1, 15], 0), 0),
    "unstepped-biperiodic": (XOR_RULE, BiPeriodic([0, 15], [16, 3], 1, [0, 15]), 0),
}


@pytest.mark.parametrize("name", TRAJECTORIES)
@pytest.mark.parametrize("fmt", ["text", "pgm", "csv"])
def test_render_matches_per_cell_renderer(name, fmt):
    rule, config, steps = TRAJECTORIES[name]
    trajectory = run(rule, config, steps) if steps else Trajectory(rule, (canonicalize(config),))
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
