import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rncca.convert import convert
from rncca.engine import (
    BiPeriodic,
    Cyclic,
    Finite,
    Trajectory,
    canonicalize,
    cell_at,
    make_rule,
    run,
    step,
    window_growth,
)
from rncca.rpca import example_rpca
from reference_stepper import _canonicalize_biperiodic as reference_canonicalize_biperiodic
from reference_stepper import _canonicalize_finite as reference_canonicalize_finite


def right_shift():
    return make_rule(2, (-1,), lambda x: x, 0)


def identity_rule(states=2):
    return make_rule(states, (0,), lambda x: x, 0)


def xor_ncca():
    return convert(example_rpca("xor"))


def test_make_rule_rejects_moving_quiescent():
    with pytest.raises(ValueError):
        make_rule(2, (0,), lambda x: 1 - x, 0)


def test_make_rule_rejects_duplicate_offsets():
    with pytest.raises(ValueError):
        make_rule(2, (0, 0), lambda a, b: a, 0)


def test_make_rule_rejects_out_of_range_table():
    table = {(0,): 0, (1,): 2}
    with pytest.raises(ValueError):
        make_rule(2, (0,), table, 0)


def test_make_rule_rejects_partial_table():
    with pytest.raises(ValueError):
        make_rule(2, (0,), {(0,): 0}, 0)


def pairs_and(key, count=3):
    """A 2-state, 2-offset mapping of the first ``count`` pairs in order,
    then ``key`` as its last key."""
    return {**{hood: 0 for hood in itertools.islice(itertools.product(range(2), repeat=2), count)}, key: 1}


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: make_rule(2, (), lambda: 0, 0), "neighborhood must not be empty"),
        (lambda: make_rule(2, (0,), lambda x: x, 2), "quiescent state 2 out of range for 2 states"),
        (lambda: make_rule(2, (0,), {0: 0, 1: 1}, 0), "local map keys must be 1-tuples, got 0"),
        (lambda: make_rule(2, (0,), ([[0], [2]], [0, 1]), 0), "neighborhood key (2,) out of range"),
        (lambda: make_rule(2, (0,), ([[1], [0], [1]], [1, 0]), 0), "zip() argument 2 is shorter than argument 1"),
        (lambda: make_rule(2, (0,), ([[0], [1]], [0, 1, 1]), 0), "zip() argument 2 is longer than argument 1"),
        (lambda: make_rule(2, (0, 1), pairs_and((1, 1, 1)), 0), "neighborhood key (1, 1, 1) out of range"),
        (lambda: make_rule(2, (0, 1), pairs_and((1, 1.0)), 0), "neighborhood key (1, 1.0) out of range"),
        (lambda: make_rule(2, (0, 1), pairs_and((1, 1, 1), 2), 0), "local map must cover all 4 neighborhoods, got 3"),
        (lambda: make_rule(2, (0, 1), pairs_and((1, 1.0), 2), 0), "local map must cover all 4 neighborhoods, got 3"),
        (lambda: Cyclic(()), "cyclic word must be non-empty"),
        (lambda: BiPeriodic((), (1,), 0, (0,)), "background words must be non-empty"),
    ],
    ids=[
        "empty-neighborhood",
        "quiescent",
        "untupled-key",
        "key-pairs",
        "short-outputs",
        "long-outputs",
        "long-key",
        "float-key",
        "long-key-short-map",
        "float-key-short-map",
        "empty-cyclic",
        "empty-background",
    ],
)
def test_constructors_name_the_fault(build, error):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == error


@pytest.mark.parametrize(
    "keys, outputs",
    [([[0.5], [0.0]], [1, 0]), ([[0.5], [1.0]], [0, 1]), ([[float("nan")], [1.0]], [0, 1])],
    ids=["truncates-onto-a-key", "covers-when-truncated", "nan"],
)
def test_fractional_keys_are_refused_alike_as_arrays_and_as_a_mapping(keys, outputs):
    # Truncated, the first two tables' keys would fill slot 0 twice, or
    # each slot once; the arrays form must not read them as whole keys.
    keys = np.array(keys)
    refusals = []
    for local_map in ((keys, np.array(outputs)), dict(zip(map(tuple, keys.tolist()), outputs))):
        with pytest.raises(ValueError) as err:
            make_rule(2, (0,), local_map, 0)
        refusals.append(str(err.value))
    assert refusals == [f"neighborhood key {tuple(keys[0].tolist())} out of range"] * 2


TABLE_SHAPES = [(s, m) for s in range(1, 17) for m in range(1, 9) if s**m <= 256]


def dict_walk_refusal(entries, s):
    """The refusal of the table that is the dict built from ``entries`` in
    order, its keys walked in first-place order; None if there is none."""
    table = dict(entries)
    size = s ** len(entries[0][0])
    if len(table) != size:
        return f"local map must cover all {size} neighborhoods, got {len(table)}"
    for key, value in table.items():
        if any(not 0 <= x < s for x in key):
            return f"neighborhood key {key} out of range"
        if not 0 <= value < s:
            return f"output {value} for neighborhood {key} out of range"
    return None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tables_in_any_order_build_the_rule_of_their_dict(data):
    # The table in neighborhood order takes make_rule's in-order path; a
    # permuted one, or one with repeated keys, is read as its dict.
    s, m = data.draw(st.sampled_from(TABLE_SHAPES))
    hoods = list(itertools.product(range(s), repeat=m))
    outputs = [0] + data.draw(st.lists(st.integers(0, s - 1), min_size=len(hoods) - 1, max_size=len(hoods) - 1))
    in_order = list(zip(hoods, outputs))

    def build_arrays(entries):
        keys = np.array([key for key, _ in entries]).reshape(-1, m)
        return make_rule(s, tuple(range(m)), (keys, np.array([value for _, value in entries])), 0)

    def build_mapping(entries):
        return make_rule(s, tuple(range(m)), dict(entries), 0)

    def build_numpy_mapping(entries):
        # numpy integers in keys and outputs; refusals name them as ints.
        return build_mapping([(tuple(map(np.int64, key)), np.int64(value)) for key, value in entries])

    builders = (build_arrays, build_mapping, build_numpy_mapping)

    permuted = data.draw(st.permutations(in_order))
    # A repeated key keeps its first place and takes its last output, so
    # its earlier outputs may lie out of range.
    repeated = data.draw(st.lists(st.sampled_from(hoods), min_size=1, max_size=6, unique=True))
    repeats = [(key, data.draw(st.sampled_from([-1, s]))) if key in repeated else (key, value) for key, value in permuted]
    repeats += [(key, data.draw(st.integers(-2, s + 1))) for key in data.draw(st.lists(st.sampled_from(repeated)))]
    repeats += [(key, dict(in_order)[key]) for key in repeated]
    columns = [np.array(column) for column in zip(*hoods)]
    for entries, build in itertools.product((in_order, permuted, repeats), builders):
        rule = build(entries)
        assert [rule.local(*hood) for hood in hoods] == outputs
        assert rule.local_batch(columns).tolist() == outputs

    # One or two faults, each an out-of-range key or an out-of-range last
    # output: the refusal names the first faulty entry in first-place order.
    faulty = repeats
    for target in data.draw(st.lists(st.sampled_from(hoods), min_size=1, max_size=2, unique=True)):
        bad = data.draw(st.sampled_from([-1, s]))
        if data.draw(st.booleans()):
            spot = data.draw(st.integers(0, m - 1))
            bad_key = target[:spot] + (bad,) + target[spot + 1 :]
            faulty = [(bad_key if key == target else key, value) for key, value in faulty]
        else:
            last = max(i for i, (key, _) in enumerate(faulty) if key == target)
            faulty = faulty[:last] + [(target, bad)] + faulty[last + 1 :]
    refusal = dict_walk_refusal(faulty, s)
    assert refusal is not None
    for build in builders:
        with pytest.raises(ValueError) as err:
            build(faulty)
        assert str(err.value) == refusal


def test_table_rules_refuse_states_outside_the_table():
    rule = make_rule(2, (0, 1), {hood: hood[0] & hood[1] for hood in itertools.product(range(2), repeat=2)}, 0)
    for hood in ((2, 0), (-1, 0)):
        with pytest.raises(KeyError):
            rule.local(*hood)


def test_trajectories_have_no_other_attributes():
    ran = run(right_shift(), Finite(0, [1], 0), 2)
    built = Trajectory(right_shift(), (Finite(0, (1,), 0),))
    for trajectory in (ran, built):
        with pytest.raises(AttributeError, match="^'Trajectory' object has no attribute 'nope'$"):
            trajectory.nope


def test_make_rule_accepts_computed_locals():
    rule = xor_ncca()
    assert rule.state_count == 16
    assert rule.local(0, 0, 0, 0) == 0


def test_cell_at_finite_outside_support():
    cfg = Finite(0, [5, 10], 0)
    assert cell_at(cfg, -3) == 0
    assert cell_at(cfg, 1) == 10


def test_cell_at_cyclic_wraps():
    assert cell_at(Cyclic([0, 15]), 7) == 15


def test_cell_at_biperiodic():
    cfg = BiPeriodic([0, 15], [5, 10], 0, [0, 15])
    assert cell_at(cfg, 1) == 10
    assert cell_at(cfg, -1) == 15
    assert cell_at(cfg, 2) == 0


def test_right_shift_moves_support():
    out = step(right_shift(), Finite(0, [1], 0))
    assert out == Finite(1, (1,), 0)


def test_right_shift_run_five():
    traj = run(right_shift(), Finite(0, [1], 0), 5)
    assert traj.configs[-1] == Finite(5, (1,), 0)


def test_identity_run_is_constant():
    cfg = Finite(2, [1, 0, 1], 0)
    traj = run(identity_rule(), cfg, 3)
    assert len(traj.configs) == 4
    assert all(c == canonicalize(cfg) for c in traj.configs)


def test_quiescent_cyclic_fixed_point():
    rule = xor_ncca()
    assert step(rule, Cyclic([0])) == Cyclic((0,))


def test_step_rejects_out_of_range_state():
    with pytest.raises(ValueError):
        step(right_shift(), Finite(0, [2], 0))


def test_callable_images_outside_the_states_are_refused_while_stepping():
    doubling = make_rule(3, (0,), lambda x: 2 * x, 0)
    assert step(doubling, Finite(0, [1], 0)) == Finite(0, (2,), 0)
    message = "local rule maps (2,) to 4, outside the states 0 .. 2"
    with pytest.raises(ValueError, match=re.escape(message)):
        step(doubling, Finite(0, [2], 0))
    with pytest.raises(ValueError, match=re.escape(message)):
        run(doubling, Cyclic([1, 0]), 2)


def test_step_rejects_mismatched_background():
    with pytest.raises(ValueError):
        step(right_shift(), Finite(0, [1], 1))


def test_worked_biperiodic_step():
    # One encoded source cell; the first derived step computed by hand.
    rule = xor_ncca()
    cfg = BiPeriodic([0, 15], [5, 10], 0, [0, 15])
    out = step(rule, cfg)
    assert out.left == (3, 12)
    assert out.right == (3, 12)
    assert cell_at(out, -2) == 3  # even positions hold 3
    assert [cell_at(out, x) for x in range(-1, 4)] == [12, 7, 9, 2, 12]
    # cell -1 equals the stepped background, so the canonical center drops it
    assert out == BiPeriodic((3, 12), (7, 9, 2), 0, (3, 12))


def test_canonicalize_finite_strips_quiescent_ends():
    assert canonicalize(Finite(0, [0, 1, 0], 0)) == Finite(1, (1,), 0)
    assert canonicalize(Finite(7, [0, 0], 0)) == Finite(0, (), 0)


@st.composite
def finite_configs(draw):
    """Integer or pair cells, with runs of the background at either end;
    the middle may be empty, so empty and all-background words occur."""
    pairs = st.tuples(st.integers(0, 2), st.integers(0, 2))
    cell = pairs if draw(st.booleans()) else st.integers(0, 3)
    q = draw(cell)
    ends = st.integers(0, 3)
    word = [q] * draw(ends) + draw(st.lists(cell, max_size=8)) + [q] * draw(ends)
    return Finite(draw(st.integers()), word, q)


@settings(max_examples=300, deadline=None)
@given(finite_configs())
def test_canonicalize_finite_matches_the_reference(cfg):
    assert canonicalize(cfg) == reference_canonicalize_finite(cfg)


@st.composite
def biperiodic_configs(draw):
    """Integer or pair cells on equal or unequal backgrounds, which may
    repeat a shorter word; the center has long runs of each background
    at its ends (phase-aligned or not), and its middle may be empty."""
    pairs = st.tuples(st.integers(0, 1), st.integers(0, 1))
    cell = pairs if draw(st.booleans()) else st.integers(0, 2)

    def word():
        return draw(st.lists(cell, min_size=1, max_size=3)) * draw(st.integers(1, 3))

    left = word()
    right = left if draw(st.booleans()) else word()
    c0 = draw(st.integers(-50, 50))
    head = draw(st.integers(0, 40))
    middle = draw(st.lists(cell, max_size=6))
    tail = draw(st.integers(0, 40))
    phase = draw(st.integers(0, 1))
    center = [left[(c0 + x + phase) % len(left)] for x in range(head)] + middle
    end = c0 + len(center)
    center += [right[(end + x + phase) % len(right)] for x in range(tail)]
    return BiPeriodic(left, center, c0, right)


@settings(max_examples=300, deadline=None)
@given(biperiodic_configs())
def test_canonicalize_biperiodic_matches_the_reference(cfg):
    assert canonicalize(cfg) == reference_canonicalize_biperiodic(cfg)


def test_canonicalize_long_background_run_matches_the_reference():
    # A run of 40,000 background cells before the one live cell; only
    # equality is asserted, not timing.
    cfg = Finite(0, [0] * 40_000 + [1], 0)
    assert canonicalize(cfg) == reference_canonicalize_finite(cfg)
    bi = BiPeriodic((0,), cfg.word, 0, (0,))
    assert canonicalize(bi) == reference_canonicalize_biperiodic(bi)


def test_canonicalize_biperiodic_shrinks_center():
    cfg = BiPeriodic([0, 15], [0, 15, 5, 10], 0, [0, 15])
    assert canonicalize(cfg) == BiPeriodic((0, 15), (5, 10), 2, (0, 15))


def test_canonicalize_biperiodic_reduces_periods():
    cfg = BiPeriodic([0, 15, 0, 15], [5], 0, [0, 15])
    assert canonicalize(cfg) == BiPeriodic((0, 15), (5,), 0, (0, 15))


def test_canonicalize_empty_center_equal_backgrounds():
    cfg = BiPeriodic([0, 15], [], 6, [0, 15])
    out = canonicalize(cfg)
    assert out.center == ()
    assert out.center_offset == 0


def test_canonicalize_empty_center_distinct_backgrounds_minimal_boundary():
    left, right = (1, 2), (5, 2)
    cfg = BiPeriodic(left, [], 4, right)
    out = canonicalize(cfg)
    # position 3 holds 2 under either background, position 2 differs
    assert out.center_offset == 3
    for x in range(-6, 8):
        assert cell_at(out, x) == cell_at(cfg, x)


def test_canonicalize_cyclic_unchanged():
    assert canonicalize(Cyclic([0, 15])) == Cyclic((0, 15))


def test_shift_equivariance():
    rule = xor_ncca()
    rng = random.Random(11)
    for _ in range(30):
        word = [rng.randrange(16) for _ in range(rng.randint(1, 6))]
        base = step(rule, Finite(0, word, 0))
        for shift in (-5, 3):
            moved = step(rule, Finite(shift, word, 0))
            assert moved == canonicalize(Finite(base.offset + shift, base.word, 0))


def test_cyclic_finite_consistency():
    # A support that fits in the ring with quiescent padding steps the same way.
    rule = xor_ncca()
    rng = random.Random(5)
    for _ in range(25):
        word = [rng.randrange(16) for _ in range(3)]
        n = 12
        ring = word + [0] * (n - len(word))
        stepped_ring = step(rule, Cyclic(ring))
        stepped_fin = step(rule, Finite(0, word, 0))
        for x in range(n):
            expect = cell_at(stepped_fin, x if x < n // 2 else x - n)
            assert stepped_ring.word[x] == expect


def brute_step_cells(rule, cfg, lo, hi):
    # Independent route: evaluate the local rule straight from the
    # definition at every position, with no window or canonical logic.
    out = []
    for x in range(lo, hi + 1):
        out.append(rule.local(*(cell_at(cfg, x + n) for n in rule.neighborhood)))
    return out


def test_biperiodic_background_correctness():
    rule = xor_ncca()
    rng = random.Random(3)
    for _ in range(20):
        center = [rng.randrange(16) for _ in range(rng.randint(0, 5))]
        cfg = BiPeriodic([0, 15], center, rng.randint(-4, 4), [0, 15])
        out = step(rule, cfg)
        expect = brute_step_cells(rule, cfg, -30, 30)
        got = [cell_at(out, x) for x in range(-30, 31)]
        assert got == expect


def test_empty_center_biperiodic_step_matches_brute_force():
    rule = xor_ncca()
    cfg = BiPeriodic([0, 15], [], 3, [5, 11])
    out = step(rule, cfg)
    expect = brute_step_cells(rule, cfg, -20, 20)
    assert [cell_at(out, x) for x in range(-20, 21)] == expect


def test_window_growth():
    assert window_growth((-2, -1, 0, 1)) == (1, 2)
    assert window_growth((-1,)) == (0, 1)
    assert window_growth((0,)) == (0, 0)


def test_run_rejects_negative_steps():
    with pytest.raises(ValueError):
        run(identity_rule(), Finite(0, [1], 0), -1)


def test_determinism():
    rule = xor_ncca()
    cfg = BiPeriodic([0, 15], [5, 10], 0, [0, 15])
    a = run(rule, cfg, 6)
    b = run(rule, cfg, 6)
    assert a.configs == b.configs


def test_trajectory_invariant():
    rule = xor_ncca()
    traj = run(rule, BiPeriodic([0, 15], [5, 10], 0, [0, 15]), 5)
    for before, after in itertools.pairwise(traj.configs):
        assert step(rule, before) == after


def test_configs_equal_sees_through_noncanonical_values():
    from rncca.engine import configs_equal

    a = Finite(0, [0, 1, 0], 0)
    b = Finite(1, [1], 0)
    assert configs_equal(a, b)
    c = BiPeriodic([0, 15, 0, 15], [0, 15, 5, 10], 0, [0, 15])
    d = BiPeriodic([0, 15], [5, 10], 2, [0, 15])
    assert configs_equal(c, d)
    assert not configs_equal(a, Finite(0, [1], 0))


def test_canonical_form_unique_across_redundant_descriptions():
    # expanding background periods and absorbing background cells into
    # the center must not change the canonical value
    rng = random.Random(21)
    for _ in range(50):
        left = tuple(rng.randrange(16) for _ in range(rng.randint(1, 3)))
        right = tuple(rng.randrange(16) for _ in range(rng.randint(1, 3)))
        center = tuple(rng.randrange(16) for _ in range(rng.randint(0, 4)))
        offset = rng.randint(-5, 5)
        base = canonicalize(BiPeriodic(left, center, offset, right))
        variants = []
        for expand_l in (1, 2, 3):
            for expand_r in (1, 2):
                variants.append(
                    BiPeriodic(base.left * expand_l, base.center, base.center_offset, base.right * expand_r)
                )
        c0 = base.center_offset
        grown = (cell_at(base, c0 - 1),) + base.center + (cell_at(base, c0 + len(base.center)),)
        variants.append(BiPeriodic(base.left, grown, c0 - 1, base.right))
        for variant in variants:
            for x in range(c0 - 8, c0 + len(base.center) + 8):
                assert cell_at(variant, x) == cell_at(base, x)
            assert canonicalize(variant) == base


def test_step_with_mixed_background_periods():
    # backgrounds of different primitive periods on the two sides
    rule = xor_ncca()
    cfg = BiPeriodic([0, 15], [7, 9], 0, [0, 15, 0])
    out = step(rule, cfg)
    expect = brute_step_cells(rule, cfg, -25, 25)
    assert [cell_at(out, x) for x in range(-25, 26)] == expect
