import itertools
import random

import numpy as np
import pytest

from rncca.convert import (
    ParticleCode,
    TauDecodeError,
    compose,
    convert,
    decode,
    decode_tau_prime,
    decompose,
    encode_tau,
    encode_tau_prime,
    is_balanced_heavy,
    is_balanced_light,
    phi,
    phi_inverse,
)
from rncca.engine import BiPeriodic, Cyclic, Finite, canonicalize, cell_at, run, step
from rncca.rpca import QUIESCENT_PAIR, example_rpca, make_rpca, step_rpca

CODE22 = ParticleCode(2, 2)
XOR = example_rpca("xor")
XOR_RULE = convert(XOR)


def oracle_decompositions(code, q):
    # Independent route: search every heavy/light mass pair for sums
    # hitting q, instead of using the modular arithmetic under test.
    heavies = code.hat_heavies + code.check_heavies
    lights = code.hat_lights + code.check_lights
    return [(h, l) for h in heavies for l in lights if h + l == q]


@pytest.mark.parametrize("c_size,r_size", [(1, 1), (2, 2), (3, 2), (4, 6)])
def test_decomposition_unique_and_exact(c_size, r_size):
    code = ParticleCode(c_size, r_size)
    for q in range(code.state_count):
        found = oracle_decompositions(code, q)
        assert len(found) == 1
        assert decompose(code, q) == found[0]
        assert compose(code, *found[0]) == q


def test_decompose_examples():
    assert decompose(CODE22, 13) == (12, 1)
    # mass 0 counts as both a heavy and a light particle
    assert decompose(CODE22, 0) == (0, 0)
    assert 0 in CODE22.hat_heavies and 0 in CODE22.hat_lights
    assert decompose(CODE22, 5) == (4, 1)


def test_decompose_rejects_out_of_range():
    with pytest.raises(ValueError):
        decompose(CODE22, 16)


def test_particle_sets():
    assert CODE22.hat_heavies == (0, 4)
    assert CODE22.check_heavies == (8, 12)
    assert CODE22.hat_lights == (0, 1)
    assert CODE22.check_lights == (2, 3)
    assert set(CODE22.hat_heavies).isdisjoint(CODE22.check_heavies)
    assert set(CODE22.hat_lights).isdisjoint(CODE22.check_lights)


def test_complement_closure():
    for code in (CODE22, ParticleCode(4, 6)):
        for h in code.hat_heavies:
            assert code.heavy_pair_sum - h in code.check_heavies
        for l in code.hat_lights:
            assert code.light_pair_sum - l in code.check_lights


def test_balanced_examples():
    assert is_balanced_heavy(CODE22, 5, 11)
    assert is_balanced_light(CODE22, 5, 10)
    assert not is_balanced_light(CODE22, 4, 10)
    # hat must come first
    assert not is_balanced_heavy(CODE22, 11, 5)
    assert not is_balanced_light(CODE22, 10, 5)


def test_phi_examples():
    assert phi(CODE22, "hat", 1, 1) == 5
    assert phi(CODE22, "check", 1, 0) == 11
    assert phi(CODE22, "check", 0, 0) == 15


@pytest.mark.parametrize("c_size,r_size", [(2, 2), (3, 2), (4, 6)])
def test_phi_bijections(c_size, r_size):
    code = ParticleCode(c_size, r_size)
    pairs = [(c, r) for c in range(c_size) for r in range(r_size)]
    hats = {phi(code, "hat", c, r) for c, r in pairs}
    checks = {phi(code, "check", c, r) for c, r in pairs}
    assert len(hats) == len(pairs) and len(checks) == len(pairs)
    assert hats.isdisjoint(checks)
    for c, r in pairs:
        assert phi_inverse(code, "hat", phi(code, "hat", c, r)) == (c, r)
        assert phi_inverse(code, "check", phi(code, "check", c, r)) == (c, r)


def test_phi_inverse_rejects_wrong_codomain():
    with pytest.raises(ValueError):
        phi_inverse(CODE22, "hat", 15)
    with pytest.raises(ValueError):
        phi_inverse(CODE22, "check", 5)
    with pytest.raises(ValueError):
        phi_inverse(CODE22, "hat", 7)  # hat heavy but check light


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: ParticleCode(0, 1), "part state sets must be non-empty"),
        (lambda: compose(CODE22, 3, 0), "3 is not a heavy mass"),
        (lambda: compose(CODE22, 0, 4), "4 is not a light mass"),
        (lambda: phi(CODE22, "hatt", 0, 0), "unknown variant 'hatt'"),
        (lambda: phi_inverse(CODE22, "hatt", 0), "unknown variant 'hatt'"),
        (
            lambda: encode_tau(CODE22, Finite(0, [(1.5, 0)], QUIESCENT_PAIR)),
            "cell (1.5, 0) is not a (c, r) pair of integers",
        ),
    ],
    ids=["empty-part", "heavy", "light", "phi-variant", "phi-inverse-variant", "float-cell"],
)
def test_code_arithmetic_names_the_fault(build, error):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == error


def test_convert_rejects_non_injective():
    table = {(c, r): (0, 0) for c in range(2) for r in range(2)}
    with pytest.raises(ValueError):
        convert(make_rpca(2, 2, table))


def test_convert_refuses_a_source_over_the_table_limit():
    # 440 states: 2|R| * 440 * 440 * 2|C| entries.
    with pytest.raises(ValueError) as err:
        convert(example_rpca("identity", c_size=10, r_size=11))
    assert str(err.value) == (
        "a 10x11 source needs a 85184000-entry rule table, over the limit of 67108864"
    )


def test_derived_local_worked_cases():
    local = XOR_RULE.local
    assert local(0, 0, 0, 0) == 0
    assert local(0, 15, 5, 10) == 7
    assert local(3, 12, 7, 9) == 4
    assert local(12, 7, 9, 2) == 11


def test_derived_rule_shape():
    assert XOR_RULE.state_count == 16
    assert XOR_RULE.neighborhood == (-2, -1, 0, 1)
    assert XOR_RULE.quiescent == 0
    big = convert(example_rpca("random", c_size=4, r_size=6, seed=1))
    assert big.state_count == 96


def test_batch_local_matches_scalar_exhaustively():
    windows = np.array(list(itertools.product(range(16), repeat=4)), dtype=np.int64)
    got = XOR_RULE.local_batch([windows[:, i] for i in range(4)])
    expect = np.array([XOR_RULE.local(*w) for w in map(tuple, windows)], dtype=np.int64)
    assert (got == expect).all()


def test_batch_local_matches_scalar_random_96():
    rule = convert(example_rpca("random", c_size=4, r_size=6, seed=1))
    rng = np.random.default_rng(0)
    windows = rng.integers(0, 96, size=(5000, 4))
    got = rule.local_batch([windows[:, i] for i in range(4)])
    expect = np.array([rule.local(*map(int, w)) for w in windows])
    assert (got == expect).all()


RANDOM_4X6_RULE = convert(example_rpca("random", c_size=4, r_size=6, seed=1))
# The column shapes the sweeps give local_batch, over four state arrays
# w, x, y, z on axes 0..3: a digit grid's own axis per position, a
# 3-cycle's one column read at offsets -2 and +1, and the size-1 zero
# column that pads a finite word at either end.
BROADCAST_LAYOUTS = {
    "axis-per-position": lambda w, x, y, z, zero: [w, x, y, z],
    "three-cycle": lambda w, x, y, z, zero: [x, y, z, x],
    "padded-left": lambda w, x, y, z, zero: [zero, zero, y, z],
    "padded-right": lambda w, x, y, z, zero: [w, x, zero, zero],
    "padded-both": lambda w, x, y, z, zero: [zero, zero, z, zero],
}


@pytest.mark.parametrize("dtype", [np.uint8, np.intp], ids=["uint8-draws", "intp-rows"])
@pytest.mark.parametrize("layout", BROADCAST_LAYOUTS)
@pytest.mark.parametrize("rule", [XOR_RULE, RANDOM_4X6_RULE], ids=["xor", "random-4x6"])
def test_batch_local_matches_scalar_on_broadcast_columns(rule, layout, dtype):
    s = rule.state_count
    rng = np.random.default_rng(3)
    # Every state on each axis for xor; twelve of the 96, 0 and 95 among
    # them, for the 4x6 source.
    picks = [
        np.arange(s) if s <= 16 else np.r_[0, s - 1, rng.choice(np.arange(1, s - 1), 10, replace=False)]
        for _ in range(4)
    ]
    axes = [v.astype(dtype).reshape([-1 if a == i else 1 for a in range(4)]) for i, v in enumerate(picks)]
    cols = BROADCAST_LAYOUTS[layout](*axes, np.zeros((1,) * 4, dtype=dtype))
    got = rule.local_batch(cols)
    grid = np.broadcast_arrays(*cols)
    assert got.shape == grid[0].shape
    expect = [rule.local(*hood) for hood in zip(*(g.ravel().tolist() for g in grid))]
    assert got.ravel().tolist() == expect


def test_guard_exclusivity_never_trips():
    # The guards are provably disjoint; the built-in assertion must not
    # fire anywhere on the full 16-state window space.
    for window in itertools.product(range(16), repeat=4):
        XOR_RULE.local(*window)


def test_encode_tau_single_cell():
    enc = encode_tau(CODE22, Finite(0, [(1, 1)], QUIESCENT_PAIR))
    assert enc == BiPeriodic((0, 15), (5, 10), 0, (0, 15))


def test_encode_tau_quiescent_background_only():
    enc = encode_tau(CODE22, Finite(0, [], QUIESCENT_PAIR))
    assert enc == BiPeriodic((0, 15), (), 0, (0, 15))
    assert [cell_at(enc, x) for x in range(-2, 3)] == [0, 15, 0, 15, 0]


def test_encode_tau_cyclic():
    enc = encode_tau(CODE22, Cyclic([(1, 0), (0, 0)]))
    assert enc == Cyclic((4, 11, 0, 15))


def test_encode_tau_rejects_biperiodic_input():
    with pytest.raises(TypeError):
        encode_tau(CODE22, BiPeriodic([(0, 0)], [], 0, [(0, 0)]))


def test_encode_tau_prime_uniform_background():
    enc = encode_tau_prime(CODE22, Finite(0, [], QUIESCENT_PAIR), k=3)
    assert enc.left == (0, 15, 0)
    assert enc.right == (0, 15, 0)
    assert enc.center == ()


def test_encode_tau_prime_k4_single_cell():
    enc = encode_tau_prime(CODE22, Finite(0, [(1, 1)], QUIESCENT_PAIR), k=4)
    assert enc.left == (0, 15, 0, 0)
    assert [cell_at(enc, x) for x in range(0, 6)] == [5, 10, 0, 0, 0, 15]


def test_encode_tau_prime_rejects_small_k():
    with pytest.raises(ValueError):
        encode_tau_prime(CODE22, Finite(0, [(1, 1)], QUIESCENT_PAIR), k=2)


def test_fractional_spacings_and_gaps_are_refused_by_name():
    # int() would truncate them to spacing 3 and gaps 1, 2.
    alpha = Finite(0, [(1, 1), (1, 0), (0, 1)], QUIESCENT_PAIR)
    with pytest.raises(ValueError, match="^spacing k must be a whole number, got 3.5$"):
        encode_tau_prime(CODE22, alpha, k=3.5)
    with pytest.raises(ValueError, match="^gap must be a whole number, got 2.2$"):
        encode_tau_prime(CODE22, alpha, gaps=[1, 2.2])
    with pytest.raises(ValueError, match="^spacing k must be a whole number, got 3.5$"):
        decode_tau_prime(CODE22, encode_tau_prime(CODE22, alpha, k=3), 3.5)
    # Whole numbers of any type behave as ints.
    for k in (3.0, np.int64(3)):
        enc = encode_tau_prime(CODE22, alpha, k=k)
        assert enc == encode_tau_prime(CODE22, alpha, k=3)
        assert decode_tau_prime(CODE22, enc, k) == alpha
    assert encode_tau_prime(CODE22, alpha, gaps=[1.0, np.int64(2)]) == encode_tau_prime(CODE22, alpha, gaps=[1, 2])


def test_encode_tau_prime_explicit_gaps_positions():
    word = [(1, 1), (1, 0), (0, 1)]
    enc = encode_tau_prime(CODE22, Finite(0, word, QUIESCENT_PAIR), gaps=[1, 2])
    # gap counts quiescent cells between 2-cell blocks: starts 0, 3, 7
    for start, pair in zip((0, 3, 7), word):
        assert cell_at(enc, start) == phi(CODE22, "hat", *pair)
        assert cell_at(enc, start + 1) == phi(CODE22, "check", *pair)
    assert cell_at(enc, 2) == 0
    assert cell_at(enc, 5) == 0
    assert cell_at(enc, 6) == 0


def test_encode_tau_prime_gap_validation():
    word = [(1, 1), (1, 0)]
    with pytest.raises(ValueError):
        encode_tau_prime(CODE22, Finite(0, word, QUIESCENT_PAIR), gaps=[0])
    with pytest.raises(ValueError):
        encode_tau_prime(CODE22, Finite(0, word, QUIESCENT_PAIR), gaps=[1, 1])


def test_encode_tau_prime_cyclic_gaps():
    enc = encode_tau_prime(CODE22, Cyclic([(1, 0), (0, 0)]), gaps=[1, 2])
    assert enc == Cyclic((4, 11, 0, 0, 15, 0, 0))


def test_encode_tau_prime_empty_word_with_gaps_is_pure_background():
    enc = encode_tau_prime(CODE22, Finite(0, [], QUIESCENT_PAIR), gaps=[])
    assert enc == BiPeriodic((0, 15, 0), (), 0, (0, 15, 0))


def test_encode_tau_prime_cyclic_uniform_length():
    alpha = Cyclic([(1, 0), (0, 1)])
    for k in (3, 5):
        enc = encode_tau_prime(CODE22, alpha, k=k)
        assert len(enc.word) == k * 2
        assert enc.word[0] == phi(CODE22, "hat", 1, 0)
        assert enc.word[k] == phi(CODE22, "hat", 0, 1)
        assert all(enc.word[i] == 0 for i in range(2, k))


def test_spaced_encoding_tracks_source_after_k_steps():
    # one source step happens in exactly k derived steps
    alpha = canonicalize(Finite(0, [(1, 1), (0, 1)], QUIESCENT_PAIR))
    for k in (3, 4):
        derived = encode_tau_prime(CODE22, alpha, k=k)
        for _ in range(k):
            derived = step(XOR_RULE, derived)
        assert derived == encode_tau_prime(CODE22, step_rpca(XOR, alpha), k=k)


def test_decode_round_trip_exhaustive_support_4():
    pairs = [(c, r) for c in range(2) for r in range(2)]
    for word in itertools.product(pairs, repeat=4):
        alpha = canonicalize(Finite(0, word, QUIESCENT_PAIR))
        assert decode(CODE22, encode_tau(CODE22, alpha)) == alpha


def test_decode_background_only():
    cfg = BiPeriodic([0, 15], [], 0, [0, 15])
    assert decode(CODE22, cfg) == Finite(0, (), QUIESCENT_PAIR)


def test_decode_cyclic_round_trip():
    alpha = Cyclic([(1, 0), (0, 1), (1, 1)])
    assert decode(CODE22, encode_tau(CODE22, alpha)) == alpha


def test_decode_rejects_mid_round_pattern():
    # 7 has a hat heavy half but a check light half: not a block value.
    cfg = BiPeriodic([0, 15], [7, 9], 2, [0, 15])
    with pytest.raises(TauDecodeError) as err:
        decode(CODE22, cfg)
    assert err.value.position == 2


def test_decode_rejects_mismatched_halves():
    cfg = BiPeriodic([0, 15], [5, 11], 0, [0, 15])  # hat(1,1) next to check(1,0)
    with pytest.raises(TauDecodeError) as err:
        decode(CODE22, cfg)
    assert err.value.position == 0


def test_decode_rejects_finite_input():
    with pytest.raises(TauDecodeError):
        decode(CODE22, Finite(0, [5, 10], 0))


def test_decode_tau_prime_round_trip():
    for k in (3, 4, 5):
        for word in itertools.product([(0, 0), (1, 1), (1, 0)], repeat=3):
            alpha = canonicalize(Finite(0, word, QUIESCENT_PAIR))
            enc = encode_tau_prime(CODE22, alpha, k=k)
            assert decode_tau_prime(CODE22, enc, k) == alpha


def test_decode_tau_prime_refuses_spacing_2():
    enc = encode_tau_prime(CODE22, Cyclic([(1, 1)]), k=3)
    with pytest.raises(ValueError) as err:
        decode_tau_prime(CODE22, enc, 2)
    assert str(err.value) == "uniform spacing needs k >= 3"


def test_decode_tau_prime_rejects_dirty_gap():
    enc = encode_tau_prime(CODE22, Cyclic([(1, 1)]), k=3)
    dirty = Cyclic(enc.word[:2] + (1,))
    with pytest.raises(TauDecodeError) as err:
        decode_tau_prime(CODE22, dirty, 3)
    assert err.value.position == 2


def test_balanced_pair_non_adjacency():
    # Two balanced pairs cannot share a cell: the shared cell's half
    # would have to be hat and check at once.
    rng = random.Random(7)
    for _ in range(200):
        cells = [rng.randrange(16) for _ in range(6)]
        for x in range(1, 4):
            if is_balanced_heavy(CODE22, cells[x], cells[x + 1]):
                assert not is_balanced_heavy(CODE22, cells[x - 1], cells[x])
                assert not is_balanced_heavy(CODE22, cells[x + 1], cells[x + 2])
            if is_balanced_light(CODE22, cells[x], cells[x + 1]):
                assert not is_balanced_light(CODE22, cells[x - 1], cells[x])
                assert not is_balanced_light(CODE22, cells[x + 1], cells[x + 2])


def test_propagation_relations_on_random_rings():
    # Heavy balance survives in place; light balance shifts right by one.
    rng = random.Random(13)
    for _ in range(300):
        n = rng.choice([2, 4, 6, 8])
        word = tuple(rng.randrange(16) for _ in range(n))
        before = Cyclic(word)
        after = step(XOR_RULE, before)
        for x in range(n):
            bc_before = is_balanced_heavy(CODE22, cell_at(before, x), cell_at(before, x + 1))
            bc_after = is_balanced_heavy(CODE22, cell_at(after, x), cell_at(after, x + 1))
            assert bc_before == bc_after
            br_before = is_balanced_light(CODE22, cell_at(before, x), cell_at(before, x + 1))
            br_after = is_balanced_light(CODE22, cell_at(after, x + 1), cell_at(after, x + 2))
            assert br_before == br_after


def test_two_step_simulation_spot():
    alpha = Finite(0, [(1, 1)], QUIESCENT_PAIR)
    traj = run(XOR_RULE, encode_tau(CODE22, alpha), 2)
    assert traj.configs[2] == encode_tau(CODE22, step_rpca(XOR, alpha))
