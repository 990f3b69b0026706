import itertools

import numpy as np
import pytest

import rncca.verify as verify
from rncca.convert import convert, encode_tau, encode_tau_prime
from rncca.engine import Cyclic, Finite, canonicalize, make_rule, run
from rncca.rpca import QUIESCENT_PAIR, example_rpca
from rncca.verify import (
    check_injective_cyclic,
    check_number_conserving,
    check_simulation_correspondence,
    check_tau_prime_correspondence,
    format_report,
    ledger_is_constant,
    mass_ledger,
)

XOR = example_rpca("xor")
XOR_RULE = convert(XOR)
CODE22 = XOR_RULE.code


def zero_rule(states=2):
    table = {key: 0 for key in itertools.product(range(states), repeat=4)}
    return make_rule(states, (-2, -1, 0, 1), table, 0)


def shift_rule():
    return make_rule(2, (-1,), lambda x: x, 0)


def test_conserve_right_shift_passes():
    report = check_number_conserving(shift_rule(), mode="exhaustive", max_support=5)
    assert report.passed
    assert report.counterexample is None


def test_conserve_derived_rule_small_exhaustive():
    report = check_number_conserving(XOR_RULE, mode="exhaustive", max_support=3)
    assert report.passed


def test_conserve_zero_rule_fails_with_counterexample():
    report = check_number_conserving(zero_rule(), mode="exhaustive", max_support=2)
    assert not report.passed
    assert report.counterexample is not None
    assert "cell sum" in report.counterexample.expected


def test_conserve_scalar_and_batch_paths_agree():
    batchless = make_rule(16, XOR_RULE.neighborhood, XOR_RULE.local, 0)
    assert batchless.local_batch is None
    a = check_number_conserving(batchless, mode="exhaustive", max_support=2)
    b = check_number_conserving(XOR_RULE, mode="exhaustive", max_support=2)
    assert a.passed and b.passed


def test_vectorized_finite_sweep_matches_engine_step():
    # the bulk enumeration path must produce exactly the cells the
    # engine's stepping produces, not merely matching sums
    import numpy as np

    from rncca.engine import cell_at, step
    from rncca.verify import _image_cells

    # A finite word steps as the ring of it and max(nb) - min(nb) = 3
    # quiescent cells: ring cell i is cell i of the image for i <= 6, and
    # cell 7 is cell -1.
    rng = np.random.default_rng(2)
    words = rng.integers(0, 16, size=(100, 5))
    zero = np.zeros(1, dtype=words.dtype)
    ring = np.stack(np.broadcast_arrays(*_image_cells(XOR_RULE, [*words.T] + [zero] * 3)), axis=1)
    images = np.roll(ring, 1, axis=1)
    for row in range(100):
        cfg = step(XOR_RULE, Finite(0, [int(v) for v in words[row]], 0))
        got = [int(v) for v in images[row]]
        assert got == [cell_at(cfg, x) for x in range(-1, 7)]


def test_vectorized_cyclic_sweep_matches_engine_step():
    import numpy as np

    from rncca.engine import step
    from rncca.verify import _image_cells

    rng = np.random.default_rng(3)
    words = rng.integers(0, 16, size=(100, 6))
    images = np.stack(_image_cells(XOR_RULE, list(words.T)), axis=1)
    for row in range(100):
        cfg = step(XOR_RULE, Cyclic([int(v) for v in words[row]]))
        assert tuple(int(v) for v in images[row]) == cfg.word


def test_conserve_rejects_nonzero_quiescent():
    rule = make_rule(2, (0,), lambda x: x, 1)
    with pytest.raises(ValueError):
        check_number_conserving(rule, mode="exhaustive", max_support=2)


def test_conserve_sampled_reproducible():
    a = check_number_conserving(XOR_RULE, mode="sampled", count=200, max_support=6, seed=42)
    b = check_number_conserving(XOR_RULE, mode="sampled", count=200, max_support=6, seed=42)
    assert a.passed and b.passed
    assert a.domain == b.domain


def test_inject_derived_rule_small_cycles():
    for n in (2, 3):
        report = check_injective_cyclic(XOR_RULE, n)
        assert report.passed, format_report(report)


def test_inject_zero_rule_fails():
    report = check_injective_cyclic(zero_rule(), 2)
    assert not report.passed
    assert "both step to" in report.counterexample.actual


def test_inject_scalar_path():
    # callable-only rule goes through the dictionary path
    rule = make_rule(2, (-1,), lambda x: x, 0)
    assert rule.local_batch is None
    assert check_injective_cyclic(rule, 4).passed

    def collapse(a):
        return 0

    broken = make_rule(2, (-1,), collapse, 0)
    assert not check_injective_cyclic(broken, 2).passed


def test_inject_budget_refusal():
    with pytest.raises(ValueError, match="budget"):
        check_injective_cyclic(XOR_RULE, 4, budget=1000)


def test_inject_sampled_mode_runs():
    report = check_injective_cyclic(XOR_RULE, 5, mode="sampled", count=300, seed=7)
    assert report.passed


# Every oracle in a given mode, with no sample count.
CHECKS = pytest.mark.parametrize(
    "check",
    [
        lambda mode, **kw: check_number_conserving(XOR_RULE, mode=mode, max_support=2, **kw),
        lambda mode, **kw: check_injective_cyclic(XOR_RULE, 3, mode=mode, **kw),
        lambda mode, **kw: check_simulation_correspondence(XOR, mode=mode, max_support=2, steps=1, **kw),
        lambda mode, **kw: check_tau_prime_correspondence(XOR, k=3, mode=mode, max_support=2, steps=1, **kw),
        lambda mode, **kw: check_tau_prime_correspondence(XOR, gaps=[1, 2], mode=mode, steps=1, **kw),
    ],
    ids=["conserve", "inject", "simulate", "tauprime-k", "tauprime-gaps"],
)


@CHECKS
def test_unknown_mode_is_refused(check, monkeypatch):
    # Refused with the bounds, before the rule is converted or swept.
    def no_convert(p):
        raise AssertionError("converted before the mode was checked")

    monkeypatch.setattr(verify, "convert", no_convert)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        check("bogus")


@CHECKS
def test_sampled_mode_without_a_count_is_refused(check):
    with pytest.raises(ValueError) as err:
        check("sampled")
    assert str(err.value) == "sampled mode needs a count"


@CHECKS
def test_sampled_mode_without_a_seed_is_refused(check):
    # Random(None) seeds from OS entropy, so the domain's seed=None would
    # not reproduce the draws; a seed of 0 runs.
    with pytest.raises(ValueError) as err:
        check("sampled", count=5)
    assert str(err.value) == "sampled mode needs a seed"
    assert "seed=0" in check("sampled", count=5, seed=0).domain


# Every oracle with one of its bounds given, and that bound's name.
@pytest.mark.parametrize(
    "check, bound",
    [
        (lambda v, **kw: check_number_conserving(XOR_RULE, max_support=v, **kw), "support"),
        (lambda v, **kw: check_injective_cyclic(XOR_RULE, v, **kw), "cycle"),
        (lambda v, **kw: check_simulation_correspondence(XOR, max_support=2, steps=v, **kw), "steps"),
        (lambda v, **kw: check_tau_prime_correspondence(XOR, k=3, max_support=v, steps=1, **kw), "support"),
    ],
    ids=["conserve", "inject", "simulate", "tauprime"],
)
def test_bounds_and_counts_must_be_whole_numbers(check, bound):
    for value in (2.5, float("nan")):
        with pytest.raises(ValueError) as err:
            check(value)
        assert str(err.value) == f"{bound} must be a whole number, got {value}"
    with pytest.raises(ValueError) as err:
        check(1, mode="sampled", count=2.5, seed=0)
    assert str(err.value) == "sample count must be a whole number, got 2.5"
    # A whole bound or count of any type runs, and the domain reads it as an int.
    domain = check(1).domain
    for value in (1.0, True, np.int64(1)):
        assert check(value).domain == domain
    domain = check(1, mode="sampled", count=3, seed=0).domain
    assert check(True, mode="sampled", count=3.0, seed=0).domain == domain


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
@pytest.mark.parametrize(
    "budget, error",
    [
        (0, "budget must be at least 1, got 0"),
        (-1, "budget must be at least 1, got -1"),
        (10**9 + 0.5, "budget must be a whole number, got 1000000000.5"),
    ],
    ids=["0", "-1", "fraction"],
)
def test_budget_must_be_a_whole_number_of_at_least_one(mode, budget, error):
    sampled = dict(count=3, seed=0) if mode == "sampled" else {}
    for check in (
        lambda: check_number_conserving(XOR_RULE, mode=mode, max_support=2, budget=budget, **sampled),
        lambda: check_injective_cyclic(XOR_RULE, 2, mode=mode, budget=budget, **sampled),
    ):
        with pytest.raises(ValueError) as err:
            check()
        assert str(err.value) == error


def test_any_reversible_table_converts_to_passing_rule():
    # both halves of the construction, spot-checked on a third table
    p = example_rpca("random", c_size=3, r_size=2, seed=11)
    rule = convert(p)
    assert check_number_conserving(rule, mode="exhaustive", max_support=2).passed
    assert check_injective_cyclic(rule, 2).passed


def test_degenerate_single_pair_source():
    # |C| = |R| = 1 still yields a working 4-state derived rule
    rule = convert(example_rpca("identity", c_size=1, r_size=1))
    assert rule.state_count == 4
    assert check_number_conserving(rule, mode="exhaustive", max_support=4).passed
    assert check_injective_cyclic(rule, 4).passed
    assert check_simulation_correspondence(
        example_rpca("identity", c_size=1, r_size=1),
        mode="exhaustive", max_support=2, steps=3,
    ).passed


def test_simulate_xor_exhaustive():
    report = check_simulation_correspondence(XOR, mode="exhaustive", max_support=3, steps=3)
    assert report.passed


def test_simulate_identity_rpca():
    report = check_simulation_correspondence(
        example_rpca("identity"), mode="exhaustive", max_support=3, steps=3
    )
    assert report.passed


def test_simulate_sampled_random_rule():
    p = example_rpca("random", c_size=3, r_size=2, seed=4)
    report = check_simulation_correspondence(
        p, mode="sampled", max_support=4, steps=3, count=50, seed=0
    )
    assert report.passed


def test_simulate_catches_wrong_derived_rule(monkeypatch):
    # Oracle sanity: pair the source with a derived rule built from a
    # different table and the correspondence must fail.
    import rncca.verify as verify_mod

    monkeypatch.setattr(verify_mod, "convert", lambda p: convert(XOR))
    report = check_simulation_correspondence(
        example_rpca("swap"), mode="exhaustive", max_support=2, steps=2
    )
    assert not report.passed
    assert report.counterexample is not None


def test_tauprime_k2_delegates():
    report = check_tau_prime_correspondence(XOR, k=2, mode="exhaustive", max_support=2, steps=2)
    assert report.passed
    assert report.property == "tauprime"
    assert "delegated" in report.domain


def test_tauprime_uniform_period_found():
    for k in (3, 4):
        report = check_tau_prime_correspondence(XOR, k=k, mode="exhaustive", max_support=2, steps=3)
        assert report.passed
        assert f"period={k}" in report.domain


def test_tauprime_period_holds_for_random_rule():
    p = example_rpca("random", c_size=3, r_size=2, seed=6)
    report = check_tau_prime_correspondence(
        p, k=3, mode="sampled", max_support=3, steps=2, count=25, seed=2
    )
    assert report.passed
    assert "period=3" in report.domain


@pytest.mark.parametrize(
    "spacing, error",
    [
        (dict(k=3, gaps=[1]), "give exactly one of k and gaps"),
        ({}, "give exactly one of k and gaps"),
        (dict(k=1), "uniform spacing needs k >= 2, got 1"),
        (dict(k=True), "uniform spacing needs k >= 2, got 1"),
        (dict(k=3.9), "spacing k must be a whole number, got 3.9"),
        (dict(gaps=[1.7, 2.2]), "gap must be a whole number, got 1.7"),
        (dict(gaps=[1, float("nan")]), "gap must be a whole number, got nan"),
    ],
    ids=["both", "neither", "k=1", "k=True", "k=3.9", "gaps=1.7,2.2", "gap=nan"],
)
def test_tauprime_refuses_a_bad_spacing(spacing, error):
    with pytest.raises(ValueError) as err:
        check_tau_prime_correspondence(XOR, max_support=2, steps=1, **spacing)
    assert str(err.value) == error


def test_tauprime_takes_whole_spacings_and_gaps_of_any_type():
    for k in (3, 3.0, np.int64(3)):
        report = check_tau_prime_correspondence(XOR, k=k, max_support=2, steps=1)
        assert report.domain == "exhaustive pairs=2x2 k=3 support<=2 steps=1 period=3"
    for gaps in ([1, 2], [1.0, np.int32(2)]):
        report = check_tau_prime_correspondence(XOR, gaps=gaps, steps=1)
        assert report.domain == "exhaustive pairs=2x2 gaps=1,2 blocks=3 steps=1"


def test_tauprime_gap_mode_mass_conservation():
    report = check_tau_prime_correspondence(XOR, gaps=[1, 3], mode="exhaustive", steps=12)
    assert report.passed


def test_mass_ledger_worked_example():
    alpha = Finite(0, [(1, 1)], QUIESCENT_PAIR)
    traj = run(XOR_RULE, encode_tau(CODE22, alpha), 2)
    # the hand-worked window -1..2 covers the first step shown
    ledger = mass_ledger(CODE22, traj.configs[:2], window=(-1, 2))
    assert ledger.rows[0] == (0, 24, 6)
    assert ledger.rows[1] == (1, 24, 6)
    # fixed-window totals for those two steps both come to 30
    from rncca.engine import cell_at

    assert sum(cell_at(traj.configs[0], x) for x in range(-1, 3)) == 30
    assert sum(cell_at(traj.configs[1], x) for x in range(-1, 3)) == 30
    # the block-aligned default window stays constant across the whole run
    ok, full = ledger_is_constant(CODE22, traj)
    assert ok
    assert full.rows[0][1:] == (36, 9)


# Starts of the seeded 2x3 rule encoded with gaps [2], and which ledger
# windows, in ``_WIDENINGS`` order, stay constant over 8 steps.
WIDENED_STARTS = [
    (((0, 2), (1, 0)), [True, True, True, True]),
    (((0, 1), (0, 0)), [False, True, False, True]),
    (((0, 0), (0, 1)), [False, False, True, True]),
    (((0, 1), (0, 1)), [False, False, False, True]),
]


@pytest.mark.parametrize("word, constant", WIDENED_STARTS, ids=["aligned", "left", "right", "both"])
def test_ledger_reports_the_first_constant_window_in_widening_order(word, constant):
    p = example_rpca("random", c_size=2, r_size=3, seed=1)
    rule = convert(p)
    cfg = encode_tau_prime(rule.code, Finite(0, word, QUIESCENT_PAIR), gaps=[2])
    trajectory = run(rule, cfg, 8)
    a, b = verify._aligned_window(canonicalize(cfg))
    windows = [(a + da, b + db) for da, db in verify._WIDENINGS]
    steady = [
        len({row[1] for row in led.rows}) == 1 and len({row[2] for row in led.rows}) == 1
        for led in (mass_ledger(rule.code, trajectory, w) for w in windows)
    ]
    assert steady == constant
    ok, ledger = ledger_is_constant(rule.code, trajectory)
    assert ok and ledger.window == windows[constant.index(True)]
    codes = np.array([[c * p.r_size + r for c, r in word]])
    assert not verify._ledger_failures(p, rule, [2], codes, 8).any()


def test_mass_ledger_quiescent_trajectory():
    traj = run(XOR_RULE, encode_tau(CODE22, Finite(0, [], QUIESCENT_PAIR)), 3)
    ok, ledger = ledger_is_constant(CODE22, traj)
    assert ok
    # each background block carries the full complementary sums
    heavies = {row[1] for row in ledger.rows}
    assert len(heavies) == 1


def test_mass_ledger_cyclic_sums_whole_ring():
    traj = run(XOR_RULE, encode_tau(CODE22, Cyclic([(1, 0), (1, 1)])), 4)
    ok, ledger = ledger_is_constant(CODE22, traj)
    assert ok


def test_report_line_format():
    report = check_injective_cyclic(XOR_RULE, 2)
    line = format_report(report)
    assert line.startswith("property=inject domain=")
    assert "passed=true" in line
    assert line.rstrip().endswith(f"elapsed_ms={report.elapsed_ms}")


def test_report_line_carries_counterexample():
    report = check_number_conserving(zero_rule(), mode="exhaustive", max_support=2)
    line = format_report(report)
    assert "passed=false" in line
    assert "counterexample=" in line


def test_reports_reproducible_modulo_elapsed():
    a = check_simulation_correspondence(XOR, mode="sampled", max_support=3, steps=2, count=40, seed=5)
    b = check_simulation_correspondence(XOR, mode="sampled", max_support=3, steps=2, count=40, seed=5)
    assert (a.property, a.domain, a.passed, a.counterexample) == (
        b.property,
        b.domain,
        b.passed,
        b.counterexample,
    )
