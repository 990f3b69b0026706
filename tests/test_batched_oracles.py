"""The batched oracles against the per-start loops they replaced.

``reference_*``, in ``reference_oracles``, are the earlier
per-configuration implementations of ``simulate``, ``tauprime
--spacing``, ``tauprime --gaps`` and sampled ``conserve`` / ``inject``,
kept verbatim apart from taking the derived rule as an argument,
returning the report fields and stepping the derived rule with the
per-cell reference stepper.  Every batched report must equal them in
property, domain, verdict and counterexample.  The mass ledger, now
summed over numpy rows, is held to its per-cell version the same way.
"""

import dataclasses
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rncca.verify as verify
from rncca import engine
from rncca.convert import convert, encode_tau, encode_tau_prime
from rncca.engine import BiPeriodic, Cyclic, Finite, make_rule, window_growth
from rncca.rpca import QUIESCENT_PAIR, example_rpca, make_rpca
from reference_oracles import (
    fields,
    mutated,
    reached_mutation,
    reference_conserve_sampled,
    reference_inject_sampled,
    reference_ledger_is_constant,
    reference_mass_ledger,
    reference_pair_words,
    reference_simulate,
    reference_tauprime,
    reference_tauprime_gaps,
)
from reference_stepper import reference_step

XOR = example_rpca("xor")


@st.composite
def reversible_tables(draw, max_side=3):
    c_size = draw(st.integers(1, max_side))
    r_size = draw(st.integers(1, max_side))
    pairs = [(c, r) for c in range(c_size) for r in range(r_size)]
    images = draw(st.permutations(pairs[1:]))
    return make_rpca(c_size, r_size, {(0, 0): (0, 0), **dict(zip(pairs[1:], images))})


@st.composite
def bounds(draw, p, max_exhaustive_starts, max_steps):
    """Oracle keyword bounds: exhaustive with at most the given number of
    starts, or sampled (lengths up to the support, many shorter)."""
    steps = draw(st.integers(1, max_steps))
    if draw(st.booleans()):
        support = 1
        while (p.c_size * p.r_size) ** (support + 1) <= max_exhaustive_starts and support < 4:
            support += 1
        return dict(mode="exhaustive", max_support=draw(st.integers(1, support)), steps=steps)
    return dict(
        mode="sampled",
        max_support=draw(st.integers(1, 6)),
        steps=steps,
        count=draw(st.integers(1, 30)),
        seed=draw(st.integers(0, 2**31)),
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_simulate_matches_reference(data):
    p = data.draw(reversible_tables())
    kwargs = data.draw(bounds(p, 100, 3))
    assert fields(verify.check_simulation_correspondence(p, **kwargs)) == reference_simulate(
        p, convert(p), **kwargs
    )


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([3, 4]))
def test_tauprime_spacing_matches_reference(data, k):
    p = data.draw(reversible_tables())
    kwargs = data.draw(bounds(p, 20, 2))
    report = verify.check_tau_prime_correspondence(p, k=k, **kwargs)
    assert fields(report) == reference_tauprime(p, convert(p), k, **kwargs)


def test_wrong_derived_rule_reports_match(monkeypatch):
    # The derived rule of another table, as in
    # test_verify.test_simulate_catches_wrong_derived_rule.
    monkeypatch.setattr(verify, "convert", lambda p: convert(XOR))
    swap = example_rpca("swap")
    for kwargs in (
        dict(mode="exhaustive", max_support=2, steps=2),
        dict(mode="exhaustive", max_support=3, steps=3),
        dict(mode="sampled", max_support=5, steps=3, count=20, seed=4),
    ):
        report = verify.check_simulation_correspondence(swap, **kwargs)
        assert not report.passed
        assert fields(report) == reference_simulate(swap, convert(XOR), **kwargs)
    for k in (3, 4):
        kwargs = dict(mode="exhaustive", max_support=2, steps=2)
        report = verify.check_tau_prime_correspondence(swap, k=k, **kwargs)
        assert not report.passed
        assert fields(report) == reference_tauprime(swap, convert(XOR), k, **kwargs)


def cellwise(images):
    """The |C| x 1 table that maps each pair (c, 0) to (images[c], 0)."""
    return make_rpca(len(images), 1, {(c, 0): (image, 0) for c, image in enumerate(images)})


@pytest.mark.parametrize(
    "source, derived_from, kwargs, expected",
    [
        # Swapping c = 1 and 2 undoes itself: the derived rule of the
        # swap tracks the identity at period 6, never at 3.
        (
            example_rpca("identity", 3, 1),
            cellwise((0, 2, 1)),
            dict(max_support=2, steps=2),
            (
                "exhaustive pairs=3x1 k=3 support<=2 steps=2 period=6",
                verify.Counterexample(
                    input="period search over 1..12",
                    expected="simulation period 3",
                    actual="smallest working period 6",
                ),
            ),
        ),
        # The start (1, 0) leaves only period 9, which misses (2, 0); k = 3
        # steps match (2, 0), so the report names no step t.
        (
            cellwise((0, 1, 3, 2)),
            cellwise((0, 2, 3, 1)),
            dict(max_support=1, steps=1),
            (
                "exhaustive pairs=4x1 k=3 support<=1 steps=1 period=None",
                verify.Counterexample(
                    input="finite q#=(0,0) @0: (2,0)",
                    expected="one period q <= 12 working for every start",
                    actual="no candidate period survives this start",
                ),
            ),
        ),
    ],
)
def test_tauprime_period_verdicts_match_reference(monkeypatch, source, derived_from, kwargs, expected):
    rule = convert(derived_from)
    monkeypatch.setattr(verify, "convert", lambda p: rule)
    report = verify.check_tau_prime_correspondence(source, k=3, mode="exhaustive", **kwargs)
    assert (report.domain, report.counterexample) == expected
    assert fields(report) == reference_tauprime(source, rule, 3, mode="exhaustive", **kwargs)


@pytest.mark.parametrize("name, sizes", [("xor", (2, 2)), ("random", (2, 3))])
def test_mutated_table_reports_match(monkeypatch, name, sizes):
    # The seeded draws include failures at a later start and at a later t.
    p = example_rpca(name, *sizes, seed=5)
    rng = random.Random(11)
    failures = []
    for _ in range(30):
        rule = reached_mutation(p, convert(p), rng, 2, 3)
        monkeypatch.setattr(verify, "convert", lambda p, rule=rule: rule)
        kwargs = dict(mode="exhaustive", max_support=2, steps=3)
        report = verify.check_simulation_correspondence(p, **kwargs)
        assert fields(report) == reference_simulate(p, rule, **kwargs)
        if not report.passed:
            failures.append(report.counterexample)
        rule = reached_mutation(p, convert(p), rng, 2, 2, k=3)
        monkeypatch.setattr(verify, "convert", lambda p, rule=rule: rule)
        kwargs = dict(mode="exhaustive", max_support=2, steps=2)
        report = verify.check_tau_prime_correspondence(p, k=3, **kwargs)
        assert fields(report) == reference_tauprime(p, rule, 3, **kwargs)
    assert any(not c.expected.startswith("t=1 ") for c in failures)
    assert any(c.input != "finite q#=(0,0) @0:" for c in failures)


@pytest.mark.parametrize("row_cells", [1, 40, 300])
def test_chunked_sweeps_match_reference(monkeypatch, row_cells):
    # Down to one start per chunk: period narrowing, first failures and
    # the sampled collision search all cross chunk boundaries.
    monkeypatch.setattr(verify, "_ROW_CELLS", row_cells)
    p = example_rpca("random", 2, 3, seed=2)
    kwargs = dict(mode="exhaustive", max_support=2, steps=2)
    assert fields(verify.check_simulation_correspondence(p, **kwargs)) == reference_simulate(
        p, convert(p), **kwargs
    )
    kwargs = dict(mode="sampled", max_support=4, steps=2, count=12, seed=9)
    assert fields(verify.check_tau_prime_correspondence(p, k=3, **kwargs)) == reference_tauprime(
        p, convert(p), 3, **kwargs
    )
    rule = reached_mutation(p, convert(p), random.Random(3), 2, 3)
    monkeypatch.setattr(verify, "convert", lambda p: rule)
    kwargs = dict(mode="exhaustive", max_support=2, steps=3)
    assert fields(verify.check_simulation_correspondence(p, **kwargs)) == reference_simulate(
        p, rule, **kwargs
    )
    # Finite words step as rings with a quiescent margin: one-sided,
    # gapped and one-cell neighborhoods pin that margin, on the lossy
    # max and on a shift with one entry changed.
    verdicts = set()
    for nb in ((-1, 0), (1, 2), (0, 3), (-3, -1), (0,)):
        shift = {key: key[-1] for key in itertools.product(range(3), repeat=len(nb))}
        shift[(2,) * len(nb)] = 1
        for rule in (make_rule(3, nb, lambda *cells: max(cells), 0), make_rule(3, nb, shift, 0)):
            for seed in range(3):
                report = verify.check_number_conserving(rule, mode="sampled", max_support=4, count=40, seed=seed)
                assert fields(report) == reference_conserve_sampled(rule, max_support=4, count=40, seed=seed)
                verdicts.add(report.passed)
                report = verify.check_injective_cyclic(rule, 3, mode="sampled", count=40, seed=seed)
                assert fields(report) == reference_inject_sampled(rule, 3, count=40, seed=seed)
                verdicts.add(report.passed)
    assert verdicts == {True, False}


def test_sampled_inject_finds_the_first_clash_across_chunks(monkeypatch):
    # Chunks of a few words, so that a clash and the word that first had
    # its image lie chunks apart.  Each report must equal the one-dict
    # reference, and the sweep must stop at the clash's chunk.
    chunks = []
    image_cells = verify._image_cells

    def counted(rule, cols):
        chunks.append(len(cols[0]))
        return image_cells(rule, cols)

    monkeypatch.setattr(verify, "_image_cells", counted)

    def sampled(rule, n, count, seed, row_cells):
        monkeypatch.setattr(verify, "_ROW_CELLS", row_cells)
        chunks.clear()
        report = verify.check_injective_cyclic(rule, n, mode="sampled", count=count, seed=seed)
        assert fields(report) == reference_inject_sampled(rule, n, count=count, seed=seed)
        return report, verify._Draws(seed).below(rule.state_count, count * n).reshape(-1, n).tolist()

    # One changed entry of the xor table: with seed 1 the first clash is
    # draw 2,556 (its image was first drawn at 331), in chunk 256 of 10
    # words each.
    rule = mutated(convert(XOR), (0, 3, 6, 3), 1)
    report, words = sampled(rule, 4, 3000, 1, 40)
    assert not report.passed
    assert len(chunks) == 2556 // 10 + 1
    assert words[331] != words[2556]
    # Draws 0 and 2, in chunk 1, and 12 are one word, which owns its
    # image; draw 15, a different word with that image, is the clash.
    merge = make_rule(6, (0,), lambda a: 4 if a == 5 else a, 0)
    report, words = sampled(merge, 2, 100, 20, 8)
    assert [words[i] for i in (0, 2, 12, 15)] == [[5, 5], [5, 5], [5, 5], [5, 4]]
    assert not report.passed and len(chunks) == 4
    # The same word drawn again is no clash: the derived rule is injective.
    report, words = sampled(convert(XOR), 2, 400, 0, 8)
    assert report.passed and len(chunks) == 100
    assert len(set(map(tuple, words))) < len(words)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_padding_keeps_a_block_beyond_cone_and_source(k):
    # The invariant that makes row equality exact: after T derived steps
    # the row still reaches one whole block of k cells past the light
    # cone of the start (cells 0..k*length-1) and past the encoded source
    # after ``steps`` steps, on both sides.
    rule = convert(XOR)
    wl, wr = window_growth(rule.neighborhood)
    lo, hi = min(rule.neighborhood), max(rule.neighborhood)
    for steps in range(1, 5):
        for q in range(1, 4 * k + 1):
            horizon = q * steps
            left, right = verify._padding(rule, k, horizon, steps)
            for length in (1, 4):
                for T in range(horizon + 1):
                    first = -k * left - lo * T
                    last = k * (length + right) - 1 - hi * T
                    assert first + k - 1 < min(-wl * T, 0)
                    assert last - k + 1 > max(k * length - 1 + wr * T, k * (length + steps) - 1)


@st.composite
def gap_bounds(draw, p, max_exhaustive_starts):
    """A gap list for 1-5 blocks and ``tauprime --gaps`` keyword bounds:
    exhaustive when it has at most the given number of starts, or
    sampled."""
    gaps = draw(st.lists(st.integers(1, 4), max_size=4))
    steps = draw(st.integers(1, 12))
    if (p.c_size * p.r_size) ** (len(gaps) + 1) <= max_exhaustive_starts and draw(st.booleans()):
        return gaps, dict(mode="exhaustive", steps=steps)
    return gaps, dict(mode="sampled", steps=steps, count=draw(st.integers(1, 20)), seed=draw(st.integers(0, 2**31)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tauprime_gaps_matches_reference(data):
    p = data.draw(reversible_tables())
    gaps, kwargs = data.draw(gap_bounds(p, 30))
    report = verify.check_tau_prime_correspondence(p, gaps=gaps, **kwargs)
    assert fields(report) == reference_tauprime_gaps(p, convert(p), gaps, **kwargs)


@pytest.mark.parametrize("name, sizes", [("identity", (1, 1)), ("xor", (2, 2)), ("random", (1, 3))])
@pytest.mark.parametrize("gaps", [[], [1], [2], [1, 4], [3, 2], [2, 1, 3]])
def test_gaps_sweep_verdict_per_start_matches_reference(name, sizes, gaps):
    # Every start, not only the first failing one: all-(0,0) words and
    # words ending in (0,0), whose canonical center is trimmed, or empty
    # when every block lands on a background block (gaps of 1 and 4);
    # under the derived rule and under mutated ones.
    p = example_rpca(name, *sizes, seed=3)
    rule = convert(p)
    rng = random.Random(len(gaps) + sum(sizes))
    words = list(reference_pair_words(p, "exhaustive", len(gaps) + 1, None, None))
    codes = next(verify._start_rows(p, "exhaustive", len(gaps) + 1, None, None, len(words)))
    assert words[0] == ((0, 0),) * (len(gaps) + 1)
    verdicts = set()
    for trial in range(6):
        test_rule = rule if trial == 0 else reached_mutation(p, rule, rng, len(gaps) + 1, 6, gaps=gaps)
        steps = 6 if trial % 2 else 3
        expected = []
        for word in words:
            cfg = encode_tau_prime(rule.code, Finite(0, word, QUIESCENT_PAIR), gaps=gaps)
            trajectory = [cfg]
            for _ in range(steps):
                trajectory.append(reference_step(test_rule, trajectory[-1]))
            expected.append(not reference_ledger_is_constant(rule.code, trajectory)[0])
        bad = verify._ledger_failures(p, test_rule, gaps, codes, steps)
        assert bad.tolist() == expected
        verdicts.update(expected)
    if name != "identity":
        assert verdicts == {True, False}


@pytest.mark.parametrize("name, sizes", [("xor", (2, 2)), ("random", (2, 3))])
def test_mutated_table_gaps_reports_match(monkeypatch, name, sizes):
    p = example_rpca(name, *sizes, seed=5)
    rng = random.Random(13)
    failures = []
    for trial in range(20):
        gaps = [1 + trial % 3, 1 + trial % 4]
        rule = reached_mutation(p, convert(p), rng, 3, 5, gaps=gaps)
        monkeypatch.setattr(verify, "convert", lambda p, rule=rule: rule)
        for kwargs in (dict(mode="exhaustive", steps=5), dict(mode="sampled", steps=5, count=15, seed=trial)):
            report = verify.check_tau_prime_correspondence(p, gaps=gaps, **kwargs)
            assert fields(report) == reference_tauprime_gaps(p, rule, gaps, **kwargs)
            if not report.passed:
                failures.append(report.counterexample)
    # Failures at many different starts, not only at the first.
    assert len({c.input for c in failures}) >= 10


@pytest.mark.parametrize("row_cells", [1, 40, 300])
def test_chunked_gaps_sweep_matches_reference(monkeypatch, row_cells):
    # Down to one start per chunk: the first failure and the confirmed
    # last start cross chunk boundaries.
    monkeypatch.setattr(verify, "_ROW_CELLS", row_cells)
    p = example_rpca("random", 2, 3, seed=2)
    for gaps, kwargs in (
        ([1, 3], dict(mode="exhaustive", steps=4)),
        ([2], dict(mode="sampled", steps=6, count=12, seed=9)),
    ):
        report = verify.check_tau_prime_correspondence(p, gaps=gaps, **kwargs)
        assert report.passed
        assert fields(report) == reference_tauprime_gaps(p, convert(p), gaps, **kwargs)
    rng = random.Random(7)
    verdicts = set()
    for _ in range(6):
        rule = reached_mutation(p, convert(p), rng, 3, 4, gaps=[1, 3])
        monkeypatch.setattr(verify, "convert", lambda p, rule=rule: rule)
        kwargs = dict(mode="exhaustive", steps=4)
        report = verify.check_tau_prime_correspondence(p, gaps=[1, 3], **kwargs)
        assert fields(report) == reference_tauprime_gaps(p, rule, [1, 3], **kwargs)
        verdicts.add(report.passed)
    assert False in verdicts


def wrong_on_matrices(rule):
    """``rule`` with a batch evaluator that is right on the single rows
    ``engine.run`` steps but wrong on the sweeps' row matrices."""
    s = rule.state_count

    def local_batch(cols):
        out = rule.local_batch(cols)
        return out if out.ndim == 1 else (out + 1) % s

    return dataclasses.replace(rule, local_batch=local_batch)


def test_gaps_sweep_fault_raises_confirmation_error(monkeypatch):
    # The confirmed start gets another verdict from the public functions,
    # and the oracle refuses to report.
    faulty = wrong_on_matrices(convert(XOR))
    monkeypatch.setattr(verify, "convert", lambda p: faulty)
    with pytest.raises(RuntimeError, match="batched sweep found a constant ledger False"):
        verify.check_tau_prime_correspondence(XOR, gaps=[1, 3], mode="exhaustive", steps=3)


@pytest.mark.parametrize(
    "check",
    [
        lambda p: verify.check_simulation_correspondence(p, mode="exhaustive", max_support=2, steps=2),
        lambda p: verify.check_tau_prime_correspondence(p, k=2, mode="exhaustive", max_support=2, steps=2),
        lambda p: verify.check_tau_prime_correspondence(p, k=3, mode="exhaustive", max_support=2, steps=1),
    ],
    ids=["simulate", "tauprime-k2", "tauprime-k3"],
)
def test_spacing_sweep_fault_raises_confirmation_error(monkeypatch, check):
    # As for --gaps: the spacing sweep fails every start on its row
    # matrices, the public functions pass the start it ends on, and the
    # oracle refuses to report.
    faulty = wrong_on_matrices(convert(XOR))
    monkeypatch.setattr(verify, "convert", lambda p: faulty)
    with pytest.raises(RuntimeError, match=r"batched sweep found periods \[\]"):
        check(XOR)


def test_tauprime_spacing_2_is_one_sweep(monkeypatch):
    # k = 2 converts the rule once and sweeps it itself, with simulate's
    # domain after its own prefix.
    converted = []

    def counting_convert(p):
        converted.append(p)
        return convert(p)

    def no_simulate(*args, **kwargs):
        raise AssertionError("k = 2 went through check_simulation_correspondence")

    monkeypatch.setattr(verify, "convert", counting_convert)
    monkeypatch.setattr(verify, "check_simulation_correspondence", no_simulate)
    kwargs = dict(mode="sampled", max_support=3, steps=2, count=10, seed=5)
    report = verify.check_tau_prime_correspondence(XOR, k=2, **kwargs)
    assert len(converted) == 1
    assert report.passed
    assert report.domain == (
        "k=2 is the plain block encoding; delegated: sampled pairs=2x2 support<=3 steps=2 count=10 seed=5"
    )


@st.composite
def small_rules(draw):
    """A random integer-state rule as a table and as a callable."""
    s = draw(st.integers(1, 3))
    nb = draw(st.sampled_from([(-1, 0), (0, 1), (-1, 0, 1), (1, 2)]))
    keys = list(itertools.product(range(s), repeat=len(nb)))
    values = draw(st.lists(st.integers(0, s - 1), min_size=len(keys), max_size=len(keys)))
    table = dict(zip(keys, values))
    table[(0,) * len(nb)] = 0
    return make_rule(s, nb, table, 0), make_rule(s, nb, lambda *cells: table[cells], 0)


def rule_forms(s, nb, local):
    """``local`` as a table and as a callable, as ``small_rules`` draws them."""
    table = {key: local(*key) for key in itertools.product(range(s), repeat=len(nb))}
    return make_rule(s, nb, table, 0), make_rule(s, nb, lambda *cells: table[cells], 0)


@settings(max_examples=40, deadline=None)
@given(small_rules(), st.integers(0, 2**31), st.integers(1, 5), st.integers(1, 60))
# Counts whose draws span several blocks of generator outputs.  With
# seed 3, conserve first fails at draw 3635, about 17,000 outputs in,
# and inject passes all 5000 draws.
@example(rule_forms(255, (0, 1), lambda a, b: 0 if a == b == 254 else a), 3, 5, 5000)
# With seed 0, inject first finds a collision at draw 1670, about 13,000
# outputs in.
@example(rule_forms(16, (0, 1), lambda a, b: 0 if a == b == 15 else a), 0, 4, 5000)
# A shift passes both, after about 60,000 and 100,000 outputs.
@example(rule_forms(2, (-1, 0), lambda a, b: a), 7, 17, 3000)
def test_sampled_conserve_and_inject_match_reference(rules, seed, length, count):
    derived = convert(example_rpca("random", 2, 2, seed=seed % 7))
    for rule in (*rules, derived):
        report = verify.check_number_conserving(rule, mode="sampled", max_support=length, count=count, seed=seed)
        assert fields(report) == reference_conserve_sampled(rule, max_support=length, count=count, seed=seed)
        report = verify.check_injective_cyclic(rule, length, mode="sampled", count=count, seed=seed)
        assert fields(report) == reference_inject_sampled(rule, length, count=count, seed=seed)


@settings(max_examples=40, deadline=None)
@given(small_rules(), st.integers(1, 4))
def test_table_and_callable_forms_report_alike(rules, length):
    table_form, callable_form = rules
    assert callable_form.local_batch is None
    for check in (
        lambda rule: verify.check_number_conserving(rule, mode="exhaustive", max_support=length),
        lambda rule: verify.check_injective_cyclic(rule, length),
    ):
        assert fields(check(table_form)) == fields(check(callable_form))


def test_callable_inject_reports_smallest_colliding_image():
    # Both forms report the collision with the smallest image key; the
    # callable form once reported the first colliding word instead
    # ("cyclic: 0,0,1 and cyclic: 0,1,1").
    def local(a, b):
        return a if b == 0 else 0

    table = {key: local(*key) for key in itertools.product(range(3), repeat=2)}
    for rule in (make_rule(3, (-1, 0), table, 0), make_rule(3, (-1, 0), local, 0)):
        report = verify.check_injective_cyclic(rule, 3)
        assert report.counterexample.input == "cyclic: 0,0,0 and cyclic: 1,1,1"
        assert report.counterexample.actual == "both step to cyclic: 0,0,0"


@pytest.mark.parametrize("name, sizes", [("xor", (2, 2)), ("random", (2, 3)), ("random", (3, 4))])
def test_mass_ledger_matches_reference(name, sizes):
    # Finite, bi-periodic (tau and tau' encodings of finite sources) and
    # cyclic trajectories, under the derived rule and under mutated ones,
    # with the default window and explicit ones that are wider, narrower,
    # empty (reversed, some by less than the step count), or away from
    # the support.
    p = example_rpca(name, *sizes, seed=4)
    rule = convert(p)
    code = rule.code
    s = rule.state_count
    rng = random.Random(sum(sizes))
    verdicts = set()
    shapes = set()
    for trial in range(12):
        test_rule = rule if trial % 3 == 0 else reached_mutation(p, rule, rng, 2, 4)
        word = [(rng.randrange(p.c_size), rng.randrange(p.r_size)) for _ in range(rng.randint(1, 4))]
        starts = [
            encode_tau(code, Finite(0, word, QUIESCENT_PAIR)),
            encode_tau_prime(code, Finite(0, word, QUIESCENT_PAIR), gaps=[rng.randint(1, 3) for _ in word[1:]]),
            encode_tau(code, Cyclic(word)),
            Finite(rng.randint(-3, 3), [rng.randrange(s) for _ in range(rng.randint(0, 6))], 0),
        ]
        for start in starts:
            trajectory = engine.run(test_rule, start, 8)
            shapes.update(type(cfg) for cfg in trajectory.configs)
            a, b = verify._aligned_window(trajectory.configs[0])
            windows = (None, (a - 3, b + 2), (a + 1, b - 1), (b, a), (a + 2, a), (a - 9, a - 5), (b + 4, b + 4))
            for window in windows:
                expected = reference_mass_ledger(code, trajectory, window)
                assert verify.mass_ledger(code, trajectory, window) == expected
                assert verify.mass_ledger(code, list(trajectory.configs), window) == expected
                result = verify.ledger_is_constant(code, trajectory, window)
                assert result == reference_ledger_is_constant(code, trajectory, window)
                verdicts.add(result[0])
    assert verdicts == {True, False}
    assert shapes == {Finite, BiPeriodic, Cyclic}
