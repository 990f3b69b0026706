"""Exhaustive ``conserve`` / ``inject`` over digit grids against the
word-matrix sweeps they replaced.

``reference_conserve`` and ``reference_inject`` in ``reference_oracles``
are the earlier matrix-path implementations: every word of a chunk as
one row of an int64 matrix, images stacked column by column, image keys
by Horner's rule, and the collision rescan.  They are
kept verbatim apart from taking the rule as an argument, returning the
report fields and using the ``reference_`` prefix.  Every grid report
must equal them in property, domain, verdict and counterexample.
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rncca.verify as verify
from rncca import engine
from rncca.cli import main
from rncca.convert import convert
from rncca.engine import make_rule
from rncca.rpca import example_rpca, format_rpca
from reference_oracles import fields, mutated, reached_mutation, reference_conserve, reference_inject


def assert_sweeps_match(rule, lengths):
    for length in lengths:
        report = verify.check_number_conserving(rule, mode="exhaustive", max_support=length)
        assert fields(report) == reference_conserve(rule, length)
        report = verify.check_injective_cyclic(rule, length)
        assert fields(report) == reference_inject(rule, length)


@st.composite
def random_rules(draw):
    """A random integer-state rule, as a table and as a callable: a shift
    (number-conserving and injective) with some entries overwritten."""
    s = draw(st.integers(1, 5))
    # One-sided, gapped and one-cell neighborhoods too: a finite word steps
    # as a ring with a quiescent margin of max(nb) - min(nb) cells.
    nb = draw(st.sampled_from([
        (-1,), (0,), (0, 1), (-1, 0), (-1, 0, 1), (1, 2), (0, 3), (-3, -1), (-2, 0, 2), (-2, -1, 0, 1),
    ]))
    keys = list(itertools.product(range(s), repeat=len(nb)))
    shift = draw(st.integers(0, len(nb) - 1))
    table = {key: key[shift] for key in keys}
    for key in draw(st.lists(st.sampled_from(keys), max_size=3)):
        table[key] = draw(st.integers(0, s - 1))
    table[(0,) * len(nb)] = 0
    return make_rule(s, nb, table, 0), make_rule(s, nb, lambda *cells: table[cells], 0)


@settings(max_examples=150, deadline=None)
@given(random_rules(), st.integers(1, 4))
def test_random_rules_match_reference(rules, length):
    table_form, callable_form = rules
    assert callable_form.local_batch is None
    lengths = [n for n in range(1, length + 1) if table_form.state_count**n <= 1024]
    for rule in rules:
        assert_sweeps_match(rule, lengths)


def test_random_rules_cover_passes_and_failures():
    # The reference comparison above is only meaningful if both verdicts
    # occur; check it on a fixed spread of rules.
    verdicts = set()
    rng = random.Random(5)
    for _ in range(40):
        s, nb = rng.randint(2, 4), rng.choice([(-1,), (0, 1), (-1, 0, 1)])
        keys = list(itertools.product(range(s), repeat=len(nb)))
        table = {key: key[0] for key in keys}
        if rng.random() < 0.5:
            table[rng.choice(keys[1:])] = rng.randrange(s)
        rule = make_rule(s, nb, table, 0)
        for length in (1, 2, 3):
            report = verify.check_number_conserving(rule, mode="exhaustive", max_support=length)
            assert fields(report) == reference_conserve(rule, length)
            verdicts.add(("conserve", report.passed))
            report = verify.check_injective_cyclic(rule, length)
            assert fields(report) == reference_inject(rule, length)
            verdicts.add(("inject", report.passed))
    assert verdicts == {(name, passed) for name in ("conserve", "inject") for passed in (True, False)}


@pytest.mark.parametrize("seed", range(12))
def test_mutated_derived_rules_match_reference(seed):
    # One entry reached by a random cyclic word of the sweep, changed.
    rng = random.Random(seed)
    rule = convert(example_rpca("xor") if seed % 2 else example_rpca("random", 1, 2, seed=seed))
    s = rule.state_count
    two_r = rule.code.light_modulus
    word = [rng.randrange(s) for _ in range(3)]
    x = rng.randrange(3)
    hood = [word[(x + d) % 3] for d in rule.neighborhood]
    key = (hood[0] % two_r, hood[1], hood[2], hood[3] // two_r)
    bad = mutated(rule, key, (rule.local(*hood) + rng.randrange(1, s)) % s)
    report = verify.check_number_conserving(bad, max_support=3)
    assert not report.passed
    assert fields(report) == reference_conserve(bad, 3)
    for n in (1, 2, 3):
        assert fields(verify.check_injective_cyclic(bad, n)) == reference_inject(bad, n)


@pytest.mark.parametrize("chunk", ["1", "7", "s", "default"])
@pytest.mark.parametrize("seed", range(4))
def test_failing_mutants_match_reference_over_chunks(monkeypatch, chunk, seed):
    # Derived rules with one reached entry changed, and a .ncca-style
    # table and callable with one entry changed, over chunks that split
    # the lead digits (1, 7), that hold one lead digit (s) or everything.
    rng = random.Random(seed)
    p = example_rpca("random", 1, 1, seed=seed) if seed % 2 else example_rpca("random", 1, 2, seed=seed)
    derived = convert(p)
    rules = [reached_mutation(p, derived, rng, 3, 2)]
    s = 4
    keys = list(itertools.product(range(s), repeat=4))
    table = {key: key[1] for key in keys}
    table[rng.choice(keys[1:])] = rng.randrange(s)
    table[(0, 0, 0, 0)] = 0
    rules.append(make_rule(s, (-2, -1, 0, 1), table, 0))
    rules.append(make_rule(s, (-2, -1, 0, 1), lambda *cells: table[cells], 0))
    verdicts = []
    for rule in rules:
        s = rule.state_count
        if chunk != "default":
            monkeypatch.setattr(verify, "_CHUNK", {"1": 1, "7": 7, "s": s}[chunk])
        lengths = [n for n in (1, 2, 3, 4) if s**n <= 4096]
        for length in lengths:
            report = verify.check_number_conserving(rule, max_support=length)
            assert fields(report) == reference_conserve(rule, length)
            verdicts.append(report.passed)
            report = verify.check_injective_cyclic(rule, length)
            assert fields(report) == reference_inject(rule, length)
            verdicts.append(report.passed)
    assert not all(verdicts)


def test_conserve_changes_past_a_byte_are_exact():
    # 200 states take two bytes for image cell 0 less cell 0, and changes
    # of +149 and -149 more than one signed byte.
    for changed, actual in (({1: 150, 150: 1}, "cell sum 150"), ({150: 1}, "cell sum 1")):
        rule = make_rule(200, (0,), {(x,): changed.get(x, x) for x in range(200)}, 0)
        report = verify.check_number_conserving(rule, max_support=2)
        assert fields(report) == reference_conserve(rule, 2)
        assert report.counterexample.actual == actual


@pytest.mark.parametrize("chunk", ["1", "s", "7"])
def test_lead_digit_splits_match_reference(monkeypatch, chunk):
    rng = random.Random(11)
    rules = [convert(example_rpca("random", 1, 2, seed=3))]
    for s, nb in ((2, (-1, 0, 1)), (3, (0, 1)), (4, (-2, -1, 0, 1)), (5, (-1,))):
        keys = list(itertools.product(range(s), repeat=len(nb)))
        for changed in (0, 1, 2):
            table = {key: key[-1] for key in keys}
            for key in rng.sample(keys[1:], changed):
                table[key] = rng.randrange(s)
            rules.append(make_rule(s, nb, table, 0))
            rules.append(make_rule(s, nb, lambda *cells, table=table: table[cells], 0))
    for rule in rules:
        s = rule.state_count
        monkeypatch.setattr(verify, "_CHUNK", {"1": 1, "s": s, "7": 7}[chunk])
        assert_sweeps_match(rule, [n for n in (1, 2, 3, 4) if s**n <= 1024])


# The coverage sweep over several chunks.  For 6 states and cyclic words
# of length 3, a chunk of 72 words holds the words whose first cell is in
# {0, 1}, {2, 3} or {4, 5}.  ``constant_merge(a, b)`` is the identity
# except on the neighborhood (a, a, a), which only the constant word a^3
# has: its one collision is a^3 against b^3.
#
# ``_grids`` runs once for image cell 0 of every word (the rule's one
# evaluation, over the three positions that cell reads), then once per
# key pass over the rotations of that cell: the coverage pass, which
# marks every chunk before the flags are counted, the least-collision
# pass and the counterexample pass.


def constant_merge(a, b):
    def local(left, cell, right):
        return b if left == cell == right == a else cell

    table = {key: local(*key) for key in itertools.product(range(6), repeat=3)}
    return make_rule(6, (-1, 0, 1), table, 0), make_rule(6, (-1, 0, 1), local, 0)


def recorded_grids(monkeypatch):
    """Record, per ``_grids`` call, the first word of every chunk it yields."""
    calls = []
    grids = verify._grids

    def recording(s, length, chunk):
        firsts = []
        calls.append(firsts)
        for first, cols in grids(s, length, chunk):
            firsts.append(first)
            yield first, cols

    monkeypatch.setattr(verify, "_grids", recording)
    return calls


@pytest.mark.parametrize(
    "a, b",
    [
        (1, 0),  # a^3 and b^3 both in the first chunk
        (2, 1),  # in the first and second chunks only
        (4, 5),  # both in the last chunk
        (5, 4),
    ],
)
def test_coverage_sweep_marks_every_chunk_before_the_search(monkeypatch, a, b):
    monkeypatch.setattr(verify, "_CHUNK", 72)
    for rule in constant_merge(a, b):
        expected = reference_inject(rule, 3)
        calls = recorded_grids(monkeypatch)
        hoods = []
        counted = dataclasses.replace(rule, local=lambda *hood: hoods.append(hood) or rule.local(*hood))
        report = verify.check_injective_cyclic(counted, 3)
        assert fields(report) == expected
        assert report.counterexample.input == (
            f"cyclic: {','.join([str(min(a, b))] * 3)} and cyclic: {','.join([str(max(a, b))] * 3)}"
        )
        # Image cell 0 of all 216 words is the one evaluation: the callable
        # sees each neighborhood once, and the table is looked up in one pass.
        assert calls[0] == [0, 72, 144]
        assert sorted(hoods) == ([] if rule.local_batch else list(itertools.product(range(6), repeat=3)))
        # The coverage key pass marks every chunk, wherever the collision
        # is; only then is the least collision searched.
        assert calls[1] == [0, 72, 144]
        assert calls[2] == [0, 72, 144]


@pytest.mark.parametrize("chunk", [1, 7])
def test_coverage_sweep_counts_the_flags_once(monkeypatch, chunk):
    # Over chunks of 1 and 7 words, the coverage pass marks every chunk
    # and counts the 216 flags once, after the last; the identity
    # constant_merge(0, 0) passes with no further pass.
    monkeypatch.setattr(verify, "_CHUNK", chunk)
    firsts = [first for first, _ in verify._grids(6, 3, chunk)]
    counts = []
    count_nonzero = np.count_nonzero

    def counting(a, *args, **kwargs):
        if getattr(a, "dtype", None) == bool and a.size == 216:
            counts.append(a.size)
        return count_nonzero(a, *args, **kwargs)

    monkeypatch.setattr(verify.np, "count_nonzero", counting)
    for a, b in ((1, 0), (2, 1), (4, 5), (5, 4), (0, 0)):
        for rule in constant_merge(a, b):
            calls = recorded_grids(monkeypatch)
            counts.clear()
            report = verify.check_injective_cyclic(rule, 3)
            assert fields(report) == reference_inject(rule, 3)
            assert report.passed == (a == b)
            # calls[1] is the coverage key pass; only a failing rule has
            # a least-collision pass and a counterexample pass after it.
            assert calls[1] == firsts
            assert len(calls) == (2 if a == b else 4)
            assert counts == [216]


@pytest.mark.parametrize("chunk", [1, 256, 4095])
def test_coverage_sweep_of_derived_rules_over_chunks(monkeypatch, chunk):
    # 16**3 words in several chunks: the injective xor rule passes with
    # no search, and one mutated entry fails like the reference.
    monkeypatch.setattr(verify, "_CHUNK", chunk)
    rule = convert(example_rpca("xor"))
    calls = recorded_grids(monkeypatch)
    report = verify.check_injective_cyclic(rule, 3)
    assert report.passed and fields(report) == reference_inject(rule, 3)
    # Image cell 0 reads all three positions, so its pass visits the
    # chunks of the one key pass.
    assert len(calls) == 2 and calls[0] == calls[1]
    # The neighborhood (0, 5, 10, 0), its own reduced key, of the ring 10, 0, 5.
    hood = (0, 5, 10, 0)
    bad = mutated(rule, hood, (rule.local(*hood) + 1) % 16)
    report = verify.check_injective_cyclic(bad, 3)
    assert not report.passed and fields(report) == reference_inject(bad, 3)


@pytest.mark.parametrize("block", [1, 7, 100, 1 << 13])
def test_coverage_sweep_scatters_keys_in_blocks(monkeypatch, block):
    # Blocks that split each 256-key chunk unevenly, and one block that
    # holds a whole chunk: every key is marked once, so the injective xor
    # rule passes, and one mutated entry fails like the reference.
    monkeypatch.setattr(verify, "_CHUNK", 256)
    monkeypatch.setattr(verify, "_SCATTER_BLOCK", block)
    rule = convert(example_rpca("xor"))
    report = verify.check_injective_cyclic(rule, 3)
    assert report.passed and fields(report) == reference_inject(rule, 3)
    hood = (0, 5, 10, 0)
    bad = mutated(rule, hood, (rule.local(*hood) + 1) % 16)
    report = verify.check_injective_cyclic(bad, 3)
    assert not report.passed and fields(report) == reference_inject(bad, 3)


@pytest.mark.parametrize("bad", [-1, 3])
def test_callable_images_outside_the_states_are_refused(bad):
    # A negative image would wrap in the coverage flags and one >= s would
    # index past them; both are refused, naming the neighborhood.
    rule = make_rule(3, (-1, 0), lambda left, cell: bad if (left, cell) == (2, 1) else cell, 0)
    message = rf"local rule maps \(2, 1\) to {bad}, outside the states 0 \.\. 2"
    checks = [
        lambda: verify.check_injective_cyclic(rule, 2),
        lambda: verify.check_injective_cyclic(rule, 2, mode="sampled", count=50, seed=1),
        lambda: verify.check_number_conserving(rule, max_support=2),
        lambda: verify.check_number_conserving(rule, mode="sampled", max_support=2, count=50, seed=1),
    ]
    for check in checks:
        with pytest.raises(ValueError, match=message):
            check()


def test_cyclic_conserve_evaluates_cell_zero_of_every_word_before_checking(monkeypatch):
    # The window (1, 0, 1) adds one to the cyclic word 0,1; (2, 1, 2) maps
    # out of the states on the later word 1,2.  Neither window occurs in
    # a zero-padded word of length 2 or a cyclic word of length 1.  A
    # cyclic length evaluates image cell 0 of all its words before it
    # checks any, so the later word's image raises, although the sweep
    # of chunks of three words would reach 0,1 first.
    monkeypatch.setattr(verify, "_CHUNK", 3)
    images = {(1, 0, 1): 1, (2, 1, 2): 3}
    rule = make_rule(3, (-1, 0, 1), lambda *cells: images.get(cells, cells[1]), 0)
    with pytest.raises(ValueError, match=r"local rule maps \(2, 1, 2\) to 3, outside the states 0 \.\. 2"):
        verify.check_number_conserving(rule, max_support=2)
    del images[(2, 1, 2)]
    report = verify.check_number_conserving(rule, max_support=2)
    assert fields(report) == reference_conserve(rule, 2)
    assert report.counterexample.input == "cyclic: 0,1"


def test_grids_enumerate_words_in_lexicographic_order():
    for s, length, chunk in itertools.product((1, 2, 3, 5), (1, 2, 3, 4), (1, 2, 7, 30, 1 << 18)):
        words = []
        for first, cols in verify._grids(s, length, chunk):
            grid = np.stack(np.broadcast_arrays(*cols), axis=-1).reshape(-1, length)
            assert first == len(words)
            assert len(grid) <= max(chunk, 1)
            words += [tuple(row) for row in grid.tolist()]
        assert words == list(itertools.product(range(s), repeat=length))
        assert all(verify._digits(i, s, length) == word for i, word in enumerate(words))


def test_grid_chunks_never_cross_a_run_of_lead_rows():
    # ``_cyclic_cells`` indexes every leading digit but the last with the
    # chunk's first word, so those digits are the same across a chunk.
    for s, length, chunk in itertools.product((2, 3, 4, 5), (2, 3, 4), (1, 2, 3, 7, 12, 30)):
        for _, cols in verify._grids(s, length, chunk):
            lead = length + 1 - cols[0].ndim
            assert all(np.all(col == col.flat[0]) for col in cols[: lead - 1])
            last = cols[lead - 1].ravel()
            assert np.array_equal(last, np.arange(last[0], last[0] + len(last)))


def test_xor_sweeps_match_reference_at_benchmark_sizes():
    rule = convert(example_rpca("xor"))
    assert fields(verify.check_number_conserving(rule, max_support=4)) == reference_conserve(rule, 4)
    assert fields(verify.check_injective_cyclic(rule, 4)) == reference_inject(rule, 4)


def test_conserve_refuses_over_budget():
    rule = convert(example_rpca("xor"))
    # 16**3 finite words plus 16 + 16**2 + 16**3 cyclic ones.
    words = 16**3 + 16 + 16**2 + 16**3
    report = verify.check_number_conserving(rule, max_support=3, budget=words)
    assert report.passed
    with pytest.raises(ValueError, match=f"would step {words} words, over the budget of {words - 1};"):
        verify.check_number_conserving(rule, max_support=3, budget=words - 1)
    with pytest.raises(ValueError, match="over the budget of 100000000;"):
        verify.check_number_conserving(rule, max_support=9)
    # Sampled mode has no budget to keep.
    assert verify.check_number_conserving(rule, mode="sampled", max_support=9, count=5, seed=1, budget=1).passed


XOR = example_rpca("xor")
# The exhaustive simulation sweeps, with the (|C||R|)**length starts that
# each sweeps: a xor start has |C||R| = 4 pairs per source cell.
SIMULATION_SWEEPS = {
    "simulate": lambda **kw: verify.check_simulation_correspondence(XOR, max_support=3, steps=2, **kw),
    "tauprime-k2": lambda **kw: verify.check_tau_prime_correspondence(XOR, k=2, max_support=3, steps=2, **kw),
    "tauprime-k3": lambda **kw: verify.check_tau_prime_correspondence(XOR, k=3, max_support=3, steps=1, **kw),
    "tauprime-gaps": lambda **kw: verify.check_tau_prime_correspondence(XOR, gaps=[1, 2], steps=2, **kw),
}


@pytest.mark.parametrize("sweep", SIMULATION_SWEEPS.values(), ids=SIMULATION_SWEEPS)
def test_simulation_sweeps_refuse_over_budget(sweep):
    # 4**3 starts: a budget of exactly that many runs, one fewer refuses.
    assert sweep(budget=64).passed
    with pytest.raises(ValueError) as err:
        sweep(budget=63)
    assert str(err.value) == (
        "exhaustive sweep would step 64 words, over the budget of 63; use sampled mode or raise the budget"
    )
    # Sampled mode has no budget to keep.
    assert sweep(mode="sampled", count=5, seed=1, budget=1).passed


@pytest.mark.parametrize("sweep", SIMULATION_SWEEPS.values(), ids=SIMULATION_SWEEPS)
def test_simulation_sweeps_keep_the_default_budget(sweep, monkeypatch):
    # No budget means DEFAULT_BUDGET, read when the oracle is called.
    monkeypatch.setattr(verify, "DEFAULT_BUDGET", 63)
    with pytest.raises(ValueError, match="would step 64 words, over the budget of 63;"):
        sweep()
    monkeypatch.setattr(verify, "DEFAULT_BUDGET", 64)
    assert sweep().passed


def test_cli_conserve_refuses_over_budget(tmp_path, capsys, monkeypatch):
    path = tmp_path / "xor.rpca"
    path.write_text(format_rpca(example_rpca("xor")))
    assert main(["verify", str(path), "conserve", "--support", "9"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "over the budget of 100000000;" in err
    assert main(["verify", str(path), "conserve", "--support", "2", "--budget", "100"]) == 2
    assert "would step 528 words, over the budget of 100;" in capsys.readouterr().err
    monkeypatch.setenv("RNCCA_BUDGET", "527")
    assert main(["verify", str(path), "conserve", "--support", "2"]) == 2
    assert "over the budget of 527;" in capsys.readouterr().err
    monkeypatch.setenv("RNCCA_BUDGET", "528")
    assert main(["verify", str(path), "conserve", "--support", "2"]) == 0


def test_conserve_counterexample_beyond_int64_word_count():
    # 16**17 finite words: more than int64 can index, but the first
    # chunk already fails, and the report names the failing word.
    rule = make_rule(16, (0,), lambda x: 0, 0)
    report = verify.check_number_conserving(rule, max_support=17, budget=10**30)
    assert not report.passed
    assert report.counterexample.input == verify._word_literal((0,) * 16 + (1,))
    assert (report.counterexample.expected, report.counterexample.actual) == ("cell sum 1", "cell sum 0")


def test_inject_turns_failed_allocation_into_value_error(monkeypatch, tmp_path, capsys):
    zeros = np.zeros

    def refuse_big(shape, *args, **kwargs):
        if shape == 16**9:
            raise MemoryError("cannot allocate")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refuse_big)
    rule = convert(example_rpca("xor"))
    with pytest.raises(ValueError, match=f"exhaustive sweep of {16**9} words needs more memory"):
        verify.check_injective_cyclic(rule, 9, budget=10**11)
    path = tmp_path / "xor.rpca"
    path.write_text(format_rpca(example_rpca("xor")))
    assert main(["verify", str(path), "inject", "--cycle", "9", "--budget", str(10**11)]) == 2
    assert f"exhaustive sweep of {16**9} words" in capsys.readouterr().err


def test_conserve_turns_failed_allocation_into_value_error(monkeypatch, tmp_path, capsys):
    # Image cell 0 of the derived rule reads four positions of a longer
    # cyclic word: 16**4 entries for every length from 4 on, allocated
    # before the finite sweep starts.
    zeros = np.zeros

    def refuse_big(shape, *args, **kwargs):
        if shape == 16**4:
            raise MemoryError("cannot allocate")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refuse_big)
    rule = convert(example_rpca("xor"))
    words = 16**9 + sum(16**n for n in range(1, 10))
    with pytest.raises(ValueError, match=f"exhaustive sweep of {words} words needs more memory"):
        verify.check_number_conserving(rule, max_support=9, budget=10**12)
    path = tmp_path / "xor.rpca"
    path.write_text(format_rpca(example_rpca("xor")))
    assert main(["verify", str(path), "conserve", "--support", "9", "--budget", str(10**12)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: exhaustive sweep of {words} words needs more memory than is available;"
        " use sampled mode or a shorter support\n"
    )


def test_inject_over_index_range_is_value_error():
    # numpy refuses this size outright (a ValueError, not a MemoryError)
    # without allocating anything.
    rule = make_rule(2, (0,), lambda x: x, 0)
    with pytest.raises(ValueError, match=f"exhaustive sweep of {2**70} words needs more memory"):
        verify.check_injective_cyclic(rule, 70, budget=2**71)


# Rotation: image cell i of a cyclic word is image cell 0 of the word
# rotated left by i, so one evaluation of cell 0 over every word gives
# every cell.


def rotation_rules():
    """Derived rules, tables and callables, over neighborhoods that do and
    do not read their own cell."""
    rules = [convert(example_rpca("identity", 1, 1)), convert(example_rpca("random", 1, 1, seed=2))]
    rng = random.Random(3)
    for s, nb in ((2, (-2, -1, 0, 1)), (3, (-1, 0, 1)), (3, (1, 2)), (2, (-3, 2))):
        keys = list(itertools.product(range(s), repeat=len(nb)))
        table = {key: rng.randrange(s) for key in keys}
        table[(0,) * len(nb)] = 0
        rules.append(make_rule(s, nb, table, 0))
        rules.append(make_rule(s, nb, lambda *cells, table=table: table[cells], 0))
    return rules


@pytest.mark.parametrize("chunk", ["7", "3s^2", "default"])
def test_rotated_cell_zero_is_every_image_cell(monkeypatch, chunk):
    for rule in rotation_rules():
        s = rule.state_count
        if chunk != "default":
            # 3 * s**2 asks for three lead rows per chunk: s = 2 and 3 take
            # them whole, and s = 4 splits each run of four lead rows into
            # chunks of two.
            monkeypatch.setattr(verify, "_CHUNK", 7 if chunk == "7" else 3 * s**2)
        for n in range(1, 7):
            c0 = verify._cell_zero(rule, n, np.zeros(verify._cell_zero_size(rule, n), np.min_scalar_type(s - 1)))
            assert c0.shape == tuple(s if i in verify._cell_zero_axes(rule.neighborhood, n) else 1 for i in range(n))
            for _, cols in verify._grids(s, n, verify._CHUNK):
                shape = verify._grid_shape(cols)
                cells = verify._image_cells(rule, cols)
                rotated = verify._cyclic_cells(c0, cols)
                assert len(rotated) == len(cells) == n
                for cell, view in zip(cells, rotated):
                    assert np.array_equal(np.broadcast_to(view, shape), np.broadcast_to(cell, shape))


# Broadcast evaluation: every batch evaluator takes columns that
# broadcast together and agrees with ``local`` on their broadcast.


def broadcast_columns(rng, s, m):
    """m columns of random states on distinct axes of an m-axis grid
    (the last one 1-D), plus one full-size column."""
    cols = [rng.integers(0, s, size=(3,) + (1,) * (m - 1 - i) if i < m - 1 else (4,)) for i in range(m)]
    cols[rng.integers(m)] = rng.integers(0, s, size=(3,) * (m - 1) + (4,))
    return cols


def expected_from_local(rule, cols):
    cols = np.broadcast_arrays(*cols)
    flat = [rule.local(*(int(col.flat[i]) for col in cols)) for i in range(cols[0].size)]
    return np.array(flat).reshape(cols[0].shape)


@pytest.mark.parametrize("seed", range(5))
def test_batch_evaluators_broadcast(seed):
    rng = np.random.default_rng(seed)
    derived = convert(example_rpca("random", 2, 2, seed=seed))
    keys = list(itertools.product(range(3), repeat=3))
    table = {key: int(rng.integers(3)) for key in keys}
    table[(0, 0, 0)] = 0
    tabled = make_rule(3, (-1, 0, 1), table, 0)
    callable_form = make_rule(3, (-1, 0, 1), lambda *cells: table[cells], 0)
    assert tabled.local_batch is not None and callable_form.local_batch is None
    for rule in (derived, tabled, callable_form):
        cols = broadcast_columns(rng, rule.state_count, len(rule.neighborhood))
        got = engine._batch_of(rule)(cols)
        assert got.shape == np.broadcast_shapes(*(col.shape for col in cols))
        assert np.array_equal(got, expected_from_local(rule, cols))


def test_sweeps_pass_only_arrays_with_an_axis():
    # Batch evaluators may count rows as len(cols[0]); every column the
    # sweeps pass must be an ndarray with at least one axis.
    seen = []

    def recording(rule):
        batch = engine._batch_of(rule)

        def local_batch(cols):
            seen.extend((type(col), col.ndim) for col in cols)
            return batch(cols)

        return dataclasses.replace(rule, local_batch=local_batch)

    derived = recording(convert(example_rpca("xor")))
    shift = recording(make_rule(3, (-1,), lambda x: x, 0))
    for rule in (derived, shift):
        verify.check_number_conserving(rule, max_support=3)
        verify.check_injective_cyclic(rule, 3)
        verify.check_number_conserving(rule, mode="sampled", max_support=5, count=20, seed=1)
        verify.check_injective_cyclic(rule, 2, mode="sampled", count=20, seed=1)
    assert seen
    assert all(kind is np.ndarray and ndim >= 1 for kind, ndim in seen)
