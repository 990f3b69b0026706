"""Acceptance suite: one test per release criterion, exact integer equality.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Sweep sizes follow the stated bounds; nothing is
tolerance-based because every quantity here is an integer.
"""

import itertools
import random

from rncca.convert import (
    convert,
    decode,
    encode_tau,
    is_balanced_heavy,
    is_balanced_light,
)
from rncca.engine import Cyclic, Finite, canonicalize, cell_at, run, step
from rncca.rpca import (
    QUIESCENT_PAIR,
    check_local_injective,
    example_rpca,
    format_rpca,
    invert_rpca,
    step_rpca,
)
from rncca.verify import (
    check_injective_cyclic,
    check_number_conserving,
    check_simulation_correspondence,
    check_tau_prime_correspondence,
    format_report,
    ledger_is_constant,
)

XOR = example_rpca("xor")
XOR_RULE = convert(XOR)
CODE22 = XOR_RULE.code

# criterion 4's sampled half: three random reversible tables, distinct seeds
SAMPLED_RPCAS = [
    (example_rpca("random", c_size=4, r_size=6, seed=1), 1),
    (example_rpca("random", c_size=3, r_size=2, seed=2), 2),
    (example_rpca("random", c_size=2, r_size=3, seed=3), 3),
]


def _announce(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_conservation_half():
    assert 16**5 == 1_048_576  # finite sweep size at support 5
    report = check_number_conserving(XOR_RULE, mode="exhaustive", max_support=5)
    assert report.passed, format_report(report)
    _announce(1, "16-state number conservation, exhaustive support<=5 + cyclic<=5")


def test_criterion_2_reversibility_half():
    for n in (2, 3, 4):
        report = check_injective_cyclic(XOR_RULE, n, mode="exhaustive")
        assert report.passed, format_report(report)
    _announce(2, "16-state cyclic injectivity, exhaustive n=2,3,4")


def test_criterion_3_96_state_instance():
    p = example_rpca("random", c_size=4, r_size=6, seed=1)
    assert check_local_injective(p)
    rule = convert(p)
    assert rule.state_count == 96
    assert rule.neighborhood == (-2, -1, 0, 1)
    inject = check_injective_cyclic(rule, 3, mode="exhaustive")
    assert inject.passed, format_report(inject)
    assert "words=884736" in inject.domain
    conserve = check_number_conserving(
        rule, mode="sampled", count=10_000, max_support=8, seed=1
    )
    assert conserve.passed, format_report(conserve)
    _announce(3, "96-state rule: injectivity n=3 exhaustive, conservation sampled 10^4")


def test_criterion_4_two_step_simulation():
    report = check_simulation_correspondence(XOR, mode="exhaustive", max_support=4, steps=8)
    assert report.passed, format_report(report)
    for p, seed in SAMPLED_RPCAS:
        report = check_simulation_correspondence(
            p, mode="sampled", max_support=6, steps=5, count=1000, seed=seed
        )
        assert report.passed, format_report(report)
    _announce(4, "two-step simulation: exhaustive xor + 3 sampled random rules")


def test_criterion_5_worked_trajectory_golden(tmp_path, capsys):
    from rncca.cli import main

    rule_path = tmp_path / "xor.rpca"
    rule_path.write_text(format_rpca(XOR))
    cfg_path = tmp_path / "tau.cfg"
    cfg_path.write_text("biperiodic left=0,15 center@0=5,10 right=0,15\n")
    assert main([
        "run", str(rule_path), str(cfg_path), "--steps", "2", "--window", "-2", "3",
    ]) == 0
    out = capsys.readouterr().out
    rows = out.splitlines()
    # derived cells around the support, byte for byte
    assert rows[0][0:11] == " 0 15  5 10"
    assert rows[1][3:14] == "12  7  9  2"
    assert rows[2][6:17] == " 4 11  5 10"
    assert out == (
        " 0 15  5 10  0 15\n"
        " 3 12  7  9  2 12\n"
        " 0 15  4 11  5 10\n"
    )
    trajectory = run(XOR_RULE, encode_tau(CODE22, Finite(0, [(1, 1)], QUIESCENT_PAIR)), 2)
    decoded = decode(CODE22, trajectory.configs[2])
    assert decoded == Finite(0, ((1, 0), (1, 1)), QUIESCENT_PAIR)
    _announce(5, "worked trajectory rows 0,15,5,10 / 12,7,9,2 / 4,11,5,10 and decode")


def test_criterion_6_propagation_invariants():
    rng = random.Random(6)
    violations = 0
    for _ in range(10_000):
        n = 2 * rng.randint(1, 6)
        before = Cyclic(tuple(rng.randrange(16) for _ in range(n)))
        after = step(XOR_RULE, before)
        for x in range(n):
            heavy_before = is_balanced_heavy(CODE22, cell_at(before, x), cell_at(before, x + 1))
            heavy_after = is_balanced_heavy(CODE22, cell_at(after, x), cell_at(after, x + 1))
            light_before = is_balanced_light(CODE22, cell_at(before, x), cell_at(before, x + 1))
            light_after = is_balanced_light(CODE22, cell_at(after, x + 1), cell_at(after, x + 2))
            if heavy_before != heavy_after or light_before != light_after:
                violations += 1
    assert violations == 0
    _announce(6, "balance propagation on 10^4 random rings: heavy in place, light shifts")


def _criterion_4_trajectories():
    pairs = [(c, r) for c in range(2) for r in range(2)]
    for word in itertools.product(pairs, repeat=4):
        alpha = canonicalize(Finite(0, word, QUIESCENT_PAIR))
        yield XOR_RULE, run(XOR_RULE, encode_tau(CODE22, alpha), 16)
    for p, seed in SAMPLED_RPCAS:
        rule = convert(p)
        rng = random.Random(seed)
        for _ in range(1000):
            length = rng.randint(1, 6)
            word = tuple(
                (rng.randrange(p.c_size), rng.randrange(p.r_size)) for _ in range(length)
            )
            alpha = canonicalize(Finite(0, word, QUIESCENT_PAIR))
            yield rule, run(rule, encode_tau(rule.code, alpha), 10)


def test_criterion_7_mass_ledger_over_simulation_trajectories():
    checked = 0
    for rule, trajectory in _criterion_4_trajectories():
        ok, ledger = ledger_is_constant(rule.code, trajectory)
        assert ok, (ledger.window, ledger.rows)
        checked += 1
    assert checked == 256 + 3000
    _announce(7, "mass ledger constant over all 3256 criterion-4 trajectories")


def test_criterion_8_spaced_blocks():
    for k in (3, 4):
        report = check_tau_prime_correspondence(
            XOR, k=k, mode="exhaustive", max_support=3, steps=4
        )
        assert report.passed, format_report(report)
        assert f"period={k}" in report.domain
    gapped = check_tau_prime_correspondence(XOR, gaps=[1, 3], mode="exhaustive", steps=20)
    assert gapped.passed, format_report(gapped)
    _announce(8, "spaced blocks: period k confirmed for k=3,4; gap list mass-stable 20 steps")


def test_criterion_9_round_trips():
    backward = invert_rpca(XOR)
    pairs = [(c, r) for c in range(2) for r in range(2)]
    for word in itertools.product(pairs, repeat=4):
        alpha = canonicalize(Finite(0, word, QUIESCENT_PAIR))
        assert decode(CODE22, encode_tau(CODE22, alpha)) == alpha
        assert backward.step_back(step_rpca(XOR, alpha)) == alpha
    _announce(9, "decode/encode and backward/forward round trips, all 256 supports<=4")
