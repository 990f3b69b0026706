"""Per-start references for the batched oracles, and the helpers their
tests share.

``reference_*`` are earlier per-configuration implementations, kept
verbatim apart from taking the derived rule as an argument, returning
the report fields of ``fields`` and stepping the derived rule with the
per-cell reference stepper.  ``mutated`` and ``reached_mutation`` make
derived rules with one changed table entry, so that the references are
compared on failing verdicts and counterexamples as well.
"""

import dataclasses
import itertools
import random

import numpy as np

import rncca.verify as verify
from rncca import engine
from rncca.convert import encode_tau, encode_tau_prime, heavy_part, light_part
from rncca.engine import Cyclic, Finite, Trajectory, cell_at
from rncca.formats import format_configuration
from rncca.rpca import QUIESCENT_PAIR, step_rpca
from rncca.verify import Counterexample
from reference_stepper import reference_step


def fields(report):
    return (report.property, report.domain, report.passed, report.counterexample)


def reference_pair_words(p, mode, max_support, count, seed, exact=False):
    if mode == "exhaustive":
        pairs = [(c, r) for c in range(p.c_size) for r in range(p.r_size)]
        yield from itertools.product(pairs, repeat=max_support)
    elif mode == "sampled":
        rng = random.Random(seed)
        for _ in range(count):
            length = max_support if exact else rng.randint(1, max_support)
            yield tuple(
                (rng.randrange(p.c_size), rng.randrange(p.r_size)) for _ in range(length)
            )
    else:
        raise ValueError(f"unknown mode {mode!r}")


def reference_mass_ledger(code, trajectory, window=None):
    configs = trajectory.configs if isinstance(trajectory, Trajectory) else tuple(trajectory)
    if window is None:
        window = verify._aligned_window(configs[0])
    a, b = window
    rows = []
    for t, cfg in enumerate(configs):
        if isinstance(cfg, Cyclic):
            heavy = sum(heavy_part(code, q) for q in cfg.word)
            light = sum(light_part(code, q) for q in cfg.word)
        else:
            heavy = sum(heavy_part(code, cell_at(cfg, x)) for x in range(a, b + 1))
            light = sum(light_part(code, cell_at(cfg, x)) for x in range(a + t, b + t + 1))
        rows.append((t, heavy, light))
    return verify.MassLedger((a, b), tuple(rows))


def reference_ledger_is_constant(code, trajectory, window=None):
    ledger = reference_mass_ledger(code, trajectory, window)
    a, b = ledger.window
    retries = ((a - 1, b), (a, b + 1), (a - 1, b + 1))
    for led in itertools.chain([ledger], (reference_mass_ledger(code, trajectory, w) for w in retries)):
        if len({row[1] for row in led.rows}) == 1 and len({row[2] for row in led.rows}) == 1:
            return True, led
    return False, ledger


def reference_tauprime_gaps(p, rule, gaps, *, mode="exhaustive", steps=4, count=None, seed=None):
    """The per-start loop of ``tauprime --gaps``: encode each start, run
    it and check its ledger, stopping at the first failure."""
    code = rule.code
    gaps = [int(g) for g in gaps]
    length = len(gaps) + 1
    domain = (
        f"{mode} pairs={p.c_size}x{p.r_size} gaps={','.join(map(str, gaps))} "
        f"blocks={length} steps={steps}"
        + (f" count={count} seed={seed}" if mode == "sampled" else "")
    )
    counterexample = None
    for word in reference_pair_words(p, mode, length, count, seed, exact=True):
        cfg = encode_tau_prime(code, Finite(0, word, QUIESCENT_PAIR), gaps=gaps)
        trajectory = [cfg]
        for _ in range(steps):
            trajectory.append(reference_step(rule, trajectory[-1]))
        ok, ledger = reference_ledger_is_constant(code, trajectory)
        if not ok:
            counterexample = Counterexample(
                input=format_configuration(cfg),
                expected="constant heavy and light window sums",
                actual=f"window={ledger.window} rows={ledger.rows}",
            )
            break
    return ("tauprime", domain, counterexample is None, counterexample)


def reference_simulate(p, rule, *, mode="exhaustive", max_support=4, steps=4, count=None, seed=None):
    code = rule.code
    domain = (
        f"{mode} pairs={p.c_size}x{p.r_size} support<={max_support} steps={steps}"
        + (f" count={count} seed={seed}" if mode == "sampled" else "")
    )
    counterexample = None
    for word in reference_pair_words(p, mode, max_support, count, seed):
        alpha = engine.canonicalize(Finite(0, word, QUIESCENT_PAIR))
        source = alpha
        derived = encode_tau(code, alpha)
        for t in range(1, steps + 1):
            source = step_rpca(p, source)
            derived = reference_step(rule, reference_step(rule, derived))
            expected = encode_tau(code, source)
            if derived != expected:
                counterexample = Counterexample(
                    input=format_configuration(alpha),
                    expected=f"t={t} {format_configuration(expected)}",
                    actual=f"t={t} {format_configuration(derived)}",
                )
                break
        if counterexample:
            break
    return ("simulate", domain, counterexample is None, counterexample)


def reference_tauprime(p, rule, k, *, mode="exhaustive", max_support=3, steps=4, count=None, seed=None):
    code = rule.code
    candidates = list(range(1, 4 * k + 1))
    counterexample = None
    for word in reference_pair_words(p, mode, max_support, count, seed):
        alpha = engine.canonicalize(Finite(0, word, QUIESCENT_PAIR))
        encoded = [encode_tau_prime(code, alpha, k=k)]
        source = alpha
        for _ in range(steps):
            source = step_rpca(p, source)
            encoded.append(encode_tau_prime(code, source, k=k))
        horizon = max(candidates) * steps
        trajectory = engine.run(rule, encoded[0], horizon).configs
        surviving = [
            q
            for q in candidates
            if all(trajectory[q * t] == encoded[t] for t in range(1, steps + 1))
        ]
        if not surviving:
            t_bad = next(
                (t for t in range(1, steps + 1) if trajectory[k * t] != encoded[t]),
                None,
            )
            if t_bad is None:
                counterexample = Counterexample(
                    input=format_configuration(alpha),
                    expected=f"one period q <= {4 * k} working for every start",
                    actual="no candidate period survives this start",
                )
            else:
                counterexample = Counterexample(
                    input=format_configuration(alpha),
                    expected=f"t={t_bad} {format_configuration(encoded[t_bad])}",
                    actual=f"t={t_bad} {format_configuration(trajectory[k * t_bad])}",
                )
            break
        candidates = surviving
    period = min(candidates) if counterexample is None else None
    domain = (
        f"{mode} pairs={p.c_size}x{p.r_size} k={k} support<={max_support} steps={steps}"
        + (f" count={count} seed={seed}" if mode == "sampled" else "")
        + f" period={period}"
    )
    if counterexample is None and k not in candidates:
        counterexample = Counterexample(
            input=f"period search over 1..{4 * k}",
            expected=f"simulation period {k}",
            actual=f"smallest working period {period}",
        )
    return ("tauprime", domain, counterexample is None, counterexample)


def reference_conserve_sampled(rule, *, max_support, count, seed):
    s = rule.state_count
    rng = random.Random(seed)
    domain = f"sampled states={s} count={count} support<={max_support} seed={seed}"
    counterexample = None
    for i in range(count):
        length = rng.randint(1, max_support)
        word = tuple(rng.randrange(s) for _ in range(length))
        cfg = Finite(0, word, 0) if i % 2 == 0 else Cyclic(word)
        stepped = reference_step(rule, cfg)
        before, after = sum(cfg.word), sum(stepped.word)
        if before != after:
            counterexample = Counterexample(
                input=format_configuration(cfg),
                expected=f"cell sum {before}",
                actual=f"cell sum {after}",
            )
            break
    return ("conserve", domain, counterexample is None, counterexample)


def reference_inject_sampled(rule, n, *, count, seed):
    s = rule.state_count
    rng = random.Random(seed)
    domain = f"sampled states={s} cycle={n} count={count} seed={seed}"
    seen = {}
    counterexample = None
    for _ in range(count):
        word = tuple(rng.randrange(s) for _ in range(n))
        image = reference_step(rule, Cyclic(word)).word
        if image in seen and seen[image] != word:
            counterexample = Counterexample(
                input=f"{verify._word_literal(seen[image], True)} and {verify._word_literal(word, True)}",
                expected="distinct images",
                actual=f"both step to {verify._word_literal(image, True)}",
            )
            break
        seen[image] = word
    return ("inject", domain, counterexample is None, counterexample)


def mutated(rule, key, value):
    """``rule`` with one entry of its reduced table, indexed by
    (light(q-2), q-1, q0, heavy(q1) // 2|R|), replaced by ``value``."""
    two_r = rule.code.light_modulus

    def local(a, b, c, d):
        if (a % two_r, b, c, d // two_r) == key:
            return value
        return rule.local(a, b, c, d)

    def local_batch(cols):
        a, b, c, d = (np.asarray(col) for col in cols)
        out = np.array(rule.local_batch(cols))
        out[(a % two_r == key[0]) & (b == key[1]) & (c == key[2]) & (d // two_r == key[3])] = value
        return out

    return dataclasses.replace(rule, local=local, local_batch=local_batch)


def reached_mutation(p, rule, rng, support, steps, k=2, gaps=None):
    """``rule`` with a changed entry that the derived run of a random
    start of the given support reaches: under spacing k within k * steps
    steps, or under the gap list ``gaps`` (one gap fewer than the
    support) within ``steps`` steps."""
    two_r = rule.code.light_modulus
    word = tuple((rng.randrange(p.c_size), rng.randrange(p.r_size)) for _ in range(support))
    alpha = Finite(0, word, QUIESCENT_PAIR)
    if gaps is not None:
        start, horizon = encode_tau_prime(rule.code, alpha, gaps=gaps), steps
    else:
        start = encode_tau(rule.code, alpha) if k == 2 else encode_tau_prime(rule.code, alpha, k=k)
        horizon = k * steps
    config = engine.run(rule, start, horizon).configs[rng.randrange(horizon)]
    x = config.center_offset + rng.randrange(-2, len(config.center) + 2)
    hood = [engine.cell_at(config, x + d) for d in rule.neighborhood]
    key = (hood[0] % two_r, hood[1], hood[2], hood[3] // two_r)
    s = rule.state_count
    return mutated(rule, key, (rule.local(*hood) + rng.randrange(1, s)) % s)
