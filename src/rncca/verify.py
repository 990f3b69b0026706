"""Brute-force and sampled oracles for the toolkit's contracts.

Every check returns a VerificationReport describing the enumerated or
sampled domain, the verdict, and a counterexample when one exists.
Reports are reproducible: the same property, bounds, and seed give the
same verdict and counterexample.

Exhaustive sweeps enumerate disjoint index ranges (chunks) and merge
deterministically; rules that carry a ``local_batch`` evaluator are
swept with numpy, everything else falls back to per-configuration
stepping.  All sums are computed in exact integer arithmetic (cell
values are tiny, so int64 columns cannot overflow).
"""

from __future__ import annotations

import itertools
import random
import shlex
import time
from dataclasses import dataclass

import numpy as np

from . import engine
from .convert import convert, encode_tau, encode_tau_prime, heavy_part, light_part
from .engine import Cyclic, Finite, Trajectory, cell_at, window_growth
from .formats import format_configuration
from .rpca import QUIESCENT_PAIR, step_rpca

__all__ = [
    "DEFAULT_BUDGET",
    "Counterexample",
    "VerificationReport",
    "MassLedger",
    "format_report",
    "check_number_conserving",
    "check_injective_cyclic",
    "check_simulation_correspondence",
    "check_tau_prime_correspondence",
    "mass_ledger",
    "ledger_is_constant",
]

DEFAULT_BUDGET = 10**8

_CHUNK = 1 << 18


@dataclass(frozen=True)
class Counterexample:
    input: str
    expected: str
    actual: str


@dataclass(frozen=True)
class VerificationReport:
    property: str
    domain: str
    passed: bool
    counterexample: Counterexample | None
    elapsed_ms: int


def _check_bounds(mode, count, **bounds):
    """Reject bounds that would leave the domain empty (a vacuous pass)."""
    if mode == "sampled":
        if count is None:
            raise ValueError("sampled mode needs a count")
        bounds["sample count"] = count
    for name, value in bounds.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _report(name, domain, counterexample, started):
    elapsed = int(round((time.perf_counter() - started) * 1000))
    return VerificationReport(name, domain, counterexample is None, counterexample, elapsed)


def format_report(report):
    """One line per report: property=.. domain=.. passed=.. elapsed_ms=.."""
    parts = [
        f"property={report.property}",
        f"domain={shlex.quote(report.domain)}",
        f"passed={'true' if report.passed else 'false'}",
    ]
    if report.counterexample is not None:
        c = report.counterexample
        parts.append(
            "counterexample="
            + shlex.quote(f"{c.input} expected={c.expected} actual={c.actual}")
        )
    parts.append(f"elapsed_ms={report.elapsed_ms}")
    return " ".join(parts)


def _word_chunks(s, length, chunk=_CHUNK):
    """All s**length words as (rows, length) int64 arrays, lexicographic."""
    total = s**length
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cols = []
        for _ in range(length):
            cols.append(idx % s)
            idx = idx // s
        yield np.stack(cols[::-1], axis=1)


def _finite_images(rule, words):
    """Batch one step of zero-padded words; columns cover the widened window."""
    nb = rule.neighborhood
    wl, wr = window_growth(nb)
    lo, hi = min(nb), max(nb)
    rows, length = words.shape
    span_lo = -wl + lo
    span_hi = length - 1 + wr + hi
    src = np.zeros((rows, span_hi - span_lo + 1), dtype=np.int64)
    src[:, -span_lo : -span_lo + length] = words
    outs = [
        rule.local_batch([src[:, x + d - span_lo] for d in nb])
        for x in range(-wl, length + wr)
    ]
    return np.stack(outs, axis=1)


def _cyclic_images(rule, words):
    nb = rule.neighborhood
    rows, length = words.shape
    outs = [
        rule.local_batch([words[:, (i + d) % length] for d in nb])
        for i in range(length)
    ]
    return np.stack(outs, axis=1)


def _word_literal(word, cyclic=False):
    cfg = Cyclic(tuple(word)) if cyclic else Finite(0, tuple(word), 0)
    return format_configuration(cfg)


def _conservation_counterexample(word, before, after, cyclic=False):
    return Counterexample(
        input=_word_literal(word, cyclic),
        expected=f"cell sum {before}",
        actual=f"cell sum {after}",
    )


def _scan_sums(words, images, cyclic):
    before = words.sum(axis=1)
    after = images.sum(axis=1)
    bad = np.nonzero(before != after)[0]
    if bad.size:
        i = int(bad[0])
        return _conservation_counterexample(
            [int(v) for v in words[i]], int(before[i]), int(after[i]), cyclic
        )
    return None


def _check_conserving_config(rule, cfg):
    stepped = engine.step(rule, cfg)
    before, after = sum(cfg.word), sum(stepped.word)
    if before != after:
        return Counterexample(
            input=format_configuration(cfg),
            expected=f"cell sum {before}",
            actual=f"cell sum {after}",
        )
    return None


def check_number_conserving(rule, *, mode="exhaustive", max_support=4, count=None, seed=None):
    """Compare cell sums before and after one step.

    Exhaustive mode enumerates every zero-padded word of length
    ``max_support`` (which covers all supports up to that bound, up to
    translation) plus every cyclic word of length 1..max_support.
    Sampled mode draws ``count`` random configurations, alternating
    finite and cyclic, with lengths up to ``max_support``.
    """
    started = time.perf_counter()
    _check_bounds(mode, count, support=max_support)
    if rule.quiescent != 0:
        raise ValueError("number conservation sums need quiescent state 0")
    s = rule.state_count
    name = "conserve"
    if mode == "exhaustive":
        domain = (
            f"exhaustive states={s} finite words len={max_support} "
            f"cyclic len<={max_support}"
        )
        counterexample = None
        if rule.local_batch is not None:
            for words in _word_chunks(s, max_support):
                counterexample = _scan_sums(words, _finite_images(rule, words), False)
                if counterexample:
                    break
            if counterexample is None:
                for length in range(1, max_support + 1):
                    for words in _word_chunks(s, length):
                        counterexample = _scan_sums(words, _cyclic_images(rule, words), True)
                        if counterexample:
                            break
                    if counterexample:
                        break
        else:
            for word in itertools.product(range(s), repeat=max_support):
                counterexample = _check_conserving_config(rule, Finite(0, word, 0))
                if counterexample:
                    break
            if counterexample is None:
                for length in range(1, max_support + 1):
                    for word in itertools.product(range(s), repeat=length):
                        counterexample = _check_conserving_config(rule, Cyclic(word))
                        if counterexample:
                            break
                    if counterexample:
                        break
        return _report(name, domain, counterexample, started)
    if mode == "sampled":
        rng = random.Random(seed)
        domain = f"sampled states={s} count={count} support<={max_support} seed={seed}"
        counterexample = None
        for i in range(count):
            length = rng.randint(1, max_support)
            word = tuple(rng.randrange(s) for _ in range(length))
            cfg = Finite(0, word, 0) if i % 2 == 0 else Cyclic(word)
            counterexample = _check_conserving_config(rule, cfg)
            if counterexample:
                break
        return _report(name, domain, counterexample, started)
    raise ValueError(f"unknown mode {mode!r}")


def _key_digits(key, s, length):
    digits = []
    for _ in range(length):
        digits.append(int(key % s))
        key //= s
    return tuple(digits[::-1])


def _injectivity_counterexample(rule, n, collision_key):
    s = rule.state_count
    first = second = None
    for words in _word_chunks(s, n):
        images = _cyclic_images(rule, words)
        keys = _horner(images, s)
        hits = np.nonzero(keys == collision_key)[0]
        for i in hits:
            word = tuple(int(v) for v in words[i])
            if first is None:
                first = word
            elif second is None and word != first:
                second = word
                break
        if second is not None:
            break
    image = _word_literal(_key_digits(collision_key, s, n), cyclic=True)
    return Counterexample(
        input=f"{_word_literal(first, True)} and {_word_literal(second, True)}",
        expected="distinct images",
        actual=f"both step to {image}",
    )


def _horner(words, s):
    keys = words[:, 0].astype(np.int64)
    for i in range(1, words.shape[1]):
        keys = keys * s + words[:, i]
    return keys


def check_injective_cyclic(rule, n, *, mode="exhaustive", count=None, seed=None, budget=None):
    """Look for two distinct cyclic words of length n with the same image.

    Words are compared exactly, not up to rotation: a collision between
    rotations of one word is still an injectivity violation.  Exhaustive
    mode refuses to start when s**n exceeds the budget.
    """
    started = time.perf_counter()
    _check_bounds(mode, count, cycle=n)
    s = rule.state_count
    budget = DEFAULT_BUDGET if budget is None else budget
    name = "inject"
    if mode == "exhaustive":
        total = s**n
        if total > budget:
            raise ValueError(
                f"exhaustive sweep would step {total} words, over the budget of {budget};"
                " use sampled mode or raise the budget"
            )
        domain = f"exhaustive states={s} cycle={n} words={total}"
        collision_key = None
        if rule.local_batch is not None:
            seen = np.zeros(total, dtype=bool)
            for words in _word_chunks(s, n):
                images = _cyclic_images(rule, words)
                keys = _horner(images, s)
                candidates = []
                values, counts = np.unique(keys, return_counts=True)
                repeated = values[counts > 1]
                if repeated.size:
                    candidates.append(int(repeated.min()))
                prior = keys[seen[keys]]
                if prior.size:
                    candidates.append(int(prior.min()))
                if candidates:
                    best = min(candidates)
                    collision_key = best if collision_key is None else min(collision_key, best)
                seen[keys] = True
            counterexample = (
                None if collision_key is None
                else _injectivity_counterexample(rule, n, collision_key)
            )
        else:
            seen = {}
            counterexample = None
            for word in itertools.product(range(s), repeat=n):
                image = engine.step(rule, Cyclic(word)).word
                if image in seen and seen[image] != word:
                    counterexample = Counterexample(
                        input=f"{_word_literal(seen[image], True)} and {_word_literal(word, True)}",
                        expected="distinct images",
                        actual=f"both step to {_word_literal(image, True)}",
                    )
                    break
                seen[image] = word
        return _report(name, domain, counterexample, started)
    if mode == "sampled":
        rng = random.Random(seed)
        domain = f"sampled states={s} cycle={n} count={count} seed={seed}"
        seen = {}
        counterexample = None
        for _ in range(count):
            word = tuple(rng.randrange(s) for _ in range(n))
            image = engine.step(rule, Cyclic(word)).word
            if image in seen and seen[image] != word:
                counterexample = Counterexample(
                    input=f"{_word_literal(seen[image], True)} and {_word_literal(word, True)}",
                    expected="distinct images",
                    actual=f"both step to {_word_literal(image, True)}",
                )
                break
            seen[image] = word
        return _report(name, domain, counterexample, started)
    raise ValueError(f"unknown mode {mode!r}")


def _pair_words(p, mode, max_support, count, seed, exact=False):
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


def check_simulation_correspondence(p, *, mode="exhaustive", max_support=4, steps=4, count=None, seed=None):
    """Each source step must equal two derived steps under the block encoding.

    For every starting configuration, runs the source CA for ``steps``
    steps and the derived CA for twice as many from the encoded start,
    requiring exact equality of canonical forms at every checkpoint.
    """
    started = time.perf_counter()
    _check_bounds(mode, count, support=max_support, steps=steps)
    rule = convert(p)
    code = rule.code
    domain = (
        f"{mode} pairs={p.c_size}x{p.r_size} support<={max_support} steps={steps}"
        + (f" count={count} seed={seed}" if mode == "sampled" else "")
    )
    counterexample = None
    for word in _pair_words(p, mode, max_support, count, seed):
        alpha = engine.canonicalize(Finite(0, word, QUIESCENT_PAIR))
        source = alpha
        derived = encode_tau(code, alpha)
        for t in range(1, steps + 1):
            source = step_rpca(p, source)
            derived = engine.step(rule, engine.step(rule, derived))
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
    return _report("simulate", domain, counterexample, started)


def check_tau_prime_correspondence(p, *, k=None, gaps=None, mode="exhaustive", max_support=3, steps=4, count=None, seed=None):
    """Spaced-block simulation checks.

    Uniform spacing k: searches the smallest period q <= 4k such that
    q derived steps track one source step for every tested start, and
    passes when the conjectured period k works.  k = 2 delegates to the
    plain two-step check.  A gap list switches to the mass-ledger-only
    check: heavy and light window sums must stay constant for ``steps``
    steps (the light window advancing one cell per step).
    """
    started = time.perf_counter()
    if (k is None) == (gaps is None):
        raise ValueError("give exactly one of k and gaps")
    if gaps is None:
        _check_bounds(mode, count, support=max_support, steps=steps)
    else:
        _check_bounds(mode, count, steps=steps)
    rule = convert(p)
    code = rule.code
    if gaps is not None:
        gaps = [int(g) for g in gaps]
        length = len(gaps) + 1
        domain = (
            f"{mode} pairs={p.c_size}x{p.r_size} gaps={','.join(map(str, gaps))} "
            f"blocks={length} steps={steps}"
            + (f" count={count} seed={seed}" if mode == "sampled" else "")
        )
        counterexample = None
        for word in _pair_words(p, mode, length, count, seed, exact=True):
            cfg = encode_tau_prime(code, Finite(0, word, QUIESCENT_PAIR), gaps=gaps)
            trajectory = engine.run(rule, cfg, steps)
            ok, ledger = ledger_is_constant(code, trajectory)
            if not ok:
                counterexample = Counterexample(
                    input=format_configuration(cfg),
                    expected="constant heavy and light window sums",
                    actual=f"window={ledger.window} rows={ledger.rows}",
                )
                break
        return _report("tauprime", domain, counterexample, started)
    k = int(k)
    if k == 2:
        inner = check_simulation_correspondence(
            p, mode=mode, max_support=max_support, steps=steps, count=count, seed=seed
        )
        return VerificationReport(
            "tauprime",
            f"k=2 is the plain block encoding; delegated: {inner.domain}",
            inner.passed,
            inner.counterexample,
            int(round((time.perf_counter() - started) * 1000)),
        )
    if k < 3:
        raise ValueError("uniform spacing needs k >= 3 (k = 2 delegates to simulate)")
    candidates = list(range(1, 4 * k + 1))
    counterexample = None
    for word in _pair_words(p, mode, max_support, count, seed):
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
    return _report("tauprime", domain, counterexample, started)


@dataclass(frozen=True)
class MassLedger:
    """Per-step (t, heavy sum, light sum) rows over a window.

    Heavy sums use the fixed window; light sums use the window advanced
    by one cell per step, matching the rightward drift of light masses.
    Cyclic trajectories sum the whole ring for both.
    """

    window: tuple[int, int]
    rows: tuple


def _aligned_window(config):
    if isinstance(config, Cyclic):
        return (0, len(config.word) - 1)
    if isinstance(config, Finite):
        start, end = config.offset, config.offset + max(len(config.word), 1) - 1
    else:
        start = config.center_offset
        end = start + max(len(config.center), 1) - 1
    start -= start % 2
    if end % 2 == 0:
        end += 1
    return (start - 2, end + 2)


def mass_ledger(code, trajectory, window=None):
    """Tabulate heavy/light mass sums along a trajectory.

    The window should be aligned to block boundaries and sit in
    quiescent background at both ends at t = 0.
    """
    configs = trajectory.configs if isinstance(trajectory, Trajectory) else tuple(trajectory)
    if window is None:
        window = _aligned_window(configs[0])
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
    return MassLedger((a, b), tuple(rows))


def ledger_is_constant(code, trajectory, window=None):
    """Check mass-ledger constancy, widening the window by one cell per
    side before declaring a violation."""
    ledger = mass_ledger(code, trajectory, window)

    def constant(led):
        heavies = {row[1] for row in led.rows}
        lights = {row[2] for row in led.rows}
        return len(heavies) == 1 and len(lights) == 1

    if constant(ledger):
        return True, ledger
    a, b = ledger.window
    for retry in ((a - 1, b), (a, b + 1), (a - 1, b + 1)):
        wider = mass_ledger(code, trajectory, retry)
        if constant(wider):
            return True, wider
    return False, ledger
