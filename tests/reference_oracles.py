"""The earlier implementations that the oracle and codec tests compare
with, and the helpers those tests share.

``reference_*`` are kept verbatim apart from their names and the
changes each group notes:

* the per-start references of the batched oracles take the derived
  rule as an argument, return the report fields of ``fields`` and step
  the derived rule with the per-cell reference stepper;
* the word-matrix sweeps of exhaustive ``conserve`` / ``inject``
  (``reference_word_chunks`` .. ``reference_inject``) take the rule as
  an argument and return the report fields;
* the per-shape block encoders and decoders (``reference_encode_*``,
  ``reference_decode*``) are as they were.

``mutated`` and ``reached_mutation`` make derived rules with one changed
table entry, so that the references are compared on failing verdicts and
counterexamples as well.
"""

import dataclasses
import itertools
import random

import numpy as np

import rncca.verify as verify
from rncca import engine
from rncca.convert import (
    TauDecodeError,
    decompose,
    encode_tau,
    encode_tau_prime,
    heavy_part,
    light_part,
    phi,
    phi_inverse,
)
from rncca.engine import BiPeriodic, Cyclic, Finite, Trajectory, cell_at, window_growth
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
    """``rule`` with one entry of its reduced table replaced by
    ``value``.  ``key`` is a role tuple, (light(q-2), q-1, q0,
    heavy(q1) // 2|R|), in neighborhood order: the entry is keyed by
    what its cells hold, not by its index in the table's layout."""
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


REFERENCE_CHUNK = 1 << 18


def reference_word_chunks(s, length, chunk=REFERENCE_CHUNK):
    """All s**length words as (rows, length) int64 arrays, lexicographic."""
    total = s**length
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cols = []
        for _ in range(length):
            cols.append(idx % s)
            idx = idx // s
        yield np.stack(cols[::-1], axis=1)


def reference_batch_of(rule):
    if rule.local_batch is not None:
        return rule.local_batch
    local = rule.local

    def batch(cols):
        hoods = zip(*(np.ravel(col).tolist() for col in cols))
        return np.array([local(*hood) for hood in hoods], dtype=np.int64).reshape(np.shape(cols[0]))

    return batch


def reference_finite_images(rule, words):
    nb = rule.neighborhood
    batch = reference_batch_of(rule)
    wl, wr = window_growth(nb)
    lo, hi = min(nb), max(nb)
    rows, length = words.shape
    span_lo = -wl + lo
    span_hi = length - 1 + wr + hi
    src = np.zeros((rows, span_hi - span_lo + 1), dtype=words.dtype)
    src[:, -span_lo : -span_lo + length] = words
    outs = [
        batch([src[:, x + d - span_lo] for d in nb])
        for x in range(-wl, length + wr)
    ]
    return np.stack(outs, axis=1)


def reference_cyclic_images(rule, words):
    nb = rule.neighborhood
    batch = reference_batch_of(rule)
    rows, length = words.shape
    outs = [
        batch([words[:, (i + d) % length] for d in nb])
        for i in range(length)
    ]
    return np.stack(outs, axis=1)


def reference_word_literal(word, cyclic=False):
    cfg = Cyclic(tuple(word)) if cyclic else Finite(0, tuple(word), 0)
    return format_configuration(cfg)


def reference_first_unconserved(rule, words, cyclic):
    images = (reference_cyclic_images if cyclic else reference_finite_images)(rule, words)
    bad = np.flatnonzero(words.sum(axis=1) != images.sum(axis=1))
    return (int(bad[0]), images[bad[0]]) if bad.size else None


def reference_conservation_counterexample(word, image, cyclic):
    return Counterexample(
        input=reference_word_literal(word, cyclic),
        expected=f"cell sum {sum(word)}",
        actual=f"cell sum {int(image.sum())}",
    )


def reference_conserve(rule, max_support):
    s = rule.state_count
    domain = (
        f"exhaustive states={s} finite words len={max_support} "
        f"cyclic len<={max_support}"
    )
    sweeps = [(max_support, False)] + [(n, True) for n in range(1, max_support + 1)]
    counterexample = None
    for length, cyclic in sweeps:
        for words in reference_word_chunks(s, length):
            found = reference_first_unconserved(rule, words, cyclic)
            if found:
                row, image = found
                counterexample = reference_conservation_counterexample(words[row].tolist(), image, cyclic)
                break
        if counterexample:
            break
    return ("conserve", domain, counterexample is None, counterexample)


def reference_key_digits(key, s, length):
    digits = []
    for _ in range(length):
        digits.append(int(key % s))
        key //= s
    return tuple(digits[::-1])


def reference_horner(words, s):
    keys = words[:, 0].astype(np.int64)
    for i in range(1, words.shape[1]):
        keys = keys * s + words[:, i]
    return keys


def reference_collision(first, second, image_literal):
    return Counterexample(
        input=f"{reference_word_literal(first, True)} and {reference_word_literal(second, True)}",
        expected="distinct images",
        actual=f"both step to {image_literal}",
    )


def reference_injectivity_counterexample(rule, n, collision_key):
    s = rule.state_count
    first = second = None
    for words in reference_word_chunks(s, n):
        images = reference_cyclic_images(rule, words)
        keys = reference_horner(images, s)
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
    image = reference_word_literal(reference_key_digits(collision_key, s, n), cyclic=True)
    return reference_collision(first, second, image)


def reference_inject(rule, n):
    s = rule.state_count
    total = s**n
    domain = f"exhaustive states={s} cycle={n} words={total}"
    collision_key = None
    seen = np.zeros(total, dtype=bool)
    for words in reference_word_chunks(s, n):
        images = reference_cyclic_images(rule, words)
        keys = reference_horner(images, s)
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
        else reference_injectivity_counterexample(rule, n, collision_key)
    )
    return ("inject", domain, counterexample is None, counterexample)


def _require_pair_finite(config):
    if not isinstance(config, Finite):
        raise TypeError("expected a finite configuration")
    if config.quiescent != QUIESCENT_PAIR:
        raise ValueError("partitioned configurations use quiescent pair (0, 0)")


def reference_encode_tau(code, config):
    if isinstance(config, Finite):
        _require_pair_finite(config)
        background = code.quiescent_block
        cells = []
        for pair in config.word:
            cells.append(phi(code, "hat", *pair))
            cells.append(phi(code, "check", *pair))
        return engine.canonicalize(
            BiPeriodic(background, tuple(cells), 2 * config.offset, background)
        )
    if isinstance(config, Cyclic):
        cells = []
        for pair in config.word:
            cells.append(phi(code, "hat", *pair))
            cells.append(phi(code, "check", *pair))
        return Cyclic(tuple(cells))
    raise TypeError("only finite and cyclic configurations can be block-encoded")


def reference_encode_tau_prime(code, config, k=None, gaps=None, background_gap=1):
    if (k is None) == (gaps is None):
        raise ValueError("give exactly one of k and gaps")
    hat0, check0 = code.quiescent_block
    if k is not None:
        k = int(k)
        if k < 3:
            raise ValueError("uniform spacing needs k >= 3; k = 2 is the plain block encoding")
        if isinstance(config, Finite):
            _require_pair_finite(config)
            background = (hat0, check0) + (0,) * (k - 2)
            cells = []
            for pair in config.word:
                cells.append(phi(code, "hat", *pair))
                cells.append(phi(code, "check", *pair))
                cells.extend([0] * (k - 2))
            if cells:
                del cells[-(k - 2):]
            return engine.canonicalize(
                BiPeriodic(background, tuple(cells), k * config.offset, background)
            )
        if isinstance(config, Cyclic):
            cells = []
            for pair in config.word:
                cells.append(phi(code, "hat", *pair))
                cells.append(phi(code, "check", *pair))
                cells.extend([0] * (k - 2))
            return Cyclic(tuple(cells))
        raise TypeError("only finite and cyclic configurations can be block-encoded")
    gaps = [int(g) for g in gaps]
    if any(g < 1 for g in gaps):
        raise ValueError("every gap must leave at least one quiescent cell")
    if isinstance(config, Finite):
        _require_pair_finite(config)
        if len(gaps) != max(0, len(config.word) - 1):
            raise ValueError(
                f"need {max(0, len(config.word) - 1)} gaps for {len(config.word)} blocks, got {len(gaps)}"
            )
        if int(background_gap) < 1:
            raise ValueError("background gap must be at least 1")
        k_bg = int(background_gap) + 2
        background = (hat0, check0) + (0,) * (k_bg - 2)
        if not config.word:
            return BiPeriodic(background, (), 0, background)
        cells = []
        for i, pair in enumerate(config.word):
            cells.append(phi(code, "hat", *pair))
            cells.append(phi(code, "check", *pair))
            if i < len(gaps):
                cells.extend([0] * gaps[i])
        start = k_bg * config.offset
        # Pad to the next background block boundary, keeping at least
        # one quiescent cell before the background resumes.
        end = start + len(cells)
        next_block = -((-(end + 1)) // k_bg) * k_bg
        cells.extend([0] * (next_block - end))
        return engine.canonicalize(
            BiPeriodic(background, tuple(cells), start, background)
        )
    if isinstance(config, Cyclic):
        if len(gaps) != len(config.word):
            raise ValueError(
                f"need {len(config.word)} gaps for a cyclic word of {len(config.word)} blocks"
            )
        cells = []
        for pair, gap in zip(config.word, gaps):
            cells.append(phi(code, "hat", *pair))
            cells.append(phi(code, "check", *pair))
            cells.extend([0] * gap)
        return Cyclic(tuple(cells))
    raise TypeError("only finite and cyclic configurations can be block-encoded")


def reference_decode_block(code, q_hat, q_check, position):
    heavy, light = decompose(code, q_hat)
    if heavy >= code.hat_heavy_limit or light >= code.hat_light_limit:
        raise TauDecodeError(f"state {q_hat} is not a hat block value", position)
    heavy2, light2 = decompose(code, q_check)
    if heavy2 < code.hat_heavy_limit or light2 < code.hat_light_limit:
        raise TauDecodeError(f"state {q_check} is not a check block value", position + 1)
    pair = phi_inverse(code, "hat", q_hat)
    if phi_inverse(code, "check", q_check) != pair:
        raise TauDecodeError(
            f"block halves {q_hat},{q_check} encode different cell values", position
        )
    return pair


def reference_decode(code, config):
    if isinstance(config, Cyclic):
        word = config.word
        if len(word) % 2:
            raise TauDecodeError(f"cyclic word length {len(word)} is odd", 0)
        pairs = tuple(
            reference_decode_block(code, word[i], word[i + 1], i) for i in range(0, len(word), 2)
        )
        return Cyclic(pairs)
    if isinstance(config, BiPeriodic):
        cfg = engine.canonicalize(config)
        background = code.quiescent_block
        if cfg.left != background:
            raise TauDecodeError(
                f"left background {cfg.left} is not the quiescent block {background}"
            )
        if cfg.right != background:
            raise TauDecodeError(
                f"right background {cfg.right} is not the quiescent block {background}"
            )
        start = cfg.center_offset
        if start % 2:
            start -= 1
        end = cfg.center_offset + len(cfg.center)
        if end % 2:
            end += 1
        pairs = tuple(
            reference_decode_block(
                code, engine.cell_at(cfg, x), engine.cell_at(cfg, x + 1), x
            )
            for x in range(start, end, 2)
        )
        return engine.canonicalize(Finite(start // 2, pairs, QUIESCENT_PAIR))
    raise TauDecodeError(
        "finite configurations are never block encodings (the background is not quiescent)"
    )


def reference_decode_tau_prime(code, config, k):
    k = int(k)
    if k < 3:
        raise ValueError("uniform spacing needs k >= 3")
    hat0, check0 = code.quiescent_block
    background = (hat0, check0) + (0,) * (k - 2)
    if isinstance(config, Cyclic):
        word = config.word
        if len(word) % k:
            raise TauDecodeError(f"cyclic word length {len(word)} is not a multiple of {k}", 0)
        pairs = []
        for i in range(0, len(word), k):
            pairs.append(reference_decode_block(code, word[i], word[i + 1], i))
            for j in range(i + 2, i + k):
                if word[j] != 0:
                    raise TauDecodeError(f"gap cell holds {word[j]}", j)
        return Cyclic(tuple(pairs))
    if isinstance(config, BiPeriodic):
        cfg = engine.canonicalize(config)
        if cfg.left != background or cfg.right != background:
            raise TauDecodeError(f"backgrounds do not match the spacing-{k} quiescent block")
        start = cfg.center_offset - cfg.center_offset % k
        end = cfg.center_offset + len(cfg.center)
        end = -((-end) // k) * k
        pairs = []
        for x in range(start, end, k):
            pairs.append(
                reference_decode_block(code, engine.cell_at(cfg, x), engine.cell_at(cfg, x + 1), x)
            )
            for j in range(x + 2, x + k):
                if engine.cell_at(cfg, j) != 0:
                    raise TauDecodeError(f"gap cell holds {engine.cell_at(cfg, j)}", j)
        return engine.canonicalize(Finite(start // k, tuple(pairs), QUIESCENT_PAIR))
    raise TauDecodeError(
        "finite configurations are never block encodings (the background is not quiescent)"
    )
