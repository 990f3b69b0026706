"""Core one-dimensional cellular automaton engine.

A rule updates every cell of an infinite line synchronously: the next
state of cell x is ``local(cell(x + n_1), ..., cell(x + n_m))`` for the
rule's neighborhood offsets ``(n_1, ..., n_m)``.  Three configuration
shapes make the infinite lattice finitely representable:

* ``Finite``  -- finitely many non-quiescent cells on a quiescent
  background.
* ``Cyclic``  -- a spatially periodic line, pinned to absolute
  coordinates: the cell at x is ``word[x % len(word)]``.
* ``BiPeriodic`` -- periodic backgrounds left and right of a finite
  center patch, each background pinned the same way as ``Cyclic``.

Stepping any shape returns the canonical form of the image, so stepped
configurations compare with plain ``==``.  Cell values are usually
integers ``0..state_count-1``; rules with ``state_count=None`` may use
other hashable cell values (partitioned cells are pairs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Rule",
    "Finite",
    "Cyclic",
    "BiPeriodic",
    "Trajectory",
    "make_rule",
    "cell_at",
    "step",
    "run",
    "window_cells",
    "canonicalize",
    "configs_equal",
    "window_growth",
]

# Flat numpy lookup tables for batch evaluation are built only below
# this many entries; larger rules stay computed on demand.
_BATCH_TABLE_LIMIT = 1 << 22


@dataclass(frozen=True)
class Rule:
    """A synchronous local update rule.

    ``local`` takes one argument per neighborhood offset, in
    neighborhood order.  ``local_batch``, when present, evaluates a
    list of numpy column vectors (one per offset) and must agree with
    ``local`` element-wise; bulk sweeps and ``run`` use it when available.
    ``state_count`` is None for rules whose cells are not plain
    integers; integer-state rules get range-checked while stepping.
    """

    state_count: int | None
    neighborhood: tuple[int, ...]
    local: Callable
    quiescent: object
    local_batch: Callable | None = None


@dataclass(frozen=True)
class Finite:
    """Finitely supported configuration on a quiescent background."""

    offset: int
    word: tuple
    quiescent: object = 0

    def __post_init__(self):
        object.__setattr__(self, "word", tuple(self.word))


@dataclass(frozen=True)
class Cyclic:
    """Spatially periodic configuration, pinned: cell x holds word[x mod n]."""

    word: tuple

    def __post_init__(self):
        word = tuple(self.word)
        if not word:
            raise ValueError("cyclic word must be non-empty")
        object.__setattr__(self, "word", word)


@dataclass(frozen=True)
class BiPeriodic:
    """Periodic backgrounds around a finite center patch.

    Both background words are pinned to absolute coordinates: left of
    the center, cell x holds ``left[x % len(left)]``; at and beyond the
    center's end, ``right[x % len(right)]``.  Pinning makes canonical
    forms unique, so no rotation bookkeeping is needed for equality.
    """

    left: tuple
    center: tuple
    center_offset: int
    right: tuple

    def __post_init__(self):
        left = tuple(self.left)
        right = tuple(self.right)
        if not left or not right:
            raise ValueError("background words must be non-empty")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "center", tuple(self.center))
        object.__setattr__(self, "right", right)


@dataclass(frozen=True)
class Trajectory:
    """A rule with the configurations it visited at t = 0..T."""

    rule: Rule
    configs: tuple


def make_rule(state_count, neighborhood, local_map, quiescent):
    """Build an integer-state rule, validating the quiescent fixed point.

    ``local_map`` is either a callable on m states or a mapping that
    covers every m-tuple of states.  Mappings are checked for totality
    and output range and get a flat-table batch evaluator when small
    enough; callables are trusted on range except at the all-quiescent
    tuple.
    """
    nb = tuple(int(n) for n in neighborhood)
    if not nb:
        raise ValueError("neighborhood must not be empty")
    if len(set(nb)) != len(nb):
        raise ValueError(f"duplicate neighborhood offsets in {nb}")
    s = int(state_count)
    if s < 1:
        raise ValueError("state_count must be at least 1")
    if not (isinstance(quiescent, int) and 0 <= quiescent < s):
        raise ValueError(f"quiescent state {quiescent!r} out of range for {s} states")
    m = len(nb)
    batch = None
    if callable(local_map):
        local = local_map
    else:
        table = {}
        for key, value in dict(local_map).items():
            if not isinstance(key, tuple):
                raise ValueError(f"local map keys must be {m}-tuples, got {key!r}")
            table[key] = int(value)
        if len(table) != s**m:
            raise ValueError(
                f"local map must cover all {s ** m} neighborhoods, got {len(table)}"
            )
        for key, value in table.items():
            if len(key) != m or any(not (0 <= x < s) for x in key):
                raise ValueError(f"neighborhood key {key} out of range")
            if not 0 <= value < s:
                raise ValueError(f"output {value} for neighborhood {key} out of range")

        def local(*cells, _table=table):
            return _table[cells]

        if s**m <= _BATCH_TABLE_LIMIT:
            flat = np.zeros(s**m, dtype=np.int64)
            for key, value in table.items():
                idx = 0
                for x in key:
                    idx = idx * s + x
                flat[idx] = value

            def batch(cols, _flat=flat, _s=s):
                idx = cols[0].astype(np.int64)
                for col in cols[1:]:
                    idx = idx * _s + col
                return _flat[idx]

    if local(*([quiescent] * m)) != quiescent:
        raise ValueError("quiescent state must map to itself on the all-quiescent neighborhood")
    return Rule(s, nb, local, quiescent, batch)


def window_growth(neighborhood):
    """Cells a step can newly reach: (left growth, right growth) of support.

    A cell at p influences positions p - n_i, so support spreads
    opposite to the offset signs.
    """
    return max(0, max(neighborhood)), max(0, -min(neighborhood))


def cell_at(config, x):
    """Total cell lookup: every integer position yields a state."""
    if isinstance(config, Finite):
        i = x - config.offset
        if 0 <= i < len(config.word):
            return config.word[i]
        return config.quiescent
    if isinstance(config, Cyclic):
        return config.word[x % len(config.word)]
    if isinstance(config, BiPeriodic):
        i = x - config.center_offset
        if i < 0:
            return config.left[x % len(config.left)]
        if i < len(config.center):
            return config.center[i]
        return config.right[x % len(config.right)]
    raise TypeError(f"not a configuration: {config!r}")


def _primitive_pinned(word):
    """Shortest prefix generating the same pinned periodic function."""
    n = len(word)
    for d in range(1, n):
        if n % d == 0 and all(word[i] == word[i % d] for i in range(n)):
            return word[:d]
    return word


def _canonicalize_finite(cfg):
    word = list(cfg.word)
    offset = cfg.offset
    q = cfg.quiescent
    while word and word[0] == q:
        word.pop(0)
        offset += 1
    while word and word[-1] == q:
        word.pop()
    if not word:
        offset = 0
    return Finite(offset, tuple(word), q)


def _canonicalize_biperiodic(cfg):
    left = _primitive_pinned(cfg.left)
    right = _primitive_pinned(cfg.right)
    nl, nr = len(left), len(right)
    cells = list(cfg.center)
    c0 = cfg.center_offset
    while cells and cells[0] == left[c0 % nl]:
        cells.pop(0)
        c0 += 1
    while cells and cells[-1] == right[(c0 + len(cells) - 1) % nr]:
        cells.pop()
    if not cells:
        if left == right:
            c0 = 0
        else:
            # Distinct pinned backgrounds disagree at unboundedly many
            # positions, so this walk terminates.
            while left[(c0 - 1) % nl] == right[(c0 - 1) % nr]:
                c0 -= 1
    return BiPeriodic(left, tuple(cells), c0, right)


def canonicalize(config):
    """Return the unique canonical form of a configuration.

    Finite: no quiescent cells at either end of the word (the empty
    word sits at offset 0).  Cyclic: stored as given.  BiPeriodic:
    background words reduced to their shortest pinned period, a center
    that keeps no cell equal to the phase-aligned background, and an
    empty center normalized (offset 0 between equal backgrounds,
    leftmost valid boundary otherwise).
    """
    if isinstance(config, Finite):
        return _canonicalize_finite(config)
    if isinstance(config, Cyclic):
        return config
    if isinstance(config, BiPeriodic):
        return _canonicalize_biperiodic(config)
    raise TypeError(f"not a configuration: {config!r}")


def configs_equal(a, b):
    """Equality on canonical forms, for configurations that may not be
    canonical yet.  Stepping and encoding already return canonical
    values, so ``==`` suffices on their results."""
    return canonicalize(a) == canonicalize(b)


def _check_int_states(rule, cells):
    s = rule.state_count
    for value in cells:
        if not (isinstance(value, int) and 0 <= value < s):
            raise ValueError(f"state {value!r} out of range for {s} states")


def _step_ring(rule, word):
    local = rule.local
    n = len(word)
    return tuple(
        local(*(word[(i + d) % n] for d in rule.neighborhood)) for i in range(n)
    )


def _step_finite(rule, cfg):
    if cfg.quiescent != rule.quiescent:
        raise ValueError("configuration background does not match the rule's quiescent state")
    if rule.state_count is not None:
        _check_int_states(rule, cfg.word)
    if not cfg.word:
        return Finite(0, (), cfg.quiescent)
    nb = rule.neighborhood
    wl, wr = window_growth(nb)
    lo, hi = min(nb), max(nb)
    length = len(cfg.word)
    ws = cfg.offset - wl
    we = cfg.offset + length - 1 + wr
    src_lo = ws + lo
    word = cfg.word
    offset = cfg.offset
    q = cfg.quiescent
    src = [
        word[p - offset] if 0 <= p - offset < length else q
        for p in range(src_lo, we + hi + 1)
    ]
    local = rule.local
    out = [
        local(*(src[x - src_lo + d] for d in nb)) for x in range(ws, we + 1)
    ]
    return _canonicalize_finite(Finite(ws, tuple(out), q))


def _step_cyclic(rule, cfg):
    if rule.state_count is not None:
        _check_int_states(rule, cfg.word)
    return Cyclic(_step_ring(rule, cfg.word))


def _step_biperiodic(rule, cfg):
    if rule.state_count is not None:
        _check_int_states(rule, cfg.left)
        _check_int_states(rule, cfg.center)
        _check_int_states(rule, cfg.right)
    nb = rule.neighborhood
    wl, wr = window_growth(nb)
    lo, hi = min(nb), max(nb)
    new_left = _step_ring(rule, cfg.left)
    new_right = _step_ring(rule, cfg.right)
    c0 = cfg.center_offset
    ws = c0 - wl
    we = c0 + len(cfg.center) - 1 + wr
    src_lo = ws + lo
    src = [cell_at(cfg, p) for p in range(src_lo, we + hi + 1)]
    local = rule.local
    out = [local(*(src[x - src_lo + d] for d in nb)) for x in range(ws, we + 1)]
    return _canonicalize_biperiodic(BiPeriodic(new_left, tuple(out), ws, new_right))


def step(rule, config):
    """Apply the global map once and canonicalize the image.

    Finite support can grow by at most ``window_growth(rule.neighborhood)``
    cells per side; cyclic words keep their length; bi-periodic
    backgrounds step as rings (spatial periodicity commutes with the
    global map) while the center is recomputed over a widened window.
    """
    if isinstance(config, Finite):
        return _step_finite(rule, config)
    if isinstance(config, Cyclic):
        return _step_cyclic(rule, config)
    if isinstance(config, BiPeriodic):
        return _step_biperiodic(rule, config)
    raise TypeError(f"not a configuration: {config!r}")


def run(rule, config, steps):
    """Step ``config`` repeatedly, returning a Trajectory of length steps + 1.

    Integer-state rules with a ``local_batch`` step whole rows as numpy
    arrays; the result equals iterated ``step``.  Other rules step one
    configuration at a time.
    """
    if steps < 0:
        raise ValueError(f"step count must be non-negative, got {steps}")
    configs = [canonicalize(config)]
    if steps and rule.state_count is not None and rule.local_batch is not None:
        configs += _run_rows(rule, configs[0], steps)
    else:
        for _ in range(steps):
            configs.append(step(rule, configs[-1]))
    return Trajectory(rule, tuple(configs))


def window_cells(config, x_min, x_max):
    """``cell_at(config, x)`` for every x in x_min..x_max, as one tuple."""
    if isinstance(config, Cyclic):
        return _pinned_cells(config.word, x_min, x_max + 1)
    if isinstance(config, Finite):
        left = right = (config.quiescent,)
        center, c0 = config.word, config.offset
    elif isinstance(config, BiPeriodic):
        left, center, c0, right = config.left, config.center, config.center_offset, config.right
    else:
        raise TypeError(f"not a configuration: {config!r}")
    c1 = c0 + len(center)
    lo, hi = max(x_min, c0), min(x_max + 1, c1)
    return (
        _pinned_cells(left, x_min, min(x_max + 1, c0))
        + (center[lo - c0 : hi - c0] if lo < hi else ())
        + _pinned_cells(right, max(x_min, c1), x_max + 1)
    )


def _pinned_cells(word, start, stop):
    """``word[x % len(word)]`` for start <= x < stop."""
    if stop <= start:
        return ()
    n = len(word)
    k = start % n
    return (word * ((k + stop - start - 1) // n + 1))[k : k + stop - start]


def _run_rows(rule, cfg, steps):
    """The canonical configurations at t = 1..steps, stepped as numpy rows.

    Cyclic words step as rings.  Otherwise the start is padded once to
    the light cone of ``steps`` plus one background period per side;
    each step then loses (max - min offset) cells, and at every t the
    row still holds the whole center with at least one background
    period beyond it on each side, from which the stepped backgrounds
    are read.
    """
    nb = rule.neighborhood
    batch = rule.local_batch
    if isinstance(cfg, Cyclic):
        _check_int_states(rule, cfg.word)
        row = np.array(cfg.word, dtype=np.intp)
        out = []
        for _ in range(steps):
            row = batch([np.roll(row, -d) for d in nb])
            out.append(Cyclic(tuple(row.tolist())))
        return out
    if isinstance(cfg, Finite):
        if cfg.quiescent != rule.quiescent:
            raise ValueError("configuration background does not match the rule's quiescent state")
        _check_int_states(rule, cfg.word)
        c0, c1 = cfg.offset, cfg.offset + len(cfg.word)
        nl = nr = 0
    else:
        _check_int_states(rule, cfg.left)
        _check_int_states(rule, cfg.center)
        _check_int_states(rule, cfg.right)
        c0, c1 = cfg.center_offset, cfg.center_offset + len(cfg.center)
        nl, nr = len(cfg.left), len(cfg.right)
    lo, hi = min(nb), max(nb)
    wl, wr = window_growth(nb)
    start = c0 - nl - (wl - lo) * steps
    row = np.array(window_cells(cfg, start, c1 - 1 + nr + (wr + hi) * steps), dtype=np.intp)
    primitive = {}
    out = []
    for _ in range(steps):
        width = len(row) - (hi - lo)
        row = batch([row[d - lo : d - lo + width] for d in nb])
        start -= lo
        if isinstance(cfg, Finite):
            out.append(_finite_from_row(row, start, cfg.quiescent))
            continue
        left = _background(row[:nl], start, primitive)
        right = _background(row[-nr:], start + width - nr, primitive)
        out.append(_biperiodic_from_row(row, start, left, right))
    return out


def _background(cells, x0, primitive):
    """The primitive pinned word of a background whose cells at x0,
    x0 + 1, ... are ``cells`` (one full period); ``primitive`` caches
    the reduction by word."""
    word = tuple(np.roll(cells, x0 % len(cells)).tolist())
    if word not in primitive:
        primitive[word] = _primitive_pinned(word)
    return primitive[word]


def _finite_from_row(row, start, q):
    live = np.flatnonzero(row != q)
    if not live.size:
        return Finite(0, (), q)
    i, j = int(live[0]), int(live[-1]) + 1
    return Finite(start + i, tuple(row[i:j].tolist()), q)


def _biperiodic_from_row(row, start, left, right):
    """Canonical form of a row whose cells left of the center follow the
    pinned word ``left`` and those right of it ``right``."""
    xs = np.arange(start, start + len(row))
    off_left = np.flatnonzero(row != np.array(left)[xs % len(left)])
    off_right = np.flatnonzero(row != np.array(right)[xs % len(right)])
    i = int(off_left[0]) if off_left.size else len(row)
    j = int(off_right[-1]) + 1 if off_right.size else 0
    if i < j:
        return BiPeriodic(left, tuple(row[i:j].tolist()), start + i, right)
    # Empty center: every cell from start + i on follows ``right``.
    return _canonicalize_biperiodic(BiPeriodic(left, (), start + i, right))
