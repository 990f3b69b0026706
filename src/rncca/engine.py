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

Every shape is read through one layout, ``_parts``: a finite
configuration is the bi-periodic one on the background ``(q,)``, and a
cyclic word the one with an empty center between two copies of the
word.  Windows, checks, canonical forms and the padded rows all read
that layout; only stepping keeps a cyclic word as a ring.  One builder,
``_canonical``, gives the canonical form of that layout for
``canonicalize`` and for every stepped finite or bi-periodic row.

Stepping any shape returns the canonical form of the image, so stepped
configurations compare with plain ``==``.  Cell values are the integers
``0..state_count-1``; partitioned cells step as their integer codes (see
``rpca``).  Every step goes through one row stepper: a configuration is
laid out as a numpy row, each neighborhood offset is a shifted slice of
it, and the rule's batch evaluator computes the whole image at once (a
table rule's evaluator gathers each cell's index shares once, for all
offsets).
``run`` keeps its trajectory as those rows: a configuration is built
from its row only when ``Trajectory.configs`` is first read, and
``window_matrix`` reads windows from the rows alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
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
    "window_matrix",
    "canonicalize",
    "configs_equal",
    "window_growth",
]

@dataclass(frozen=True)
class Rule:
    """A synchronous local update rule on the states 0..state_count-1.

    ``local`` takes one argument per neighborhood offset, in
    neighborhood order.  ``local_batch``, when present, evaluates a
    list of numpy arrays (one per offset) that broadcast together, and
    must agree with ``local`` on every element of their broadcast.
    Stepping and the sweeps evaluate the rule through it, or through
    ``local`` applied element by element when it is None.
    """

    state_count: int
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
    """A rule with the configurations it visited at t = 0..T.

    ``rows`` is None, or what ``run`` stepped as numpy rows: per t, a
    pair ``(x0, cells)`` whose integer array ``cells`` holds the cells
    of ``configs[t]`` at x0, x0 + 1, ...  A cyclic row is the word at
    x0 = 0; a finite or bi-periodic row covers the whole center, opens
    with at least one period of the left background of ``start`` and
    closes with at least one of the right.  ``run`` keeps only the rows
    and the configuration it stepped: ``configs`` is built from them
    when first read, then kept.  ``rows`` takes no part in ``==``,
    ``hash`` or ``repr``.
    """

    rule: Rule
    configs: tuple
    rows: tuple | None = field(default=None, compare=False, repr=False)
    # What ``run`` stepped, as given; None for a trajectory built otherwise.
    _start: object = field(default=None, init=False, compare=False, repr=False)

    def __getattr__(self, name):
        # Reached only for a missing attribute: ``configs`` of a
        # trajectory that ``run`` built, while it is not yet read.
        start = self._start
        if name != "configs" or start is None:
            raise AttributeError(f"'Trajectory' object has no attribute {name!r}")
        primitive = {}
        configs = (canonicalize(start), *(_row_config(start, x0, cells, primitive) for x0, cells in self.rows[1:]))
        object.__setattr__(self, "configs", configs)
        return configs

    @property
    def start(self):
        """The configuration at t = 0, read without building ``configs``:
        the one ``run`` was given, of which ``configs[0]`` is the
        canonical form, or else ``configs[0]``."""
        return self.configs[0] if self._start is None else self._start


def make_rule(state_count, neighborhood, local_map, quiescent):
    """Build an integer-state rule, validating the quiescent fixed point.

    ``local_map`` is a callable on m states, a mapping that covers every
    m-tuple of states, or a pair ``(keys, outputs)``: an n x m array of
    neighborhoods and their n outputs, read like the mapping built from
    them in order.  Tables are checked for totality and output range and
    are evaluated from one flat numpy table, scalar and batch.  A
    callable is checked here only at the all-quiescent tuple; stepping
    and the sweeps refuse its images outside the states as they occur
    (``_batch_of``).
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
        keys, outputs = local_map if isinstance(local_map, tuple) else _mapping_entries(local_map, s, m)
        flat = _flat_table(s, m, np.asarray(keys).reshape(-1, m), np.asarray(outputs))
        cells = memoryview(flat)

        def local(*hood, _cells=cells, _s=s):
            idx = 0
            for x in hood:
                if not 0 <= x < _s:
                    raise KeyError(hood)
                idx = idx * _s + x
            return _cells[idx]

        batch = _IndexTable(np.arange(s, dtype=np.int64)[:, None] * s ** np.arange(m - 1, -1, -1), flat)

    if local(*([quiescent] * m)) != quiescent:
        raise ValueError("quiescent state must map to itself on the all-quiescent neighborhood")
    return Rule(s, nb, local, quiescent, batch)


def _mapping_entries(local_map, s, m):
    """The keys and outputs of a mapping, in order."""
    table = {}
    for key, value in dict(local_map).items():
        if not isinstance(key, tuple):
            raise ValueError(f"local map keys must be {m}-tuples, got {key!r}")
        table[key] = int(value)
    integral = (int, np.integer)
    bad = next((key for key in table if len(key) != m or not all(isinstance(x, integral) for x in key)), None)
    if bad is not None:
        if len(table) != s**m:
            raise ValueError(f"local map must cover all {s ** m} neighborhoods, got {len(table)}")
        raise ValueError(f"neighborhood key {bad} out of range")
    return list(table), list(table.values())


def _flat_table(s, m, keys, outputs):
    """The s**m outputs, in neighborhood order, of a table given as
    ``keys`` (n x m) and ``outputs``, read like the dict built from them:
    a repeated key keeps its first place and its last output.

    Whole-number keys that cover every neighborhood once, outputs in
    range, fill the table from the arrays in any order.  Any other table
    is read as its dict, which raises make_rule's totality error, then
    its range error for the first key in that order that is out of range
    or fractional, or maps out of range.
    """
    size = s**m
    # The length test comes first: s ** arange(m) overflows int64 for a
    # header such as states=10**19, whose table is always too short.
    if (
        len(keys) == len(outputs) == size
        and keys.min() >= 0
        and keys.max() < s
        and not (keys % 1).any()
        and outputs.min() >= 0
        and outputs.max() < s
    ):
        # As many keys as neighborhoods, all in range: when they cover
        # every slot (none stays -1), none repeats and the dict would
        # give the same table.
        index = (keys @ s ** np.arange(m - 1, -1, -1)).astype(np.intp)
        flat = np.full(size, -1, dtype=np.int64)
        flat[index] = outputs
        if flat.min() >= 0:
            return flat
    table = dict(zip(map(tuple, keys.tolist()), outputs.tolist(), strict=True))
    if len(table) != size:
        raise ValueError(f"local map must cover all {size} neighborhoods, got {len(table)}")
    for key, value in table.items():
        if min(key) < 0 or max(key) >= s or any(x % 1 for x in key):
            raise ValueError(f"neighborhood key {key} out of range")
        if not 0 <= value < s:
            raise ValueError(f"output {value} for neighborhood {key} out of range")
    flat = np.empty(size, dtype=np.int64)
    flat[np.ravel_multi_index(np.array(list(table), dtype=np.int64).T, (s,) * m)] = list(table.values())
    return flat


def window_growth(neighborhood):
    """Cells a step can newly reach: (left growth, right growth) of support.

    A cell at p influences positions p - n_i, so support spreads
    opposite to the offset signs.
    """
    return max(0, max(neighborhood)), max(0, -min(neighborhood))


def cell_at(config, x):
    """Total cell lookup: every integer position yields a state."""
    return window_cells(config, x, x)[0]


def _parts(config):
    """The layout ``(left, center, c0, right)`` that every shape is read
    as: ``center`` holds the cells from ``c0`` on, and the pinned words
    ``left`` and ``right`` the cells before it and after it.  A finite
    configuration lies on the background ``(q,)``; a cyclic word is both
    backgrounds around an empty center at 0."""
    if isinstance(config, BiPeriodic):
        return config.left, config.center, config.center_offset, config.right
    if isinstance(config, Finite):
        background = (config.quiescent,)
        return background, config.word, config.offset, background
    if isinstance(config, Cyclic):
        return config.word, (), 0, config.word
    raise TypeError(f"not a configuration: {config!r}")


def _center_span(config):
    """The first and last position of the center of ``_parts(config)``;
    an empty center spans the one cell at its offset."""
    _, center, c0, _ = _parts(config)
    return c0, c0 + max(len(center), 1) - 1


def _primitive_pinned(word):
    """Shortest prefix generating the same pinned periodic function."""
    n = len(word)
    for d in range(1, n):
        if n % d == 0 and all(word[i] == word[i % d] for i in range(n)):
            return word[:d]
    return word


def _canonical(shape, left, center, c0, right):
    """The canonical ``shape`` (``Finite`` or ``BiPeriodic``) of the
    layout ``(left, center, c0, right)`` on the primitive pinned
    backgrounds ``left`` and ``right``: a center that keeps no cell equal
    to the phase-aligned background at either end, and an empty center
    at offset 0 between equal backgrounds, at the leftmost valid boundary
    otherwise.  A finite configuration's quiescent cell is ``left[0]``."""
    nl, nr = len(left), len(right)
    i, j = 0, len(center)
    while i < j and center[i] == left[(c0 + i) % nl]:
        i += 1
    while i < j and center[j - 1] == right[(c0 + j - 1) % nr]:
        j -= 1
    c0 += i
    if i == j:
        if left == right:
            c0 = 0
        else:
            # Distinct pinned backgrounds disagree at unboundedly many
            # positions, so this walk terminates.
            while left[(c0 - 1) % nl] == right[(c0 - 1) % nr]:
                c0 -= 1
    if shape is Finite:
        return Finite(c0, center[i:j], left[0])
    return BiPeriodic(left, center[i:j], c0, right)


def canonicalize(config):
    """Return the unique canonical form of a configuration.

    Cyclic: stored as given.  Otherwise ``_canonical`` of its ``_parts``
    with each background reduced to its shortest pinned period: a
    bi-periodic center keeps no cell equal to the phase-aligned
    background, and a finite word no quiescent cell at either end (the
    empty word sits at offset 0).
    """
    if isinstance(config, Cyclic):
        return config
    left, center, c0, right = _parts(config)
    return _canonical(type(config), _primitive_pinned(left), center, c0, _primitive_pinned(right))


def configs_equal(a, b):
    """Equality on canonical forms, for configurations that may not be
    canonical yet.  Stepping and encoding already return canonical
    values, so ``==`` suffices on their results."""
    return canonicalize(a) == canonicalize(b)


def _check_config(rule, cfg):
    """Refuse a configuration that ``rule`` cannot step: a finite one
    on another background than the rule's quiescent state, or one with
    a cell that is not a state."""
    left, center, _, right = _parts(cfg)
    if isinstance(cfg, Finite) and cfg.quiescent != rule.quiescent:
        raise ValueError("configuration background does not match the rule's quiescent state")
    s = rule.state_count
    # A background that is both sides is checked once.
    for value in itertools.chain(left, center, () if right is left else right):
        if not (isinstance(value, int) and 0 <= value < s):
            raise ValueError(f"state {value!r} out of range for {s} states")


class _IndexTable:
    """The batch evaluator of a table rule: ``table`` at the flat index
    whose share from offset i is ``terms[q, i]`` for a cell in state q.
    Called on columns that may broadcast, it sums the shares in pairs,
    first offset with last, and not in place: on a sweep's digit grid
    each pair spans fewer axes than the whole."""

    def __init__(self, terms, table):
        self.terms, self.table = terms, table
        self._columns = [np.ascontiguousarray(column) for column in terms.T]

    def __call__(self, cols):
        t, m = self._columns, len(cols)
        # Offset i pairs with offset ~i, a middle offset stands alone, and
        # each pair is made as the sum reaches it: none outlives the gather.
        pairs = (
            t[i].take(cols[i]) + t[~i].take(cols[~i]) if 2 * i < m - 1 else t[i].take(cols[i])
            for i in range((m + 1) // 2)
        )
        return self.table.take(sum(pairs, next(pairs)))


def _batch_of(rule):
    """The rule's batch evaluator: ``local_batch``, or else ``local``
    applied element by element over the broadcast columns.  ``make_rule``
    checks a table's outputs but trusts a callable's, so this path raises
    ValueError on an image outside 0 .. s-1: steps and sweeps index by
    images."""
    if rule.local_batch is not None:
        return rule.local_batch
    local, s = rule.local, rule.state_count

    def batch(cols):
        cols = np.broadcast_arrays(*cols)
        hoods = zip(*(col.ravel().tolist() for col in cols))
        images = np.array([local(*hood) for hood in hoods], dtype=np.int64)
        outside = np.flatnonzero((images < 0) | (images >= s))
        if outside.size:
            i = outside[0]
            hood = tuple(int(col.flat[i]) for col in cols)
            raise ValueError(f"local rule maps {hood} to {images[i]}, outside the states 0 .. {s - 1}")
        return images.reshape(cols[0].shape)

    return batch


def step(rule, config):
    """Apply the global map once and canonicalize the image: one step
    of ``_run_rows``, whose image is canonical for any start.

    Finite support can grow by at most ``window_growth(rule.neighborhood)``
    cells per side; cyclic words keep their length; bi-periodic
    backgrounds step as rings (spatial periodicity commutes with the
    global map) while the center is recomputed over a widened window.
    """
    _check_config(rule, config)
    return _row_config(config, *_run_rows(rule, config, 1)[1], {})


def run(rule, config, steps):
    """Step ``config`` repeatedly, returning a Trajectory of length steps + 1.

    Whole rows step as numpy arrays and are kept as the trajectory's
    ``rows``; its configurations, the canonical start and iterated
    ``step``, are built from them when first read.
    """
    if steps < 0:
        raise ValueError(f"step count must be non-negative, got {steps}")
    # Refused as ``step`` would refuse it, even when it is not stepped.
    _check_config(rule, config)
    trajectory = object.__new__(Trajectory)
    vars(trajectory).update(rule=rule, rows=tuple(_run_rows(rule, config, steps)), _start=config)
    return trajectory


def window_cells(config, x_min, x_max):
    """The cells of ``config`` at x_min..x_max, as one tuple: a finite
    configuration is quiescent beyond its word, and periodic words are
    pinned to absolute positions."""
    left, center, c0, right = _parts(config)
    c1 = c0 + len(center)
    lo, hi = max(x_min, c0), min(x_max + 1, c1)
    return (
        _pinned_cells(left, x_min, min(x_max + 1, c0))
        + (center[lo - c0 : hi - c0] if lo < hi else ())
        + _pinned_cells(right, max(x_min, c1), x_max + 1)
    )


def window_matrix(trajectory, x_min, x_max):
    """``window_cells`` of every configuration of a trajectory with
    ``rows``, as one integer matrix: row t, column x - x_min.
    Read from ``trajectory.rows`` alone: a cell before a row repeats the
    row's first ``nl`` cells and one after it the last ``nr``, the
    background periods of its start (a cyclic row is read as x % n)."""
    left, _, _, right = _parts(trajectory.start)
    nl, nr = len(left), len(right)
    xs = np.arange(x_min, x_max + 1)
    width = len(xs)
    matrix = np.empty((len(trajectory.rows), width), dtype=np.intp)
    for out, (x0, cells) in zip(matrix, trajectory.rows):
        n = len(cells)
        a = min(max(x0 - x_min, 0), width)
        b = min(max(x0 + n - x_min, a), width)
        out[a:b] = cells[x_min + a - x0 : x_min + b - x0]
        if a:
            out[:a] = cells[(xs[:a] - x0) % nl]
        if b < width:
            out[b:] = cells[(xs[b:] - x0 - n) % nr - nr]
    return matrix


def _pinned_cells(word, start, stop):
    """``word[x % len(word)]`` for start <= x < stop."""
    if stop <= start:
        return ()
    n = len(word)
    k = start % n
    return (word * ((k + stop - start - 1) // n + 1))[k : k + stop - start]


def _shrink_step(rule, rows):
    """One step of ``rule`` on the rows along the last axis of ``rows``,
    kept to the cells whose whole neighborhood they hold: each offset is
    a shifted slice, and the image is ``max(nb) - min(nb)`` cells
    shorter, its cell i being the row's cell ``i - min(nb)``.  A table
    rule's ``_IndexTable`` gathers every cell's index shares at once;
    each offset's share is then a shifted view, the first and last
    summed into a new contiguous index and the others added in place."""
    nb = rule.neighborhood
    lo = min(nb)
    width = rows.shape[-1] - (max(nb) - lo)
    batch = _batch_of(rule)
    if not isinstance(batch, _IndexTable):
        return batch([rows[..., d - lo : d - lo + width] for d in nb])
    shares = batch.terms.take(rows, axis=0)
    views = [shares[..., d - lo : d - lo + width, i] for i, d in enumerate(nb)]
    # A sum into a strided view would be slower than this one copy.
    index = views[0] + views[-1] if len(nb) > 1 else views[0]
    for view in views[1:-1]:
        index += view
    return batch.table.take(index)


def _run_rows(rule, cfg, steps):
    """The ``Trajectory.rows`` of t = 0..steps, stepped as numpy rows.

    Cyclic words step as rings: before each step, the row gathers its
    wrapped cells through one ring index, and the image is the word at
    x0 = 0 again.  Otherwise the start is padded once to the light cone
    of ``steps`` plus one background period per side, and each step
    takes the whole row; it loses (max - min offset) cells, and at every
    t the row still holds the whole center with one period of each
    stepped background at its ends, as ``_row_config`` and
    ``window_matrix`` read it.
    """
    nb = rule.neighborhood
    lo, hi = min(nb), max(nb)
    if isinstance(cfg, Cyclic):
        row = np.array(cfg.word, dtype=np.intp)
        n = len(row)
        start, ring, shift = 0, np.arange(lo, n + hi) % n, 0
    else:
        left, center, c0, right = _parts(cfg)
        c1, nl, nr = c0 + len(center), len(left), len(right)
        wl, wr = window_growth(nb)
        start, ring, shift = c0 - nl - (wl - lo) * steps, slice(None), lo
        row = np.array(window_cells(cfg, start, c1 - 1 + nr + (wr + hi) * steps), dtype=np.intp)
    rows = [(start, row)]
    for _ in range(steps):
        row = _shrink_step(rule, row[ring])
        start -= shift
        rows.append((start, row))
    return rows


def _row_config(cfg, x0, cells, primitive):
    """The canonical configuration of the row ``(x0, cells)`` that
    ``_run_rows`` stepped from ``cfg``: a cyclic word, or ``_canonical``
    of the backgrounds at the row's ends (a finite row's quiescent cell
    too) and the center between.  ``primitive`` is ``_background``'s."""
    if isinstance(cfg, Cyclic):
        return Cyclic(tuple(cells.tolist()))
    left, _, _, right = _parts(cfg)
    nl, nr, n = len(left), len(right), len(cells)
    # The row opens with one period of the left background and closes
    # with one of the right: a cell is off a background where it first
    # differs from the cell one period further in.
    off_left = cells[nl:] != cells[: n - nl]
    off_right = off_left if nl == nr else cells[: n - nr] != cells[nr:]
    i = int(off_left.argmax())
    i = i + nl if off_left[i] else n
    j = n - nr - int(off_right[::-1].argmax())
    j = j if off_right[j - 1] else 0
    left = _background(cells[:nl], x0, primitive)
    right = _background(cells[-nr:], x0 + n - nr, primitive)
    return _canonical(type(cfg), left, tuple(cells[i:j].tolist()), x0 + i, right)


def _background(cells, x0, primitive):
    """The primitive pinned word of a background whose cells at x0,
    x0 + 1, ... are ``cells`` (one full period); ``primitive`` caches
    the reduction by word."""
    cells = cells.tolist()
    k = -x0 % len(cells)
    word = tuple(cells[k:] + cells[:k])
    if word not in primitive:
        primitive[word] = _primitive_pinned(word)
    return primitive[word]
