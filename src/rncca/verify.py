"""Brute-force and sampled oracles for the toolkit's contracts.

Every check returns a VerificationReport describing the enumerated or
sampled domain, the verdict, and a counterexample when one exists.
Reports are reproducible: the same property, bounds, and seed give the
same verdict and counterexample.

Exhaustive ``conserve`` and ``inject`` sweep digit grids, not word
matrices: each word position is ``np.arange(s)`` on its own axis of a
broadcast grid, so an image cell reads only its neighborhood's axes.
On cyclic words they evaluate the rule once per word: a global map
commutes with the shift, so every image cell is a rotation of cell 0.
The other oracles step their configurations together as the rows of
numpy matrices.  Sweeps go in chunks of bounded size and fixed order;
sampled ones draw every word in the documented order before stepping
it.  The simulation oracles then rerun one start (the first failing
one, or the last one on a pass) through the public stepping functions,
which confirm the verdict and word the counterexample.  Every sweep
evaluates a rule through ``engine``'s batch evaluator, as stepping
does.  All sums are exact integer arithmetic.
"""

from __future__ import annotations

import itertools
import random
import shlex
import time
from dataclasses import dataclass

import numpy as np

from . import engine
from .convert import _block_values, _encode, _gap_list, _layout, _whole, convert, encode_tau_prime
from .engine import Cyclic, Finite, Trajectory, window_growth
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
# Keys per intp copy in the ``inject`` coverage pass: a copy this small
# stays in cache and comes from the heap, where a chunk-sized one is a
# fresh mapping that every chunk faults in page by page.
_SCATTER_BLOCK = 1 << 13
# Cells per row matrix in the sampled and simulation sweeps.
_ROW_CELLS = 1 << 16
# Generator outputs per read in the sampled draws.
_DRAW_BLOCK = 1 << 12
# The mass ledger's windows, as (left, right) offsets from the aligned
# window, in the order they are tried: aligned, widened left, right, both.
_WIDENINGS = ((0, 0), (-1, 0), (0, 1), (-1, 1))


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


def _check_bounds(mode, count, seed, **bounds):
    """Reject a sampled mode without a count or a seed (``Random(None)``
    draws from OS entropy), bounds that are not whole numbers or would
    leave the domain empty (a vacuous pass), then a mode other than
    exhaustive and sampled.  Returns the bounds as ints, in order, then
    the count: a bound too, checked and an int, in sampled mode."""
    if mode == "sampled":
        if count is None or seed is None:
            raise ValueError(f"sampled mode needs a {'count' if count is None else 'seed'}")
        bounds["sample count"] = count
    checked = []
    for name, value in bounds.items():
        checked.append(_whole(value, name))
        if checked[-1] < 1:
            raise ValueError(f"{name} must be at least 1, got {checked[-1]}")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    return checked if mode == "sampled" else checked + [count]


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


def _grids(s, length, chunk):
    """All s**length words in lexicographic order, in chunks of at most
    ``chunk`` words (over chunk / s unless fewer remain), as (index of
    the chunk's first word, one column per position).  The columns
    broadcast to a grid (rows, s, ..., s): each trailing position is
    ``np.arange(s)`` on its own axis and the leading ones share axis 0,
    so the grid's C-order ravel is lexicographic.  With fewer than s
    rows, each run of s rows (one value of the leading digits but the
    last) splits into even chunks, so no chunk crosses from one run to
    the next."""
    tail = 0
    while tail < length - 1 and s ** (tail + 1) <= chunk:
        tail += 1
    lead = length - tail
    trailing = [np.arange(s).reshape([s if a == t else 1 for a in range(-1, tail)]) for t in range(tail)]
    rows = max(1, chunk // s**tail)
    run = s if rows < s else s**lead
    rows = -(-run // -(-run // rows))
    for start in (first + r for first in range(0, s**lead, run) for r in range(0, run, rows)):
        idx = np.arange(start, min(start + rows, start - start % run + run)).reshape((-1,) + (1,) * tail)
        yield start * s**tail, [idx // s ** (lead - 1 - j) % s for j in range(lead)] + trailing


def _digits(index, s, length):
    """The base-s digits of ``index``, most significant first, in Python
    integers: a domain may hold more words than int64 can count."""
    return tuple(index // s**i % s for i in reversed(range(length)))


def _image_cells(rule, cols):
    """One step of the cyclic words whose cell i is ``cols[i]``, for
    columns that broadcast together: the image's cells, as columns that
    broadcast against them.  A zero-padded finite word of length L has
    the same image cells, rotated, as the ring of length L + m with
    m = max(nb) - min(nb) quiescent cells after it: no neighborhood then
    reads both ends of the word."""
    batch = engine._batch_of(rule)
    n = len(cols)
    return [batch([cols[(i + d) % n] for d in rule.neighborhood]) for i in range(n)]


def _word_literal(word, cyclic=False):
    cfg = Cyclic(tuple(word)) if cyclic else Finite(0, tuple(word), 0)
    return format_configuration(cfg)


def _check_budget(total, budget):
    if total > budget:
        raise ValueError(
            f"exhaustive sweep would step {total} words, over the budget of {budget};"
            " use sampled mode or raise the budget"
        )


def _check_starts(p, mode, length, budget):
    """Refuse an exhaustive simulation sweep whose starts, the
    (|C||R|)**length pair words of ``_start_rows``, exceed ``budget``."""
    if mode == "exhaustive":
        _check_budget((p.c_size * p.r_size) ** length, budget)


def _allocate(size, dtype, words, shorter):
    """``np.zeros(size, dtype)`` for an exhaustive sweep of ``words``
    words, or a ValueError that refuses the sweep when it does not fit."""
    try:
        return np.zeros(size, dtype=dtype)
    except (MemoryError, ValueError):
        raise ValueError(
            f"exhaustive sweep of {words} words needs more memory than is available;"
            f" use sampled mode or a shorter {shorter}"
        ) from None


def _grid_shape(cols):
    return np.broadcast_shapes(*(col.shape for col in cols))


def _cell_zero_axes(nb, n):
    """The positions of a cyclic word of length n that image cell 0
    reads, and position 0 itself, whose cell ``conserve`` takes off
    image cell 0."""
    return sorted({0, *(d % n for d in nb)})


def _cell_zero_size(rule, n):
    """Entries of the cell-0 array of cyclic length n."""
    return rule.state_count ** len(_cell_zero_axes(rule.neighborhood, n))


def _cell_zero(rule, n, buffer):
    """Image cell 0 of every cyclic word of length n, as an array with
    one axis per word position: s long on the positions of
    ``_cell_zero_axes``, 1 long on the others.  It is evaluated chunk by
    chunk over the grid of those positions, into the front of ``buffer``
    and in its dtype."""
    s = rule.state_count
    axes = _cell_zero_axes(rule.neighborhood, n)
    batch = engine._batch_of(rule)
    for first, cols in _grids(s, len(axes), _CHUNK):
        shape = _grid_shape(cols)
        buffer[first : first + np.prod(shape)].reshape(shape)[...] = batch(
            [cols[axes.index(d % n)] for d in rule.neighborhood]
        )
    return buffer[: s ** len(axes)].reshape([s if i in axes else 1 for i in range(n)])


def _cyclic_cells(c0, cols):
    """The image cells of the cyclic words of the ``_grids`` chunk
    ``cols``, from their cell 0 over all words (``_cell_zero``).  A
    global map commutes with the shift, so cell i of a word is cell 0
    of the word rotated left by i: ``c0`` with its axes rotated by i,
    cut to the chunk's lead rows.
    Those share every leading digit but the last (``_grids``), so each
    cell is a view: the shared digits index their axes and the last
    one's range slices its axis, each where the cell reads that
    position."""
    n = c0.ndim
    lead = n + 1 - cols[0].ndim
    *fixed, last = (int(col.flat[0]) for col in cols[:lead])
    rows = slice(last, int(cols[lead - 1].flat[-1]) + 1)
    cells = []
    for i in range(n):
        cell = c0.transpose([(j - i) % n for j in range(n)])
        index = [digit if size > 1 else 0 for digit, size in zip(fixed, cell.shape)]
        cells.append(cell[(*index, rows if cell.shape[lead - 1] > 1 else slice(None))])
    return cells


def _first_unconserved(shape, s, cells, words=()):
    """(index, change) for the first word, in C order over ``shape``,
    whose cell sum one step changes by ``change``: the sum of the
    broadcast ``cells`` less that of the word's cells ``words``, all in
    0 .. s-1 in magnitude; or None.  The terms go into one accumulator,
    of the smallest dtype that holds every partial sum, which starts as
    the first cell and takes the rest in place.  Each term is cast to
    that dtype on its own shape first: an add that casts a broadcast
    operand runs numpy's buffered cast loop over the whole grid."""
    cells = list(cells)
    dtype = np.min_scalar_type(-(len(cells) + len(words)) * s)
    change = np.empty(shape, dtype=dtype)
    first, *rest = cells
    change[...] = first.astype(dtype, copy=False)
    for cell in rest:
        change += cell.astype(dtype, copy=False)
    for col in words:
        change -= col.astype(dtype, copy=False)
    bad = np.flatnonzero(change)
    return (int(bad[0]), int(change.flat[bad[0]])) if bad.size else None


def _conservation_counterexample(word, change, cyclic):
    return Counterexample(
        input=_word_literal(word, cyclic),
        expected=f"cell sum {sum(word)}",
        actual=f"cell sum {sum(word) + change}",
    )


def _draw_shift(n):
    """How far ``randrange(n)`` shifts a 32-bit output right: it keeps
    the top ``n.bit_length()`` bits, all from one output below 2**32."""
    if n >= 1 << 32:
        raise ValueError(f"sampled mode needs support and state counts below 2**32, got {n}")
    return 32 - n.bit_length()


class _Draws:
    """The sampled oracles' draws from ``random.Random(seed)``, read
    ``_DRAW_BLOCK`` 32-bit generator outputs at a time.

    In CPython, ``randrange(n)`` takes one output, keeps its top
    ``n.bit_length()`` bits and takes another while they are ``>= n``;
    ``randint(1, m)`` is ``1 + randrange(m)``; and ``getrandbits(32 * B)``
    is the next B outputs, the first in the lowest 32 bits.  Rejecting
    over a block therefore gives, value for value, what those calls made
    one at a time would.  Outputs read but not yet used wait for the
    next call, so the stream runs on unbroken across chunks.
    """

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self._pending = np.zeros(0, dtype=np.uint32)

    def _fresh(self, least=0):
        """The next ``least`` outputs, or one block if that is more."""
        size = max(least, _DRAW_BLOCK)
        return np.frombuffer(self._rng.getrandbits(32 * size).to_bytes(4 * size, "little"), "<u4")

    def below(self, n, size):
        """``size`` >= 1 draws of ``randrange(n)``, as an array."""
        shift = _draw_shift(n)
        parts = []
        outputs = self._pending
        while True:
            values = outputs >> shift
            kept = np.flatnonzero(values < n)[:size]
            parts.append(values[kept])
            size -= len(kept)
            if not size:
                break
            outputs = self._fresh()
        self._pending = outputs[kept[-1] + 1 :]
        return np.concatenate(parts).astype(np.min_scalar_type(n - 1))

    def words(self, count, max_length, s):
        """``count`` >= 1 words, each ``randint(1, max_length)`` draws of
        ``randrange(s)``: their lengths, and their cells as the rows of a
        matrix zero-padded to the longest.

        Words are linked in the ranks of the acceptable draws.  Over a
        read, let A be the outputs that are acceptable length draws and K
        those that are kept cell draws.  The word whose length draw is
        A[j] takes the next L kept cell draws: with k kept draws up to
        A[j], it ends at K[k + L - 1], and the next word's length draw is
        A[r], where r counts the acceptable length draws up to that end.
        So one walk over those successor ranks takes one step per word,
        and the cells, the kept draws after each length draw up to its
        end, are scattered into the rows.  A word that runs past the read
        carries over to the next read."""
        length_shift, cell_shift = _draw_shift(max_length), _draw_shift(s)
        lengths, pools = [], []
        outputs = self._pending
        while True:
            length_draw, cell_draw = outputs >> length_shift, outputs >> cell_shift
            length_ok, kept = length_draw < max_length, cell_draw < s
            at, held = np.flatnonzero(length_ok), np.flatnonzero(kept)
            kept_through = np.cumsum(kept, dtype=np.int32)
            # last[j]: the rank in K of the last cell of word j, or len(K)
            # when the word runs past the read.
            last = np.minimum(kept_through[at] + length_draw[at], len(held))
            # after[k]: the rank in A of the first length draw after K[k];
            # -1 past the end of K.
            after = np.append(np.cumsum(length_ok, dtype=np.int32)[held], -1)
            # succ[j]: the rank in A of the word after word j, or -1 when
            # word j runs past the read or when j is past the end of A.  The
            # walk reads only the entries it visits.
            walk = memoryview(np.append(after[last], -1))
            taken = []
            j = 0
            while count and (succ := walk[j]) >= 0:
                taken.append(j)
                j = succ
                count -= 1
            if taken:
                outputs = outputs[held[last[taken[-1]]] + 1 :]
            at = at[taken]
            drawn = length_draw[at].astype(np.int64) + 1
            lengths.append(drawn)
            # Laid end to end, the cells of word i start at cumsum(drawn)[i]
            # - drawn[i]; in K they start at the rank kept_through[at[i]].
            offset = kept_through[at] - (np.cumsum(drawn) - drawn)
            pools.append(cell_draw[held[np.repeat(offset, drawn) + np.arange(drawn.sum())]])
            if not count:
                break
            # The rest of a word: one more block, or as many outputs again
            # when a block already fell short.
            outputs = np.concatenate([outputs, self._fresh(len(outputs))])
        self._pending = outputs
        lengths = np.concatenate(lengths)
        columns = np.arange(lengths.max())
        cells = np.zeros((len(lengths), len(columns)), dtype=np.min_scalar_type(s - 1))
        cells[columns < lengths[:, None]] = np.concatenate(pools)
        return lengths, cells


def _first_sampled_unconserved(rule, lengths, cells, first):
    """Counterexample for the earliest sampled word whose cell sum one
    step changes, or None.  Word j is ``cells[j, :lengths[j]]``, draw
    number ``first + j``; even numbers are finite words, odd ones cyclic.
    Every word steps as a ring (``_image_cells``), in groups of one ring
    length: its own length for a cyclic word, and for every finite word
    the longest finite word plus the quiescent margin (padding adds
    quiescent cells, which changes no sum)."""
    nb = rule.neighborhood
    cyclic = (first + np.arange(len(lengths))) % 2 == 1
    rings = np.where(cyclic, lengths, lengths[~cyclic].max(initial=0) + max(nb) - min(nb))
    failures = []
    for n in np.unique(rings).tolist():
        members = np.flatnonzero(rings == n)
        words = np.ascontiguousarray(cells[members, : lengths[members].max()].T)
        margin = [np.zeros(1, dtype=words.dtype)] * (n - len(words))
        found = _first_unconserved(words.shape[1:], rule.state_count, _image_cells(rule, [*words, *margin]), words)
        if found:
            failures.append((int(members[found[0]]), found[1]))
    if not failures:
        return None
    j, change = min(failures)
    return _conservation_counterexample(cells[j, : lengths[j]].tolist(), change, bool(cyclic[j]))


def check_number_conserving(rule, *, mode="exhaustive", max_support=4, count=None, seed=None, budget=None):
    """Compare cell sums before and after one step.

    Exhaustive mode enumerates every zero-padded word of length
    ``max_support`` (which covers all supports up to that bound, up to
    translation) plus every cyclic word of length 1..max_support, and
    reports the first word, in that order, whose sum changes.  It
    refuses to start when that is more than ``budget`` words
    (s**max_support plus s**n for each n <= max_support), or when the
    memory for its cyclic buffer is not there.  A cyclic word of length
    n changes its sum by the sum, over its n rotations, of what image
    cell 0 changes cell 0 by (a global map commutes with the shift), so
    each cyclic length evaluates that change once per word, into the
    buffer, and adds its rotations; the buffer holds it for the longest
    length, one byte per word up to 128 states.
    Sampled mode draws ``count`` random configurations, alternating
    finite and cyclic, with lengths up to ``max_support``.
    """
    started = time.perf_counter()
    budget = DEFAULT_BUDGET if budget is None else budget
    max_support, budget, count = _check_bounds(mode, count, seed, support=max_support, budget=budget)
    if rule.quiescent != 0:
        raise ValueError("number conservation sums need quiescent state 0")
    s, nb = rule.state_count, rule.neighborhood
    if mode == "exhaustive":
        lengths = range(1, max_support + 1)
        total = s**max_support + sum(s**n for n in lengths)
        _check_budget(total, budget)
        domain = f"exhaustive states={s} finite words len={max_support} cyclic len<={max_support}"
        size = max(_cell_zero_size(rule, n) for n in lengths)
        buffer = _allocate(size, np.min_scalar_type(-s), total, "support")

        def sweep(length, cyclic):
            # A cyclic word's sum changes by the sum, over its rotations, of
            # what image cell 0 changes cell 0 by; a finite word steps as the
            # ring of it and a quiescent margin of max(nb) - min(nb) cells.
            if cyclic:
                net = _cell_zero(rule, length, buffer)
                net -= np.arange(s).reshape((s,) + (1,) * (length - 1))
            for first, cols in _grids(s, length, _CHUNK):
                margin = [np.zeros((1,) * cols[0].ndim, dtype=cols[0].dtype)] * (max(nb) - min(nb))
                cells, words = (_cyclic_cells(net, cols), ()) if cyclic else (_image_cells(rule, cols + margin), cols)
                found = _first_unconserved(_grid_shape(cols), s, cells, words)
                if found:
                    yield _conservation_counterexample(_digits(first + found[0], s, length), found[1], cyclic)

        failures = itertools.chain(sweep(max_support, False), *(sweep(n, True) for n in lengths))
    else:
        draws = _Draws(seed)
        domain = f"sampled states={s} count={count} support<={max_support} seed={seed}"
        rows = max(1, _ROW_CELLS // max_support)
        failures = (
            found
            for first in range(0, count, rows)
            if (found := _first_sampled_unconserved(rule, *draws.words(min(rows, count - first), max_support, s), first))
        )
    return _report("conserve", domain, next(failures, None), started)


def _image_keys(rule, n, c0, cols):
    """Images of the cyclic words of the ``_grids`` chunk ``cols``, read
    as base-s numbers (sum of img_i * s**(n-1-i)), flat in C order; the
    image cells are ``_cyclic_cells``.  Every partial sum is below s**n,
    so int32 holds them when s**n does: the keys are computed in int32
    (half the memory traffic of intp), and callers cast them to intp
    before they index with them.  The cells go into one
    accumulator in place.  When every cell spans the chunk, it takes
    them by Horner's rule.  Otherwise each cell is scaled on its own
    broadcast shape, into one contiguous scratch buffer, and added: a
    cell that skips a position is smaller than the chunk, and then no
    full-size pass multiplies the accumulator."""
    s = rule.state_count
    dtype = np.int32 if s**n <= 1 << 31 else np.int64
    keys = np.empty(_grid_shape(cols), dtype=dtype)
    first, *rest = cells = _cyclic_cells(c0, cols)
    if all(cell.size == keys.size for cell in cells):
        keys[...] = first
        for cell in rest:
            keys *= s
            keys += cell
        return keys.ravel()
    scratch = np.empty(max(cell.size for cell in cells), dtype=dtype)
    for i, cell in enumerate(cells):
        scaled = np.multiply(cell, s ** (n - 1 - i), out=scratch[: cell.size].reshape(cell.shape), dtype=dtype)
        if i:
            keys += scaled
        else:
            keys[...] = scaled
    return keys.ravel()


def _key_chunks(rule, n, c0):
    """(index of the chunk's first word, its image keys) for each
    ``_grids`` chunk of the cyclic words of length n."""
    for first, cols in _grids(rule.state_count, n, _CHUNK):
        yield first, _image_keys(rule, n, c0, cols)


def _least_collision(rule, n, c0, seen):
    """The smallest key that two cyclic words step to, for a rule known
    not to be injective on them; ``seen`` holds one cleared flag per
    word, read and marked through one intp copy of each chunk's sorted
    keys."""
    collision_key = len(seen)  # above every key
    for _, keys in _key_chunks(rule, n, c0):
        ordered = np.sort(keys).astype(np.intp, copy=False)
        # Keys an earlier chunk had or this one has twice; the first is least.
        hit = seen[ordered]
        hit[:-1] |= ordered[1:] == ordered[:-1]
        collision_key = min([collision_key, *ordered[hit][:1].tolist()])
        seen[ordered] = True
    return collision_key


def _byte_rows(matrix):
    """The rows of a C-contiguous matrix, each as one byte string."""
    return matrix.view(np.dtype((np.void, matrix.itemsize * matrix.shape[1]))).ravel()


def _injectivity_counterexample(rule, n, c0, collision_key):
    """The first two cyclic words, in lexicographic order, whose image
    has key ``collision_key``."""
    s = rule.state_count
    hits = []
    for first, keys in _key_chunks(rule, n, c0):
        hits += (first + np.flatnonzero(keys == collision_key)).tolist()
        if len(hits) >= 2:
            break
    image = _word_literal(_digits(collision_key, s, n), cyclic=True)
    return _collision(_digits(hits[0], s, n), _digits(hits[1], s, n), image)


def _collision(first, second, image_literal):
    return Counterexample(
        input=f"{_word_literal(first, True)} and {_word_literal(second, True)}",
        expected="distinct images",
        actual=f"both step to {image_literal}",
    )


def check_injective_cyclic(rule, n, *, mode="exhaustive", count=None, seed=None, budget=None):
    """Look for two distinct cyclic words of length n with the same image.

    Words are compared exactly, not up to rotation: a collision between
    rotations of one word is still an injectivity violation.  Exhaustive
    mode refuses to start when s**n exceeds the budget or the memory for
    one flag per word and image cell 0 of every word.  The rule is
    evaluated once per word, for image cell 0: a global map commutes
    with the shift, so image cell i of a word is cell 0 of the word
    rotated left by i, and every pass reads its image keys off
    rotations of that one array.  It marks the flag of every image, then
    decides by coverage, counting the flags once: the rule is injective
    exactly when all s**n flags are marked.  Keys are computed in int32
    when s**n fits and scattered into the flags as intp,
    ``_SCATTER_BLOCK`` keys per copy: a fancy assignment with int32
    indices costs more than the cast and an intp scatter together.
    Only a failing rule's keys are read again, for the collision with
    the smallest image (read as a base-s number), which it reports.
    Sampled mode reports the first draw whose image an earlier, different
    draw already had: it maps each image drawn to the word that first
    had it, walking the draws in order.
    """
    started = time.perf_counter()
    budget = DEFAULT_BUDGET if budget is None else budget
    n, budget, count = _check_bounds(mode, count, seed, cycle=n, budget=budget)
    s = rule.state_count
    counterexample = None
    if mode == "exhaustive":
        total = s**n
        _check_budget(total, budget)
        domain = f"exhaustive states={s} cycle={n} words={total}"
        seen = _allocate(total, bool, total, "cycle")
        c0 = _cell_zero(rule, n, _allocate(_cell_zero_size(rule, n), np.min_scalar_type(s - 1), total, "cycle"))
        # The s**n words have keys in 0 .. s**n - 1, so the rule is injective
        # exactly when their images mark every key (pigeonhole).
        for _, keys in _key_chunks(rule, n, c0):
            for start in range(0, len(keys), _SCATTER_BLOCK):
                seen[keys[start : start + _SCATTER_BLOCK].astype(np.intp, copy=False)] = True
        if np.count_nonzero(seen) < total:
            seen[:] = False
            counterexample = _injectivity_counterexample(rule, n, c0, _least_collision(rule, n, c0, seen))
    else:
        draws = _Draws(seed)
        domain = f"sampled states={s} cycle={n} count={count} seed={seed}"
        rows = max(1, _ROW_CELLS // n)
        # Image row -> the first word row with it, both as byte strings.
        seen = {}
        for first in range(0, count, rows):
            words = draws.below(s, min(rows, count - first) * n).reshape(-1, n)
            images = np.stack(np.broadcast_arrays(*_image_cells(rule, list(words.T))), axis=1)
            for i, (image, word) in enumerate(zip(_byte_rows(images).tolist(), _byte_rows(words).tolist())):
                if seen.setdefault(image, word) != word:
                    owner = np.frombuffer(seen[image], words.dtype)
                    counterexample = _collision(
                        owner.tolist(), words[i].tolist(), _word_literal(images[i].tolist(), True)
                    )
                    break
            if counterexample:
                break
    return _report("inject", domain, counterexample, started)


def _start_rows(p, mode, max_support, count, seed, rows, exact=False):
    """The simulation oracles' starts, at most ``rows`` at a time, as
    matrices of pair codes c*|R| + r on source cells 0..max_support-1.
    Sampled words draw a length ``randint(1, max_support)`` (none when
    ``exact``), then ``randrange(|C|)`` and ``randrange(|R|)`` per pair;
    shorter ones are padded with the quiescent code 0."""
    if mode == "exhaustive":
        # Lexicographic codes are itertools.product order over the pairs.
        for _, cols in _grids(p.c_size * p.r_size, max_support, rows):
            yield np.stack(np.broadcast_arrays(*cols), axis=-1).reshape(-1, max_support)
        return
    rng = random.Random(seed)
    for first in range(0, count, rows):
        codes = np.zeros((min(rows, count - first), max_support), dtype=np.int64)
        for word in codes:
            length = max_support if exact else rng.randint(1, max_support)
            word[:length] = [
                rng.randrange(p.c_size) * p.r_size + rng.randrange(p.r_size) for _ in range(length)
            ]
        yield codes


def _padding(rule, k, horizon, steps):
    """Source cells (left, right) to add around a start so that its
    derived row, stepped up to ``horizon`` times, still holds the light
    cone of the start and the encoding of the source after up to
    ``steps`` steps, plus one whole background block on each side: the
    invariant ``engine._run_rows`` keeps."""
    nb = rule.neighborhood
    wl, wr = window_growth(nb)
    lo, hi = min(nb), max(nb)
    right = max(k * steps, wr * horizon) + hi * horizon
    return -(-(wl - lo) * horizon // k) + 1, -(-right // k) + 1


def _tracking_failures(p, rule, k, words, periods, steps):
    """Where the derived CA stops tracking the source, for many starts.

    ``words`` holds one start per row, as from ``_start_rows``.  Returns
    ``bad`` with ``bad[i, t - 1, j]`` true when, for start j, the derived
    configuration after ``periods[i] * t`` steps differs from the
    spacing-k block encoding (``convert._encode``) of the source after t
    steps.  With the padding of ``_padding``, each compared row ends in a
    whole block of k cells beyond the light cone and the encoded source
    on each side; past those, both configurations are pinned k-periodic,
    so rows are equal exactly when the canonical configurations are.
    """
    code = rule.code
    # Each source cell becomes one block: hat, check, k - 2 quiescent cells.
    blocks = np.zeros((len(p._pairs), k), dtype=np.min_scalar_type(code.state_count - 1))
    blocks[:, :2] = _block_values(code, p._pairs)
    horizon = max(periods) * steps
    left, right = _padding(rule, k, horizon, steps)
    n, length = words.shape
    source = np.zeros((n, left + length + right), dtype=np.intp)
    source[:, left : left + length] = words
    # Each source cell's block is one k-cell item of ``cells``.
    cells = _byte_rows(blocks)
    encoded = [cells.take(source).view(blocks.dtype)]
    # The source rows after one quiescent column, cell x - 1 of their first cell.
    padded = np.zeros((n, source.shape[1] + 1), dtype=np.intp)
    for _ in range(steps):
        padded[:, 1:] = source
        # The source step on codes: the pair at x becomes table[c(x)][r(x - 1)].
        source = engine._shrink_step(p._forward, padded)
        encoded.append(cells.take(source).view(blocks.dtype))
    compared = {}
    for i, q in enumerate(periods):
        for t in range(1, steps + 1):
            compared.setdefault(q * t, []).append((i, t))
    nb = rule.neighborhood
    lo, hi = min(nb), max(nb)
    width = encoded[0].shape[1]
    row = encoded[0]
    bad = np.zeros((len(periods), steps, n), dtype=bool)
    # Each step drops hi - lo cells: the row after T steps covers cells
    # -lo*T .. width-1-hi*T of the encoded rows.
    for T in range(1, horizon + 1):
        row = engine._shrink_step(rule, row)
        for i, t in compared.get(T, ()):
            bad[i, t - 1] = (row != encoded[t][:, -lo * T : width - hi * T]).any(axis=1)
    return bad


def _track_start(p, rule, k, codes, periods, steps):
    """One start (pair codes ``codes``) through the public functions:
    ``step_rpca``, the block encoding and ``engine.run``.  Returns the
    periods q whose q derived steps track every source step and, when
    none does, the counterexample: the first t at which k derived steps
    per source step miss."""
    word = tuple(p._pairs[v] for v in codes.tolist())
    alpha = engine.canonicalize(Finite(0, word, QUIESCENT_PAIR))
    encoded = [_encode(rule.code, alpha, k)]
    source = alpha
    for _ in range(steps):
        source = step_rpca(p, source)
        encoded.append(_encode(rule.code, source, k))
    trajectory = engine.run(rule, encoded[0], max(periods) * steps).configs
    surviving = [
        q for q in periods if all(trajectory[q * t] == encoded[t] for t in range(1, steps + 1))
    ]
    if surviving:
        return surviving, None
    t_bad = next((t for t in range(1, steps + 1) if trajectory[k * t] != encoded[t]), None)
    if t_bad is None:
        expected = f"one period q <= {4 * k} working for every start"
        actual = "no candidate period survives this start"
    else:
        expected = f"t={t_bad} {format_configuration(encoded[t_bad])}"
        actual = f"t={t_bad} {format_configuration(trajectory[k * t_bad])}"
    return [], Counterexample(format_configuration(alpha), expected, actual)


def _confirm(found, swept, codes, what="periods"):
    """The sweep's verdict for one start (its periods, say) must be the
    one the public functions find; anything else is a fault in the
    batched path or a rule whose batch evaluator disagrees with itself
    across row shapes."""
    if found != swept:
        raise RuntimeError(
            f"batched sweep found {what} {swept} for start {codes.tolist()},"
            f" per-configuration stepping {found}"
        )


def _ledger_row(rule, gaps, steps):
    """The rows ``_ledger_failures`` steps: where ``convert._encode``
    puts each block from cell 0, how many cells it lays out, and the
    first cell and width of a row.  Every ledger window, widened
    included, lies in cells -3 .. cells + 3, its light part up to
    ``steps`` cells further right; a row this wide still holds those
    cells after ``steps`` steps."""
    starts, cells = _layout(len(gaps) + 1, gaps, 3, cyclic=False)
    nb = rule.neighborhood
    x0 = -3 + min(min(nb), 0) * steps
    return starts, cells, x0, cells + 4 + max(1 + max(nb), 0) * steps - x0


def _ledger_failures(p, rule, gaps, words, steps):
    """Which starts ``ledger_is_constant`` fails, for many starts.

    ``words`` holds one start per row, as from ``_start_rows``: start j
    is the finite pair word ``words[j]`` at offset 0, encoded as
    ``encode_tau_prime`` encodes it with ``gaps``.  Returns ``bad`` with
    ``bad[j]`` true when none of the ledger's windows (the start's
    ``_aligned_window`` and its ``_WIDENINGS``) keeps both its heavy sum
    and its light sum, taken t cells on, constant for t = 0..steps.

    Each start is one row: the pinned spacing-3 background with, from
    cell 0, the block layout of ``convert._encode``.  A step computes
    exactly the cells whose whole neighborhood the row holds, so every
    sum is read from exact cells, as prefix sums along the stepped rows.
    """
    code = rule.code
    lo = min(rule.neighborhood)
    n = len(words)
    starts, cells, x0, width = _ledger_row(rule, gaps, steps)
    background = np.array(code.quiescent_block + (0,), dtype=np.intp)[np.arange(x0, x0 + width) % 3]
    row = np.tile(background, (n, 1))
    row[:, -x0 : cells - x0] = 0
    blocks = np.array(_block_values(code, p._pairs), dtype=np.intp)  # (hat, check) by pair code
    row[:, starts - x0] = blocks[words, 0]
    row[:, starts - x0 + 1] = blocks[words, 1]
    # The canonical center: the first and last cells off the background;
    # an empty one sits at 0.
    off = row != background
    live = off.any(axis=1)
    first = np.where(live, off.argmax(axis=1) + x0, 0)
    last = np.where(live, x0 + width - 1 - off[:, ::-1].argmax(axis=1), 0)
    a, b = _aligned(first, last)
    # A sum over cells u..v is prefix[v + 1] - prefix[u]; ``ends`` holds u,
    # then v + 1, of each window of ``_WIDENINGS``.
    da, db = np.array(_WIDENINGS).T
    ends = np.concatenate([a[:, None] + da, b[:, None] + 1 + db], axis=1)
    w = len(_WIDENINGS)
    prefix = np.zeros((n, width + 1), dtype=np.int64)

    def windows(part, at):
        np.cumsum(part, axis=1, out=prefix[:, 1 : part.shape[1] + 1])
        sums = np.take_along_axis(prefix, at, axis=1)
        return sums[:, w:] - sums[:, :w]

    def ledger(row, t):
        """Heavy sums of the windows, then light sums t cells on."""
        at = ends - (x0 - lo * t)  # the row after t steps starts at x0 - lo*t
        light = row % code.light_modulus
        return np.concatenate([windows(row - light, at), windows(light, at + t)], axis=1)

    initial = ledger(row, 0)
    steady = np.ones(initial.shape, dtype=bool)
    for t in range(1, steps + 1):
        row = engine._shrink_step(rule, row).astype(np.intp)
        steady &= ledger(row, t) == initial
    return ~(steady[:, :w] & steady[:, w:]).any(axis=1)


def _sweep(starts, candidates, tracks):
    """Narrow ``candidates`` start by start over the row matrices
    ``starts``; ``tracks(words, candidates)`` says which candidates hold
    for each start of ``words``, as a (candidate, start) matrix.

    Returns the candidates that hold for every start before the one the
    sweep ends on, that start (the first one no candidate holds for,
    else the last one), and whether no candidate holds for it."""
    for words in starts:
        # held[i, j]: candidates[i] holds for starts 0..j of this chunk.
        held = np.logical_and.accumulate(tracks(words, candidates), axis=1)
        dead = np.flatnonzero(~held.any(axis=0))
        j = dead[0] if dead.size else len(words)
        if j:
            candidates = [q for q, ok in zip(candidates, held[:, j - 1]) if ok]
        if dead.size:
            return candidates, words[j], True
    return candidates, words[-1], False


def _spacing_sweep(p, k, candidates, mode, max_support, steps, count, seed, budget):
    """The periods among ``candidates`` whose q steps of ``convert(p)``
    track every source step of every start under the spacing-k block
    encoding, and the counterexample when none does.  The first start no
    candidate survives, else the last one, goes through the public
    functions once more: they confirm the sweep and word the report.  An
    exhaustive sweep of more starts than ``budget`` is refused."""
    rule = convert(p)
    _check_starts(p, mode, max_support, budget)
    # Starts per chunk, so that a derived row matrix has about _ROW_CELLS cells.
    width = k * (sum(_padding(rule, k, max(candidates) * steps, steps)) + max_support)
    rows = max(1, _ROW_CELLS // width)
    candidates, start, failed = _sweep(
        _start_rows(p, mode, max_support, count, seed, rows),
        candidates,
        lambda words, periods: ~_tracking_failures(p, rule, k, words, periods, steps).any(axis=1),
    )
    found, counterexample = _track_start(p, rule, k, start, candidates, steps)
    _confirm(found, [] if failed else candidates, start)
    return candidates, counterexample


def _domain(p, mode, count, seed, *terms):
    """A simulation oracle's domain: the mode, the source's size,
    ``terms``, and a sampled sweep's count and seed."""
    sampled = [f"count={count} seed={seed}"] if mode == "sampled" else []
    return " ".join([mode, f"pairs={p.c_size}x{p.r_size}", *terms, *sampled])


def check_simulation_correspondence(
    p, *, mode="exhaustive", max_support=4, steps=4, count=None, seed=None, budget=None
):
    """Each source step must equal two derived steps under the block encoding.

    For every starting configuration, runs the source CA for ``steps``
    steps and the derived CA for twice as many from the encoded start,
    requiring exact equality of canonical forms at every checkpoint:
    the spacing-2 sweep with the single candidate period 2.  All starts
    of a chunk step together as rows of one matrix; the report names the
    first failing start and its first failing t.  Exhaustive mode
    refuses to start when its (|C||R|)**max_support starts are more than
    ``budget``.
    """
    started = time.perf_counter()
    budget = DEFAULT_BUDGET if budget is None else budget
    max_support, steps, budget, count = _check_bounds(
        mode, count, seed, support=max_support, steps=steps, budget=budget
    )
    _, counterexample = _spacing_sweep(p, 2, [2], mode, max_support, steps, count, seed, budget)
    domain = _domain(p, mode, count, seed, f"support<={max_support}", f"steps={steps}")
    return _report("simulate", domain, counterexample, started)


def check_tau_prime_correspondence(
    p, *, k=None, gaps=None, mode="exhaustive", max_support=3, steps=4, count=None, seed=None, budget=None
):
    """Spaced-block simulation checks.

    Uniform spacing k: searches the smallest period q <= 4k such that
    q derived steps track one source step for every tested start, and
    passes when the conjectured period k works.  The candidate periods
    are narrowed start by start, in enumeration order; every candidate
    is checked on a whole chunk of starts at once.  k = 2 is the plain
    block encoding: the sweep of ``simulate``, under its own domain.  A
    gap list switches to the mass-ledger-only check: heavy and light
    window sums must stay constant for ``steps`` steps (the light window
    advancing one cell per step), as ``ledger_is_constant`` decides; the
    starts of a chunk step together, and their ledgers are read off the
    stepped rows.  Exhaustive mode refuses to start when its starts,
    (|C||R|)**max_support or (|C||R|)**(len(gaps) + 1), are more than
    ``budget``.
    """
    started = time.perf_counter()
    budget = DEFAULT_BUDGET if budget is None else budget
    if (k is None) == (gaps is None):
        raise ValueError("give exactly one of k and gaps")
    if gaps is not None:
        steps, budget, count = _check_bounds(mode, count, seed, steps=steps, budget=budget)
        gaps = _gap_list(gaps)
        rule = convert(p)
        _check_starts(p, mode, len(gaps) + 1, budget)
        rows = max(1, _ROW_CELLS // _ledger_row(rule, gaps, steps)[3])
        starts = _start_rows(p, mode, len(gaps) + 1, count, seed, rows, exact=True)
        # One candidate: every start keeps a constant ledger.
        _, start, failed = _sweep(
            starts, [None], lambda words, _: ~_ledger_failures(p, rule, gaps, words, steps)[None]
        )
        # As in ``_spacing_sweep``, the public functions confirm the sweep on
        # one start (the first failing one, else the last) and word the report.
        word = tuple(p._pairs[v] for v in start.tolist())
        cfg = encode_tau_prime(rule.code, Finite(0, word, QUIESCENT_PAIR), gaps=gaps)
        ok, ledger = ledger_is_constant(rule.code, engine.run(rule, cfg, steps))
        _confirm(ok, not failed, start, "a constant ledger")
        counterexample = None
        if not ok:
            counterexample = Counterexample(
                input=format_configuration(cfg),
                expected="constant heavy and light window sums",
                actual=f"window={ledger.window} rows={ledger.rows}",
            )
        terms = f"gaps={','.join(map(str, gaps))}", f"blocks={len(gaps) + 1}", f"steps={steps}"
        domain = _domain(p, mode, count, seed, *terms)
    else:
        max_support, steps, budget, count = _check_bounds(
            mode, count, seed, support=max_support, steps=steps, budget=budget
        )
        k = _whole(k, "spacing k")
        if k < 2:
            raise ValueError(f"uniform spacing needs k >= 2, got {k}")
        bounds = f"support<={max_support}", f"steps={steps}"
        # k = 2 sweeps the one period of ``simulate``, under its own domain.
        periods = [2] if k == 2 else list(range(1, 4 * k + 1))
        candidates, counterexample = _spacing_sweep(p, k, periods, mode, max_support, steps, count, seed, budget)
        period = min(candidates) if counterexample is None else None
        if k == 2:
            domain = "k=2 is the plain block encoding; delegated: " + _domain(p, mode, count, seed, *bounds)
        else:
            domain = _domain(p, mode, count, seed, f"k={k}", *bounds) + f" period={period}"
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


def _aligned(first, last):
    """The ledger window of a center from cell ``first`` to ``last``
    (integers or arrays): two cells past the even cell at or before
    ``first`` and the odd cell at or after ``last``."""
    return first - first % 2 - 2, last + 1 - last % 2 + 2


def _aligned_window(config):
    if isinstance(config, Cyclic):
        return (0, len(config.word) - 1)
    return _aligned(*engine._center_span(config))


def mass_ledger(code, trajectory, window=None):
    """Tabulate heavy/light mass sums along a trajectory.

    The window should be aligned to block boundaries and sit in
    quiescent background at both ends at t = 0.  A trajectory that
    ``engine.run`` stepped from a finite or bi-periodic start is read
    from its rows through ``engine.window_matrix``, so no configuration
    is built.
    """
    if not isinstance(trajectory, Trajectory):
        trajectory = Trajectory(None, tuple(trajectory))
    if window is None:
        window = _aligned_window(engine.canonicalize(trajectory.start))
    a, b = window
    width = max(b - a + 1, 0)
    # Per t, cells a .. b + t hold the heavy window and the light one, t
    # cells on; a cyclic configuration's are its whole word.
    if trajectory.rows is not None and not isinstance(trajectory.start, Cyclic):
        windows = engine.window_matrix(trajectory, a, a + width + len(trajectory.rows) - 2)
        rings = itertools.repeat(False)
    else:
        configs = trajectory.configs
        rings = [isinstance(cfg, Cyclic) for cfg in configs]
        windows = [cfg.word if ring else engine.window_cells(cfg, a, b + t) for t, (ring, cfg) in enumerate(zip(rings, configs))]
    rows = []
    for t, (ring, cells) in enumerate(zip(rings, windows)):
        row = np.asarray(cells, dtype=np.int64)
        light = row % code.light_modulus
        heavy = row - light
        if not ring:
            heavy, light = heavy[:width], light[t : t + width]
        rows.append((t, int(heavy.sum()), int(light.sum())))
    return MassLedger((a, b), tuple(rows))


def ledger_is_constant(code, trajectory, window=None):
    """Check mass-ledger constancy on the window and then on its
    ``_WIDENINGS``, in order, before declaring a violation; returns the
    first constant ledger, else the unwidened one."""
    ledger = mass_ledger(code, trajectory, window)
    a, b = ledger.window
    for da, db in _WIDENINGS:
        led = mass_ledger(code, trajectory, (a + da, b + db)) if da or db else ledger
        if len({row[1] for row in led.rows}) == 1 and len({row[2] for row in led.rows}) == 1:
            return True, led
    return False, ledger
