"""Two-part partitioned cellular automata on the line.

Every cell carries a (center, right) pair drawn from ``C x R``.  One
step feeds the cell's own center part and the right part of its left
neighbor through the local table: the new pair at x is
``table[c(x)][r(x - 1)]``.  Because each input part is consumed by
exactly one cell, the global map is injective exactly when the table
is a permutation of ``C x R``, which makes reversibility a finite
check.

The quiescent pair is fixed to (0, 0) and the table must map it to
itself so that finite configurations stay finite and block encodings
have a time-stable background.

Stepping writes the pair (c, r) as the integer code c*|R| + r, so
(0, 0) is code 0, steps the codes with a 2-neighbor integer rule of
``engine`` and writes the image back as pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Mapping

import numpy as np

from . import engine
from .engine import BiPeriodic, Cyclic, Finite

__all__ = [
    "Rpca2",
    "RuleParseError",
    "make_rpca",
    "check_local_injective",
    "step_rpca",
    "invert_rpca",
    "example_rpca",
    "parse_rpca",
    "format_rpca",
]

QUIESCENT_PAIR = (0, 0)


@dataclass(frozen=True)
class Rpca2:
    """A 2-part partitioned CA: part sizes and the local table.

    ``table[c][r]`` is the output pair for center part c and incoming
    right part r.  The table need not be injective; operations that
    require reversibility check it explicitly.
    """

    c_size: int
    r_size: int
    table: tuple

    @property
    def state_count(self):
        return self.c_size * self.r_size

    @cached_property
    def _pairs(self):
        """Every pair, at its code c*|R| + r."""
        return tuple((c, r) for c in range(self.c_size) for r in range(self.r_size))

    @cached_property
    def _codes(self):
        """The code of every pair."""
        return {pair: code for code, pair in enumerate(self._pairs)}

    @cached_property
    def _images(self):
        """The code of every pair's image, at the pair's code."""
        return np.array([self._codes[self.table[c][r]] for c, r in self._pairs])

    @cached_property
    def _forward(self):
        """The forward step on codes, offsets (0, -1): the code at x
        becomes the image of c(x) with r(x - 1)."""
        img, r = self._images, self.r_size
        return _code_rule(self, (0, -1), lambda x, y: img[x - x % r + y % r])

    @cached_property
    def _backward(self):
        """The backward step on codes, offsets (0, 1), for an injective
        table: the code at x becomes the preimage's c at x with its r at
        x + 1."""
        pre, r = np.argsort(self._images), self.r_size
        return _code_rule(self, (0, 1), lambda x, y: pre[x] - pre[x] % r + pre[y] % r)


def _code_rule(p, neighborhood, codes):
    """The 2-neighbor integer rule on the pair codes of ``p`` whose image
    of the neighborhood (x, y) is ``codes(x, y)``, for arrays x and y."""
    keys = np.indices((p.state_count, p.state_count)).reshape(2, -1).T
    return engine.make_rule(p.state_count, neighborhood, (keys, codes(*keys.T)), 0)


class RuleParseError(ValueError):
    """Malformed rule text; carries the 1-based offending line number."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


def make_rpca(c_size, r_size, table):
    """Build an Rpca2 from a mapping ``(c, r) -> (c', r')`` or nested rows.

    Rejects partial tables, out-of-range parts, and tables that move
    the quiescent pair.
    """
    c_size = int(c_size)
    r_size = int(r_size)
    if c_size < 1 or r_size < 1:
        raise ValueError("part state sets must be non-empty")
    rows = [[None] * r_size for _ in range(c_size)]
    if isinstance(table, Mapping):
        items = table.items()
    else:
        items = [
            ((c, r), table[c][r]) for c in range(len(table)) for r in range(len(table[c]))
        ]
    for key, value in items:
        c, r = key
        if not (0 <= c < c_size and 0 <= r < r_size):
            raise ValueError(f"input pair {key} out of range")
        c2, r2 = value
        if not (0 <= c2 < c_size and 0 <= r2 < r_size):
            raise ValueError(f"output pair {tuple(value)} for {key} out of range")
        if rows[c][r] is not None:
            raise ValueError(f"duplicate entry for input pair {key}")
        rows[c][r] = (c2, r2)
    missing = [(c, r) for c in range(c_size) for r in range(r_size) if rows[c][r] is None]
    if missing:
        raise ValueError(f"table is not total: missing {missing[0]} and {len(missing) - 1} more")
    if rows[0][0] != QUIESCENT_PAIR:
        raise ValueError(f"quiescent pair (0, 0) must be a fixed point, maps to {rows[0][0]}")
    return Rpca2(c_size, r_size, tuple(tuple(row) for row in rows))


def check_local_injective(p):
    """True iff the table is a permutation of C x R.

    Local injectivity of a partitioned CA is equivalent to injectivity
    of its global map, so this single finite check certifies
    reversibility.
    """
    return _injectivity_witness(p) is None


def _injectivity_witness(p):
    """Two inputs the table maps to one image, and that image, or None
    when the table is a permutation of C x R."""
    seen = {}
    for c in range(p.c_size):
        for r in range(p.r_size):
            image = p.table[c][r]
            if image in seen:
                return seen[image], (c, r), image
            seen[image] = (c, r)
    return None


def _require_reversible(p):
    """Refuse a table that is not a permutation of C x R, naming two
    inputs with one image."""
    witness = _injectivity_witness(p)
    if witness is not None:
        raise ValueError("rule is not reversible; inputs {} and {} both map to {}".format(*witness))


def _recode(config, cell):
    """``config`` with every cell, and a finite one's background, mapped
    through ``cell``; the first cell ``cell`` refuses is the leftmost."""
    if isinstance(config, Finite):
        return Finite(config.offset, map(cell, config.word), cell(config.quiescent))
    if isinstance(config, Cyclic):
        return Cyclic(map(cell, config.word))
    # ``BiPeriodic`` would read lazy maps left, right, center; map the
    # words here instead, in order.
    left, center, c0, right = engine._parts(config)
    return BiPeriodic(tuple(map(cell, left)), tuple(map(cell, center)), c0, tuple(map(cell, right)))


def _step_codes(p, rule, config):
    """One step of a pair configuration by the code rule ``rule``."""
    if isinstance(config, Finite) and config.quiescent != QUIESCENT_PAIR:
        raise ValueError("partitioned configurations use quiescent pair (0, 0)")

    def code(cell):
        try:
            return p._codes[cell]
        except (KeyError, TypeError):  # TypeError: a part that cannot be hashed
            raise ValueError(f"cell {cell!r} is not a pair in {p.c_size}x{p.r_size}") from None

    image = engine.step(rule, _recode(config, code))
    return _recode(image, p._pairs.__getitem__)


def step_rpca(p, config):
    """One forward step: the cell at x becomes table[c(x)][r(x-1)]."""
    return _step_codes(p, p._forward, config)


def invert_rpca(p):
    """Return a backward stepper (``step_back(config)``); rejects
    non-injective tables.

    Undoing a step inverts the table cell-wise and then routes the
    recovered right parts back to the left: the old pair at x combines
    the inverted center part at x with the inverted right part at x+1.
    """
    _require_reversible(p)

    def step_back(config):
        return _step_codes(p, p._backward, config)

    return SimpleNamespace(step_back=step_back)


def _fisher_yates(items, seed):
    # CPython Mersenne Twister seeded with `seed`; descending swaps with
    # rng.randrange(i + 1).  Documented in the README for bit-exact
    # reproducibility of every seeded sweep.
    rng = random.Random(seed)
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randrange(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def example_rpca(name, c_size=2, r_size=2, seed=0):
    """Small library of reversible tables plus a seeded random family.

    ``identity`` works at any sizes; ``xor`` is the 2x2 rule
    (c, r) -> (c xor r, r); ``swap`` exchanges parts and needs
    c_size == r_size; ``random`` draws a uniform permutation of the
    pair set (Fisher-Yates over the lexicographically ordered pairs)
    and, if needed, composes with one swap of images so (0, 0) stays
    fixed.
    """
    if name == "identity":
        table = {(c, r): (c, r) for c in range(c_size) for r in range(r_size)}
    elif name == "xor":
        if (c_size, r_size) != (2, 2):
            raise ValueError("the xor rule is defined for c_size=r_size=2")
        table = {(c, r): (c ^ r, r) for c in range(2) for r in range(2)}
    elif name == "swap":
        if c_size != r_size:
            raise ValueError("the swap rule needs c_size == r_size")
        table = {(c, r): (r, c) for c in range(c_size) for r in range(r_size)}
    elif name == "random":
        pairs = [(c, r) for c in range(c_size) for r in range(r_size)]
        images = _fisher_yates(pairs, seed)
        table = dict(zip(pairs, images))
        if table[0, 0] != (0, 0):
            source = next(pair for pair, image in table.items() if image == (0, 0))
            table[source] = table[0, 0]
            table[0, 0] = (0, 0)
    else:
        raise ValueError(f"unknown example rule {name!r}")
    return make_rpca(c_size, r_size, table)


def parse_rpca(text):
    """Parse the rule text format.

    First meaningful line is ``rpca C=<int> R=<int>``; every further
    line is ``c r -> c' r'``.  ``#`` starts a comment; every input pair
    must appear exactly once.  Errors carry the offending line number.
    """
    sizes = None
    entries = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if sizes is None:
            if (
                len(tokens) != 3
                or tokens[0] != "rpca"
                or not tokens[1].startswith("C=")
                or not tokens[2].startswith("R=")
            ):
                raise RuleParseError("expected header 'rpca C=<int> R=<int>'", line_no)
            try:
                sizes = (int(tokens[1][2:]), int(tokens[2][2:]))
            except ValueError:
                raise RuleParseError("header sizes must be integers", line_no) from None
            if sizes[0] < 1 or sizes[1] < 1:
                raise RuleParseError("sizes must be positive", line_no)
            continue
        if len(tokens) != 5 or tokens[2] != "->":
            raise RuleParseError("expected entry \"c r -> c' r'\"", line_no)
        try:
            c, r = int(tokens[0]), int(tokens[1])
            c2, r2 = int(tokens[3]), int(tokens[4])
        except ValueError:
            raise RuleParseError("entry fields must be integers", line_no) from None
        c_size, r_size = sizes
        if not (0 <= c < c_size and 0 <= r < r_size):
            raise RuleParseError(f"input pair ({c}, {r}) out of range", line_no)
        if not (0 <= c2 < c_size and 0 <= r2 < r_size):
            raise RuleParseError(f"output pair ({c2}, {r2}) out of range", line_no)
        if (c, r) in entries:
            raise RuleParseError(f"duplicate entry for ({c}, {r})", line_no)
        entries[c, r] = (c2, r2)
    if sizes is None:
        raise RuleParseError("missing 'rpca C=<int> R=<int>' header", 1)
    expected = sizes[0] * sizes[1]
    if len(entries) != expected:
        raise RuleParseError(
            f"table has {len(entries)} of {expected} entries", 1
        )
    try:
        return make_rpca(sizes[0], sizes[1], entries)
    except ValueError as exc:
        raise RuleParseError(str(exc), 1) from None


def format_rpca(p):
    """Serialize a table in the rule text format (parse round-trips)."""
    lines = [f"rpca C={p.c_size} R={p.r_size}"]
    for c in range(p.c_size):
        for r in range(p.r_size):
            c2, r2 = p.table[c][r]
            lines.append(f"{c} {r} -> {c2} {r2}")
    return "\n".join(lines) + "\n"
