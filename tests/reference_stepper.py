"""The per-cell stepper that ``engine`` used before every step went
through its numpy row stepper, kept as an independent reference.

It evaluates ``rule.local`` once per cell of the widened window, on any
hashable cell values, and reads nothing of ``rule`` but ``neighborhood``
and ``local``: ``LocalRule`` supplies those for a local map that is not
an ``engine.Rule``, such as one over partitioned pairs.

``_canonicalize_finite`` is the finite canonicalizer ``engine`` kept
before ``canonicalize`` read a finite configuration as a bi-periodic
one, and ``_canonicalize_biperiodic`` the bi-periodic one before it
scanned the center by index instead of popping cells; both are copied
verbatim, so that steps are checked against a form found independently.
"""

from typing import Callable, NamedTuple

from rncca.engine import (
    BiPeriodic,
    Cyclic,
    Finite,
    _primitive_pinned,
    cell_at,
    window_growth,
)


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


class LocalRule(NamedTuple):
    neighborhood: tuple
    local: Callable


def reference_step(rule, config):
    """One step of ``config``, cell by cell, canonicalized."""
    if isinstance(config, Finite):
        return _step_finite(rule, config)
    if isinstance(config, Cyclic):
        return _step_cyclic(rule, config)
    return _step_biperiodic(rule, config)


def _step_ring(rule, word):
    local = rule.local
    n = len(word)
    return tuple(
        local(*(word[(i + d) % n] for d in rule.neighborhood)) for i in range(n)
    )


def _step_finite(rule, cfg):
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
    return Cyclic(_step_ring(rule, cfg.word))


def _step_biperiodic(rule, cfg):
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
