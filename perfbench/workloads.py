"""Seeded inputs, operations and output checks for the benchmark workloads.

Every input is drawn from ``random.Random(seed)`` and written as rule and
configuration text before timing starts; nothing here calls
``rncca.example_rpca``, so a change to the program cannot change the
inputs.  One *op* is a short list of ``rncca.cli.main`` argument lists,
run in-process.  Its output (the stdout of the last call) is checked
against references that this module derives independently of the
program: the rendered space-time diagram comes from a small numpy model
of the paper's particle rule, and verify report lines from the domain
strings recorded below.
"""

from __future__ import annotations

import hashlib
import random
import shlex
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import rncca

LONG_RUN_PAIRS = 600
LONG_RUN_STEPS = 40
# Rule shapes (C, R); derived state counts are 4*C*R = 16, 36, 48, 96.
SHAPES = {"r2x2": (2, 2), "r3x3": (3, 3), "r3x4": (3, 4), "r4x6": (4, 6)}
XOR_TABLE = {(c, r): (c ^ r, r) for c in range(2) for r in range(2)}


@dataclass
class RuleInput:
    name: str
    c_size: int
    r_size: int
    table: dict

    @property
    def states(self):
        return 4 * self.c_size * self.r_size

    def text(self):
        lines = [f"rpca C={self.c_size} R={self.r_size}"]
        lines += [f"{c} {r} -> {c2} {r2}" for (c, r), (c2, r2) in sorted(self.table.items())]
        return "\n".join(lines) + "\n"


@dataclass
class Op:
    """One benchmark operation: ``cli.main`` calls plus an output check.

    ``check(output)`` returns None when the output is right, else a
    one-line reason.  ``files`` maps file names to text written into the
    input directory before timing.
    """

    label: str
    argvs: list
    check: Callable[[str], str | None]
    files: dict = field(default_factory=dict)


def random_rule(rng, name, c_size, r_size):
    """A uniform permutation of C x R that keeps (0, 0) fixed."""
    pairs = [(c, r) for c in range(c_size) for r in range(r_size)]
    images = pairs[1:]
    rng.shuffle(images)
    return RuleInput(name, c_size, r_size, {(0, 0): (0, 0), **dict(zip(pairs[1:], images))})


def _rules(rng):
    rules = {"xor": RuleInput("xor", 2, 2, dict(XOR_TABLE))}
    for name, (c_size, r_size) in SHAPES.items():
        rules[name] = random_rule(rng, name, c_size, r_size)
    return rules


# ---------------------------------------------------------------- long-run


def _source_word(rng, rule, length):
    """Random pairs whose first and last are not quiescent, so the
    encoded configuration's canonical center spans the whole word."""
    word = [(rng.randrange(rule.c_size), rng.randrange(rule.r_size)) for _ in range(length)]
    for i in (0, -1):
        while word[i] == (0, 0):
            word[i] = (rng.randrange(rule.c_size), rng.randrange(rule.r_size))
    return word


def _pairs_text(word):
    return ",".join(f"({c},{r})" for c, r in word)


class _Model:
    """The derived 4-neighbor rule, written from the paper's particle
    description: each state is heavy + light with light < 2R; light
    masses shift right, heavy masses stay, except at a transition site
    (a balanced light pair just left of a balanced heavy pair), where the
    source table rewrites the four halves."""

    def __init__(self, rule):
        c_size, r_size = rule.c_size, rule.r_size
        self.r = r_size
        self.two_r = 2 * r_size
        self.hat_heavy = 2 * c_size * r_size
        self.heavy_sum = 2 * (2 * c_size - 1) * r_size
        self.light_sum = 2 * r_size - 1
        self.hat = np.zeros((c_size, r_size), dtype=np.int64)
        self.check = np.zeros((c_size, r_size), dtype=np.int64)
        for (c, r), (c2, r2) in rule.table.items():
            self.hat[c, r], self.check[c, r] = self.block(c2, r2)

    def block(self, c, r):
        heavy = 2 * c * self.r
        return heavy + r, (self.heavy_sum - heavy) + (self.light_sum - r)

    def local(self, a, b, c, d):
        two_r, r = self.two_r, self.r
        la, lb, lc = a % two_r, b % two_r, c % two_r
        hb, hc, hd = b - lb, c - lc, d - d % two_r
        light_bc = (lb < r) & (lc >= r) & (lb + lc == self.light_sum)
        light_ab = (la < r) & (lb >= r) & (la + lb == self.light_sum)
        heavy_cd = (hc < self.hat_heavy) & (hd >= self.hat_heavy) & (hc + hd == self.heavy_sum)
        heavy_bc = (hb < self.hat_heavy) & (hc >= self.hat_heavy) & (hb + hc == self.heavy_sum)
        site_start = light_bc & heavy_cd
        site_end = light_ab & heavy_bc
        out = hc + lb
        out[site_start] = self.hat[hc[site_start] // two_r, lb[site_start]]
        out[site_end] = self.check[hb[site_end] // two_r, la[site_end]]
        return out


def model_diagram(rule, word, cyclic, k, steps):
    """Expected ``rncca run`` text for the block encoding of ``word``
    (spacing ``k``; k = 2 is plain tau) over the default window."""
    model = _Model(rule)
    cells = []
    for c, r in word:
        cells += [*model.block(c, r), *([0] * (k - 2))]
    rows = []
    if cyclic:
        q = np.array(cells, dtype=np.int64)
        for _ in range(steps + 1):
            rows.append(q)
            q = model.local(np.roll(q, 2), np.roll(q, 1), q, np.roll(q, -1))
    else:
        center = cells[: len(cells) - (k - 2)]
        background = [*model.block(0, 0), *([0] * (k - 2))]
        # Support grows by 1 cell left and 2 right per step (window_growth
        # of the neighborhood -2..1); the default window adds one more.
        x_min, x_max = -steps - 1, len(center) - 1 + 2 * steps + 1
        lo, hi = x_min - 2 * steps, x_max + steps
        q = np.array(
            [center[x] if 0 <= x < len(center) else background[x % k] for x in range(lo, hi + 1)],
            dtype=np.int64,
        )
        for t in range(steps + 1):
            start = x_min - (lo + 2 * t)
            rows.append(q[start : start + x_max - x_min + 1])
            q = model.local(q[:-3], q[1:-2], q[2:-1], q[3:])
    width = len(str(rule.states - 1))
    return "".join(" ".join(str(v).rjust(width) for v in row.tolist()) + "\n" for row in rows)


class LongRunCheck:
    """Checks one long-run input: the diagram's sha256 equals the model's,
    the last row at a multiple of the spacing decodes to the source
    stepped by ``step_rpca``, and cyclic rows keep their cell sum.  The
    model and decode work runs once per input and is cached; ``decode_s``
    is the time spent in ``rncca.decode`` / ``rncca.decode_tau_prime``."""

    def __init__(self, rule, word, cyclic, k):
        self.rule, self.word, self.cyclic, self.k = rule, word, cyclic, k
        self.decode_s = 0.0
        self._expected = None

    def prepare(self):
        self._reference()

    def _reference(self):
        if self._expected is None:
            text = model_diagram(self.rule, self.word, self.cyclic, self.k, LONG_RUN_STEPS)
            self._expected = (hashlib.sha256(text.encode()).hexdigest(), self._decode_check(text))
        return self._expected

    def _decode_check(self, text):
        rows = [tuple(int(v) for v in line.split()) for line in text.splitlines()]
        if self.cyclic and len({sum(row) for row in rows}) != 1:
            return "cyclic rows differ in cell sum"
        t = LONG_RUN_STEPS - LONG_RUN_STEPS % self.k
        rule = self.rule
        code = rncca.ParticleCode(rule.c_size, rule.r_size)
        if self.cyclic:
            config = rncca.Cyclic(rows[t])
            source = rncca.Cyclic(tuple(self.word))
        else:
            background = code.quiescent_block + (0,) * (self.k - 2)
            config = rncca.BiPeriodic(background, rows[t], -LONG_RUN_STEPS - 1, background)
            source = rncca.canonicalize(rncca.Finite(0, tuple(self.word), (0, 0)))
        started = time.perf_counter()
        if self.k == 2:
            decoded = rncca.decode(code, config)
        else:
            decoded = rncca.decode_tau_prime(code, config, self.k)
        self.decode_s += time.perf_counter() - started
        p = rncca.make_rpca(rule.c_size, rule.r_size, rule.table)
        for _ in range(t // self.k):
            source = rncca.step_rpca(p, source)
        if decoded != source:
            return f"row {t} does not decode to the source after {t // self.k} steps"
        return None

    def __call__(self, output):
        digest, decode_error = self._reference()
        if hashlib.sha256(output.encode()).hexdigest() != digest:
            return "diagram sha256 differs from the model's"
        return decode_error


def long_run_ops(rng, rules, at):
    """18 distinct inputs: rules rotate every 3 ops, every third op uses
    spacing 3 (tau-prime), and shapes alternate finite / cyclic."""
    ops = []
    for i in range(18):
        rule = rules[("r2x2", "r3x4", "r4x6")[(i // 3) % 3]]
        k = 3 if i % 3 == 2 else 2
        cyclic = i % 2 == 1
        word = _source_word(rng, rule, LONG_RUN_PAIRS)
        config = f"cyclic: {_pairs_text(word)}" if cyclic else f"finite q#=(0,0) @0: {_pairs_text(word)}"
        encode = ["--tau"] if k == 2 else ["--tau-prime", str(k)]
        ops.append(
            Op(
                label=f"{rule.name} {'tau' if k == 2 else 'tau-prime'} {'cyclic' if cyclic else 'finite'}",
                argvs=[
                    ["embed", at(rule), at(f"src{i}.cfg"), *encode, "-o", at(f"enc{i}.cfg")],
                    ["run", at(rule), at(f"enc{i}.cfg"), "--steps", str(LONG_RUN_STEPS), "--format", "text"],
                ],
                check=LongRunCheck(rule, word, cyclic, k),
                files={f"src{i}.cfg": config + "\n"},
            )
        )
    return ops


# ------------------------------------------------------------- verify ops


class ReportCheck:
    """A verify op's report line must carry this property, this domain
    and passed=true; elapsed_ms is ignored."""

    def __init__(self, prop, domain):
        self.prop, self.domain = prop, domain

    def prepare(self):
        pass

    def __call__(self, output):
        lines = output.splitlines()
        if len(lines) != 1:
            return f"expected one report line, got {len(lines)}"
        fields = dict(token.split("=", 1) for token in shlex.split(lines[0]) if "=" in token)
        for key, want in (("property", self.prop), ("domain", self.domain), ("passed", "true")):
            if fields.get(key) != want:
                return f"{key}={fields.get(key)!r}, expected {want!r}"
        return None


def verify_op(at, rule, prop, domain, **flags):
    """A ``rncca verify`` op; ``domain`` is the report's domain string as
    the program printed it when this benchmark was recorded."""
    argv = ["verify", at(rule), prop]
    for name, value in flags.items():
        argv += [f"--{name}", ",".join(map(str, value)) if isinstance(value, tuple) else str(value)]
    return Op(label=f"{rule.name} {prop} {' '.join(argv[3:])}", argvs=[argv], check=ReportCheck(prop, domain))


def exhaustive_sweep_ops(rng, rules, at):
    # Five ops of distinct cost, so the median and p90 each fall inside
    # one op's band rather than on the boundary between two.
    xor, r3x4, r4x6 = rules["xor"], rules["r3x4"], rules["r4x6"]
    return [
        verify_op(at, xor, "conserve", "exhaustive states=16 finite words len=4 cyclic len<=4", support=4),
        verify_op(at, xor, "inject", "exhaustive states=16 cycle=5 words=1048576", cycle=5),
        verify_op(at, r3x4, "conserve", "exhaustive states=48 finite words len=3 cyclic len<=3", support=3),
        verify_op(at, r3x4, "inject", "exhaustive states=48 cycle=3 words=110592", cycle=3),
        verify_op(at, r4x6, "inject", "exhaustive states=96 cycle=3 words=884736", cycle=3),
    ]


def short_runs_ops(rng, rules, at):
    # Seven ops in three cost bands about 1.6x apart: three cheap ones, the
    # fixed xor simulate twice, and two dear ones.  The median then falls
    # inside the xor simulate band and p90 inside the inject band, rather
    # than on a boundary between two ops of different cost, where drift
    # in host speed moves a quantile far more than it moves each op.  The
    # tauprime ops use the fixed xor table: how long their period search
    # and ledger widening run depends on the table, and a random 2x2
    # table would make that cost differ from seed to seed.
    xor, r3x3, r4x6 = rules["xor"], rules["r3x3"], rules["r4x6"]
    s1, s2, s3, s4 = (rng.randrange(1 << 30) for _ in range(4))
    simulate = ("simulate", "exhaustive pairs=2x2 support<=3 steps=6")
    return [
        verify_op(at, xor, *simulate, support=3, steps=6),
        verify_op(
            at, r3x3, "simulate", f"sampled pairs=3x3 support<=6 steps=4 count=40 seed={s1}",
            sampled=40, seed=s1, support=6, steps=4,
        ),
        verify_op(
            at, xor, "tauprime", "exhaustive pairs=2x2 k=3 support<=3 steps=2 period=3",
            spacing=3, support=3, steps=2,
        ),
        verify_op(
            at, xor, "tauprime", f"sampled pairs=2x2 gaps=1,3,2 blocks=4 steps=8 count=25 seed={s2}",
            gaps=(1, 3, 2), sampled=25, seed=s2, steps=8,
        ),
        verify_op(at, xor, *simulate, support=3, steps=6),
        verify_op(
            at, r4x6, "conserve", f"sampled states=96 count=4000 support<=10 seed={s3}",
            sampled=4000, seed=s3, support=10,
        ),
        verify_op(
            at, r4x6, "inject", f"sampled states=96 cycle=10 count=6000 seed={s4}",
            sampled=6000, seed=s4, cycle=10,
        ),
    ]


WORKLOADS = {
    "long-run": long_run_ops,
    "exhaustive-sweep": exhaustive_sweep_ops,
    "short-runs": short_runs_ops,
}


def build(workload, seed, directory: Path):
    """The workload's ops over input files in ``directory``, and a
    {file name: text} map of those files.  The same seed gives the same
    inputs and ops."""
    rng = random.Random(seed)
    rules = _rules(rng)
    files = {}

    def at(item):
        if isinstance(item, RuleInput):
            files[f"{item.name}.rpca"] = item.text()
            item = f"{item.name}.rpca"
        return str(directory / item)

    ops = WORKLOADS[workload](rng, rules, at)
    for op in ops:
        files.update(op.files)
    return ops, files


def write_inputs(directory: Path, files):
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text)
