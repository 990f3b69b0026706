"""In-memory spans around rncca's public functions, for the traced run.

``Tracer.install()`` rebinds every module-level name in the ``rncca``
package that refers to a traced function (``from``-imported copies in
``rncca.cli`` and ``rncca.verify`` included) to a wrapper that records
one span: name, start, end, parent span and op id, plus a work count
the benchmark derives from the call's arguments (cells, rows or
configurations).  The ``local_batch`` of every rule ``convert`` returns
is wrapped through ``dataclasses.replace``.  The scalar ``local`` is not
spanned: it runs once per cell, so ``scalar_local_rate`` times it apart.

A span's self time is its duration minus the time its child spans
cover.  The program is single-threaded and has no queues, so there is
no waiting time to attribute to any layer.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import random
import sys
import time
from array import array

import numpy as np

# The package re-exports the function ``convert`` under the submodule's
# name, so modules are taken from the import system, not as attributes.
cli, convert, engine, formats, rpca, verify = (
    importlib.import_module(f"rncca.{name}") for name in ("cli", "convert", "engine", "formats", "rpca", "verify")
)


def _step_cells(rule, config, *_):
    """Cells one ``engine.step`` computes, from the input's shape."""
    left, right = engine.window_growth(rule.neighborhood)
    if isinstance(config, engine.Cyclic):
        return len(config.word), 0
    if isinstance(config, engine.Finite):
        return (len(config.word) + left + right if config.word else 0), 0
    return len(config.left) + len(config.right) + len(config.center) + left + right, 0


def _render_cells(trajectory, spec):
    return len(trajectory.configs) * (spec.x_max - spec.x_min + 1), 0


def _batch_rows(cols):
    return len(cols[0]), 0


def _oracle_work(fn, count_exhaustive, spacing_steps):
    """Configurations an oracle call enumerates or samples; with
    ``spacing_steps``, also the source-aligned derived steps of a
    uniform tau-prime spacing (k * steps * starts) as the auxiliary count."""
    signature = inspect.signature(fn)

    def work(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        starts = count_exhaustive(a) if a["mode"] == "exhaustive" else a["count"]
        if spacing_steps and a["gaps"] is None:
            return starts, a["k"] * a["steps"] * starts
        return starts, 0

    return work


def _pairs(a):
    return a["p"].c_size * a["p"].r_size


TAUPRIME = "verify.check_tau_prime_correspondence"
ORACLES = {
    "verify.check_number_conserving": lambda a: (
        a["rule"].state_count ** a["max_support"]
        + sum(a["rule"].state_count ** n for n in range(1, a["max_support"] + 1))
    ),
    "verify.check_injective_cyclic": lambda a: a["rule"].state_count ** a["n"],
    "verify.check_simulation_correspondence": lambda a: _pairs(a) ** a["max_support"],
    "verify.check_tau_prime_correspondence": lambda a: _pairs(a) ** (
        a["max_support"] if a["gaps"] is None else len(a["gaps"]) + 1
    ),
}


def targets():
    """(span name, function, work counter) for every traced function."""
    out = [
        ("engine.step", engine.step, _step_cells),
        ("engine.run", engine.run, None),
        ("rpca.step_rpca", rpca.step_rpca, None),
        ("rpca.parse_rpca", rpca.parse_rpca, None),
        ("convert.encode", convert.encode_tau, None),
        ("convert.encode", convert.encode_tau_prime, None),
        ("convert.decode", convert.decode, None),
        ("convert.decode", convert.decode_tau_prime, None),
        ("verify.mass_ledger", verify.mass_ledger, None),
        ("verify.ledger_is_constant", verify.ledger_is_constant, None),
        ("formats.parse_configuration_text", formats.parse_configuration_text, None),
        ("formats.format_configuration", formats.format_configuration, None),
        ("cli.render", cli.render, _render_cells),
        ("cli.main", cli.main, None),
    ]
    for name, count in ORACLES.items():
        fn = getattr(verify, name.split(".")[1])
        out.append((name, fn, _oracle_work(fn, count, name == TAUPRIME)))
    return out


class Tracer:
    """Span store plus the rebinding of traced functions."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.aux = array("d")
        self.op_id = -1
        self._stack = [-1]
        self._restore = []

    def name_id(self, name):
        """The span-name index of ``name``, or -1 if nothing recorded it."""
        return self._ids.get(name, -1)

    def wrap(self, name, fn, work=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        works, auxes, stack, clock = self.work, self.aux, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            amount, aux = work(*args, **kwargs) if work else (0, 0)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            works.append(amount)
            auxes.append(aux)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _traced_convert(self, fn):
        spanned = self.wrap("convert.convert", fn)

        def traced_convert(*args, **kwargs):
            rule = spanned(*args, **kwargs)
            batch = self.wrap("convert.local_batch", rule.local_batch, _batch_rows)
            return dataclasses.replace(rule, local_batch=batch)

        return traced_convert

    def install(self):
        replacements = {id(fn): (fn, self.wrap(name, fn, work)) for name, fn, work in targets()}
        replacements[id(convert.convert)] = (convert.convert, self._traced_convert(convert.convert))
        modules = [m for key, m in list(sys.modules.items()) if key == "rncca" or key.startswith("rncca.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)

    def arrays(self):
        """Copies of the span columns as numpy arrays."""
        columns = ("name", "parent", "op", "start", "end", "work", "aux")
        return {column: np.array(getattr(self, column)) for column in columns}

    def save(self, path, op_labels):
        np.savez_compressed(path, names=np.array(self.names), op_labels=np.array(op_labels), **self.arrays())


def span_totals(tracer):
    """Per span name: calls, total seconds, self seconds, work and aux
    sums; and the number of engine.step calls that ran under a
    uniform-spacing tauprime oracle."""
    a = tracer.arrays()
    duration = a["end"] - a["start"]
    inner = a["parent"] >= 0
    covered = np.zeros_like(duration)
    np.add.at(covered, a["parent"][inner], duration[inner])
    self_time = duration - covered
    totals = {}
    for nid, name in enumerate(tracer.names):
        mask = a["name"] == nid
        totals[name] = {
            "calls": int(mask.sum()),
            "total_s": float(duration[mask].sum()),
            "self_s": float(self_time[mask].sum()),
            "work": float(a["work"][mask].sum()),
            "aux": float(a["aux"][mask].sum()),
        }
    # Parents precede children, so one forward pass finds each span's
    # nearest enclosing uniform-spacing tauprime span.
    tauprime = tracer.name_id(TAUPRIME)
    under = [False] * len(duration)
    for i, (nid, parent, aux) in enumerate(zip(a["name"].tolist(), a["parent"].tolist(), a["aux"].tolist())):
        under[i] = (nid == tauprime and aux > 0) or (parent >= 0 and under[parent])
    step = tracer.name_id("engine.step")
    return totals, int((np.array(under, dtype=bool) & (a["name"] == step)).sum())


def scalar_local_rate(rule_texts, seed, count=20000, repeats=3):
    """Neighborhoods per second of each derived rule's scalar ``local``
    over a fixed list of uniformly drawn neighborhoods, best of
    ``repeats`` per rule, pooled over rules."""
    rng = random.Random(seed)
    total_n = total_s = 0.0
    for text in rule_texts:
        rule = convert.convert(rpca.parse_rpca(text))
        s = rule.state_count
        hoods = [tuple(rng.randrange(s) for _ in range(4)) for _ in range(count)]
        local = rule.local
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            for hood in hoods:
                local(*hood)
            best = min(best, time.perf_counter() - started)
        total_n += count
        total_s += best
    return total_n / total_s


def _ratio(amount, base):
    return amount / base if base > 0 else 0.0


def layer_metrics(totals, steps_under_tauprime, local_rate, decode_s, overhead_ratio):
    """The per-layer metrics named in BENCHMARK.json, as name -> (value, unit)."""
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0.0, "aux": 0.0}

    def get(name):
        return totals.get(name, empty)

    step, batch, render = get("engine.step"), get("convert.local_batch"), get("cli.render")
    ledger = get("verify.ledger_is_constant")
    metrics = {
        "engine.step.calls": (step["calls"], "count"),
        "engine.step.self_s": (step["self_s"], "s"),
        "engine.step.cells_per_s": (_ratio(step["work"], step["self_s"]), "cells/s"),
        "engine.run.self_s": (get("engine.run")["self_s"], "s"),
        "rpca.step_rpca.calls": (get("rpca.step_rpca")["calls"], "count"),
        "rpca.step_rpca.self_s": (get("rpca.step_rpca")["self_s"], "s"),
        "rpca.parse_rpca.self_s": (get("rpca.parse_rpca")["self_s"], "s"),
        "convert.convert.self_s": (get("convert.convert")["self_s"], "s"),
        "convert.local.nbhd_per_s": (local_rate, "nbhd/s"),
        "convert.local_batch.nbhd_per_s": (_ratio(batch["work"], batch["self_s"]), "nbhd/s"),
        "convert.local_batch.calls": (batch["calls"], "count"),
        "convert.local_batch.rows_per_call": (_ratio(batch["work"], batch["calls"]), "rows"),
        "convert.encode.self_s": (get("convert.encode")["self_s"], "s"),
        "convert.decode.self_s": (get("convert.decode")["self_s"] + decode_s, "s"),
    }
    for name in ORACLES:
        oracle = get(name)
        metrics[f"{name}.configs_per_s"] = (_ratio(oracle["work"], oracle["total_s"]), "configs/s")
    metrics["verify.self_s"] = (
        sum(v["self_s"] for k, v in totals.items() if k.startswith("verify.")),
        "s",
    )
    metrics["verify.ledger_is_constant.attempt_ratio"] = (
        _ratio(get("verify.mass_ledger")["calls"], ledger["calls"]),
        "ratio",
    )
    metrics["verify.tauprime.useful_step_ratio"] = (
        _ratio(get(TAUPRIME)["aux"], steps_under_tauprime),
        "ratio",
    )
    for name in ("formats.parse_configuration_text", "formats.format_configuration", "cli.render"):
        metrics[f"{name}.self_s"] = (get(name)["self_s"], "s")
    metrics["cli.render.cells_per_s"] = (_ratio(render["work"], render["self_s"]), "cells/s")
    metrics["cli.main.self_s"] = (get("cli.main")["self_s"], "s")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics
