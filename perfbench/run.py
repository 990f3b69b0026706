"""Benchmark of ``rncca run`` / ``rncca verify``, one workload per process.

    python3 perfbench/run.py --workload long-run --seed 1 --seconds 36 --trace 0

One closed-loop client on one thread calls ``rncca.cli.main`` in-process
with real rule and configuration files, op after op, and checks every
op's output.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
alternates a fixed number of op cycles untraced and traced, and reports
the per-layer metrics.  The last line of stdout is one JSON object; the full
result, with the environment, goes to ``.perfbench/results/`` and the
spans of a traced run to ``.perfbench/spans/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# At least this many measured ops, so that ten samples lie beyond p90,
# unless the measured phase has run for HARD_STOP times --seconds.
MIN_OPS = 100
HARD_STOP = 3
# Fresh processes timed from spawn through ``import rncca`` and the first
# op; setup_s is their median.
SETUP_SAMPLES = 7
# Traced cycles of the workload's op list (18, 5 and 7 ops long): a fixed
# number, so that span counts repeat exactly for a seed.
TRACE_CYCLES = {"long-run": 2, "exhaustive-sweep": 6, "short-runs": 14}


def _monotonic():
    # CLOCK_MONOTONIC is shared by all processes, so a child's reading can
    # be compared with the parent's.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_op(cli, op):
    """Run an op's ``cli.main`` calls; return (stdout of the calls, error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv in op.argvs:
                code = cli.main(argv)
                if code != 0:
                    return out.getvalue(), f"exit code {code} from {argv[0]}: {err.getvalue().strip()}"
    except Exception as exc:  # an op that raises counts as failed; the run goes on
        return out.getvalue(), f"raised {exc!r}"
    return out.getvalue(), None


def run_ops(cli, ops, count=None, seconds=None, between=None):
    """Closed loop over ``ops`` in order: ``count`` ops, or at least
    MIN_OPS and until ``seconds`` have passed.  Outputs are checked
    outside each op's timed region.  ``between(i, elapsed)`` runs before
    op ``i``; its time is left out of the phase's wall time.  Returns
    (durations, failures, wall)."""
    durations, failures = [], []
    started = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        op = ops[i % len(ops)]
        if between is not None:
            t0 = time.perf_counter()
            between(i, t0 - started - paused)
            paused += time.perf_counter() - t0
        t0 = time.perf_counter()
        output, error = run_op(cli, op)
        durations.append(time.perf_counter() - t0)
        if error is None:
            error = op.check(output)
        if error is not None:
            failures.append(f"op {i} ({op.label}): {error}")
        i += 1
        elapsed = time.perf_counter() - started - paused
        if count is not None:
            if i >= count:
                break
        elif elapsed >= seconds and (i >= MIN_OPS or (i >= 2 and elapsed >= HARD_STOP * seconds)):
            break
    return durations, failures, elapsed


def setup_probe(argvs_json):
    """Child mode: import rncca, run one op, print the monotonic clock."""
    from rncca import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in json.loads(argvs_json):
            cli.main(argv)
    print(json.dumps(_monotonic()))
    return 0


def setup_seconds(op):
    """Wall time of one fresh process from spawn through ``import rncca``
    and the first op."""
    started = _monotonic()
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", json.dumps(op.argvs)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if child.returncode != 0:
        raise RuntimeError(f"setup probe failed: {child.stderr.strip()}")
    return json.loads(child.stdout.strip().splitlines()[-1]) - started


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(inherited_threads):
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "rncca").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "threads_inherited": inherited_threads,
    }


def _percentile_90(values):
    return statistics.quantiles(values, n=10)[8]


def measure(cli, ops, seconds):
    """End-to-end metrics; ops[0] was already run once to warm up."""
    setup_samples = []

    def probe(i, elapsed):
        # Spread the set-up samples over the measured phase, as slow
        # swings in host speed are spread over it.
        if len(setup_samples) < SETUP_SAMPLES and elapsed >= len(setup_samples) * seconds / SETUP_SAMPLES:
            setup_samples.append(setup_seconds(ops[0]))

    durations, failures, wall = run_ops(cli, ops, seconds=seconds, between=probe)
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup_seconds(ops[0]))
    n = len(durations)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_p90_s": (_percentile_90(durations), "s"),
        "ops_per_s": (n / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {
        "ops": n,
        "beyond_p90": sum(d > metrics["op_p90_s"][0] for d in durations),
        "setup_s": setup_samples,
        "measured_wall_s": wall,
    }
    return metrics, samples, n, failures


def measure_traced(cli, ops, files, workload, seed):
    """Per-layer metrics over TRACE_CYCLES[workload] traced cycles of the
    op list, each after the same cycle untraced; alternating the two
    keeps drift in host speed out of trace.overhead_ratio."""
    import layers

    tracer = layers.Tracer()
    attempted, failures, wall_plain, wall_traced = 0, [], 0.0, 0.0
    for cycle in range(TRACE_CYCLES[workload]):
        durations, failed, wall = run_ops(cli, ops, count=len(ops))
        attempted, failures, wall_plain = attempted + len(durations), failures + failed, wall_plain + wall
        base = cycle * len(ops)
        tracer.install()
        try:
            durations, failed, wall = run_ops(
                cli, ops, count=len(ops), between=lambda i, elapsed: setattr(tracer, "op_id", base + i)
            )
        finally:
            tracer.uninstall()
        attempted, failures, wall_traced = attempted + len(durations), failures + failed, wall_traced + wall
    totals, steps_under_tauprime = layers.span_totals(tracer)
    rule_texts = [text for name, text in sorted(files.items()) if name.endswith(".rpca")]
    decode_s = sum(getattr(op.check, "decode_s", 0.0) for op in ops)
    metrics = layers.layer_metrics(
        totals,
        steps_under_tauprime,
        layers.scalar_local_rate(rule_texts, seed),
        decode_s,
        wall_traced / wall_plain,
    )
    spans = OUT / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    tracer.save(spans / f"{workload}-seed{seed}.npz", [op.label for op in ops])
    samples = {"traced_ops": attempted // 2, "spans": len(tracer.start), "untraced_wall_s": wall_plain, "traced_wall_s": wall_traced}
    return metrics, samples, attempted, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="long-run, exhaustive-sweep or short-runs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="ARGVS_JSON", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "rncca" / "__init__.py").is_file():
        print(f"error: no rncca sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    inherited_threads = {var: os.environ.get(var) for var in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.setup_probe)

    import rncca
    from rncca import cli

    if Path(rncca.__file__).resolve().parent != SRC / "rncca":
        print(f"error: imported rncca from {rncca.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    inputs = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        ops, files = workloads.build(args.workload, args.seed, inputs)
        workloads.write_inputs(inputs, files)
        for op in ops:
            op.check.prepare()
        run_op(cli, ops[0])
        if args.trace:
            metrics, samples, attempted, failures = measure_traced(cli, ops, files, args.workload, args.seed)
        else:
            metrics, samples, attempted, failures = measure(cli, ops, args.seconds)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, 1 client, 1 thread, in-process rncca.cli.main",
        "env": environment(inherited_threads),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "failed_ops_ratio": len(failures) / attempted,
        "samples": samples,
        "attempted": attempted,
        "failures": failures,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=2) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} attempted={attempted} failed={len(failures)}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for failure in failures[:10]:
        print(f"FAILED {failure}")
    for name, (value, unit) in {**metrics, "failed_ops_ratio": (result["failed_ops_ratio"], "ratio")}.items():
        print(f"{name:52s} {value:>16.6g} {unit}")
    print("samples " + json.dumps(samples))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
