"""Command-line front end.

Commands: ``validate`` (reversibility of a rule file), ``convert``
(derive the 4-neighbor rule and write its metadata), ``run`` (render a
space-time diagram), ``verify`` (run an oracle), and ``embed`` (block-
encode a partitioned configuration).

Exit codes: 0 on success/pass, 1 on a property failure or a rule
``validate`` finds not reversible, 2 on a refusal to start: usage and
parse errors, a non-reversible rule given to ``convert``, ``run`` or
``verify``, and a command too large to hold in memory or index.
``RNCCA_BUDGET`` overrides the exhaustive sweep budget.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import engine, formats, rpca, verify
from .convert import (
    NEIGHBORHOOD,
    ParticleCode,
    convert,
    encode_tau,
    encode_tau_prime,
    is_balanced_heavy,
    is_balanced_light,
)

__all__ = ["RenderSpec", "render", "main", "run_main"]

# Table dumps are refused above this many transitions; big derived
# rules stay computed.
_DUMP_LIMIT = 1 << 22


@dataclass(frozen=True)
class RenderSpec:
    """How to draw a trajectory: format, cell window, and step count."""

    format: str
    x_min: int
    x_max: int
    steps: int

    def __post_init__(self):
        if self.format not in ("text", "pgm", "csv"):
            raise ValueError(f"unknown render format {self.format!r}")
        if self.x_min > self.x_max:
            raise ValueError("window must satisfy x_min <= x_max")
        if self.steps < 0:
            raise ValueError("step count must be non-negative")


def _gray(value, state_count):
    if state_count <= 1:
        return 0
    return 255 * value // (state_count - 1)


def _labeller(fmt, state_count):
    """The label of one cell value in format ``fmt``."""
    if fmt == "text":
        width = len(str(state_count - 1))
        return lambda value: str(value).rjust(width)
    if fmt == "pgm":
        return lambda value: str(_gray(value, state_count))
    return str


def render(trajectory, spec):
    """Render a trajectory to text, PGM (P2), or CSV.  Rows are time
    steps, t = 0 on top; output is a pure function of the inputs.

    A trajectory that ``engine.run`` stepped as numpy rows is drawn from
    those rows; one built otherwise, from its configurations."""
    s = trajectory.rule.state_count
    label = _labeller(spec.format, s)
    if trajectory.rows is not None:
        matrix = engine.window_matrix(trajectory, spec.x_min, spec.x_max)
        if matrix.min() < 0 or matrix.max() >= s:
            rows, matrix = matrix.tolist(), None
    else:
        rows = [engine.window_cells(cfg, spec.x_min, spec.x_max) for cfg in trajectory.configs]
        matrix = None
    if matrix is None:
        # A trajectory built by hand, whose cells need not be states, or
        # one whose ``local_batch`` breaks its rule's range (``engine.run``
        # range-checks only the start) is labelled cell by cell.
        labelled = [[label(value) for value in row] for row in rows]
    elif spec.format == "text":
        # Text labels share one width: gather each with a trailing space
        # from a fixed-width byte table, and end every row with a newline.
        table = np.array([label(q) + " " for q in range(s)], dtype=bytes)
        text = table.take(matrix).view(np.uint8)
        text[:, -1] = ord("\n")
        return text.tobytes().decode("ascii")
    else:
        labelled = np.array([label(q) for q in range(s)], dtype=object).take(matrix).tolist()
    if spec.format == "csv":
        xs = range(spec.x_min, spec.x_max + 1)
        lines = ["t,x,state"]
        lines += [f"{t},{x},{cell}" for t, row in enumerate(labelled) for x, cell in zip(xs, row)]
    else:
        lines = [" ".join(row) for row in labelled]
        if spec.format == "pgm":
            lines = ["P2", f"{spec.x_max - spec.x_min + 1} {len(labelled)}", "255"] + lines
    return "\n".join(lines) + "\n"


def _write(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _parse_ncca(text):
    """Parse a derived-rule file; a full transition-table dump is
    required to make it runnable.

    Transition lines in the form ``convert --dump-table`` writes are
    read all at once by ``_dump_lines``; every other line is read in
    order by ``_ncca_line``, whose errors name the line.
    """
    lines = text.splitlines()
    dumped, numbers = _dump_lines(lines)
    first_dumped = int(dumped.argmax()) if dumped.any() else len(lines)
    header = None
    others = []  # (line index, key, output) of transition lines read one by one
    for i in np.flatnonzero(~dumped).tolist():
        if header is None and i > first_dumped:
            break
        header = _ncca_line(lines[i], i + 1, header, others)
    if header is None:
        if first_dumped < len(lines):
            raise rpca.RuleParseError("expected an 'ncca ...' header", first_dumped + 1)
        raise rpca.RuleParseError("missing 'ncca ...' header", 1)
    keys, outputs = numbers[:, :4], numbers[:, 4]
    if others:
        at = np.concatenate([np.flatnonzero(dumped), [i for i, _, _ in others]])
        order = np.argsort(at, kind="stable")
        keys = np.concatenate([keys, np.array([key for _, key, _ in others]).reshape(-1, 4)])[order]
        outputs = np.concatenate([outputs, np.array([q for _, _, q in others])])[order]
    if not len(outputs):
        raise rpca.RuleParseError(
            "no transition table; re-run convert with --dump-table to make the file runnable", 1
        )
    return engine.make_rule(header, NEIGHBORHOOD, (keys, outputs), 0)


def _ncca_line(raw, line_no, header, transitions):
    """Read one line of an ncca file: the header (returns its state
    count), a comment, a balanced-pair line, or a transition, which is
    appended to ``transitions``.  Returns the header's state count."""
    line = raw.split("#", 1)[0].strip()
    if not line:
        return header
    tokens = line.split()
    if header is None:
        if tokens[0] != "ncca":
            raise rpca.RuleParseError("expected an 'ncca ...' header", line_no)
        fields = dict(token.split("=", 1) for token in tokens[1:] if "=" in token)
        try:
            return int(fields["states"])
        except (KeyError, ValueError):
            raise rpca.RuleParseError("header must carry states=<int>", line_no) from None
    if tokens[0] in ("bc", "br"):
        return header
    if tokens[0] == "t":
        if len(tokens) != 7 or tokens[5] != "->":
            raise rpca.RuleParseError("expected 't a b c d -> q'", line_no)
        try:
            transitions.append((line_no - 1, tuple(int(v) for v in tokens[1:5]), int(tokens[6])))
        except ValueError:
            raise rpca.RuleParseError("transition fields must be integers", line_no) from None
        return header
    raise rpca.RuleParseError(f"unknown line kind {tokens[0]!r}", line_no)


def _dump_lines(lines):
    """Which lines read exactly ``t a b c d -> q`` with a, b, c, d, q of
    one or two ASCII digits, as ``convert --dump-table`` writes them (it
    refuses above 2**22 transitions, so 45 states), and the five numbers
    of those lines.  One cursor per line steps through every line at once."""
    raw = ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")
    # Zero bytes past the end keep every cursor in bounds.
    data = np.frombuffer(raw + bytes(24), dtype=np.uint8)
    cursor = np.concatenate([[0], np.flatnonzero(data == ord("\n")) + 1])[: len(lines)]
    dumped = np.ones(len(lines), dtype=bool)
    numbers = np.empty((len(lines), 5), dtype=np.int64)
    for k, before in enumerate((b"t ", b" ", b" ", b" ", b" -> ")):
        for char in before:
            dumped &= data[cursor] == char
            cursor += 1
        first, second = data[cursor] - ord("0"), data[cursor + 1] - ord("0")
        dumped &= first < 10
        two = second < 10
        numbers[:, k] = np.where(two, first * 10 + second, first)
        cursor += 1 + two
    dumped &= data[cursor] == ord("\n")
    return dumped, numbers[dumped]


def _load_int_rule(path):
    """A runnable integer-state rule: an rpca file (auto-converted) or
    an ncca file with a table dump."""
    text = _read(path)
    first = next(
        (line.strip() for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")),
        "",
    )
    if first.startswith("rpca"):
        return convert(rpca.parse_rpca(text))
    if first.startswith("ncca"):
        return _parse_ncca(text)
    raise ValueError("rule file must start with an 'rpca' or 'ncca' header")


def cmd_validate(args):
    p = rpca.parse_rpca(_read(args.rule))
    sizes = f"states: {p.state_count} (C={p.c_size}, R={p.r_size})"
    witness = rpca._injectivity_witness(p)
    if witness is None:
        print(f"reversible: yes, {sizes}")
        return 0
    print("reversible: no, {}; inputs {} and {} both map to {}".format(sizes, *witness))
    return 1


def cmd_convert(args):
    text = _read(args.rule)
    p = rpca.parse_rpca(text)
    rpca._require_reversible(p)
    code = ParticleCode(p.c_size, p.r_size)
    digest = hashlib.sha256(text.encode()).hexdigest()
    neighborhood = ",".join(str(n) for n in NEIGHBORHOOD)
    s = code.state_count
    lines = [
        f"ncca C={p.c_size} R={p.r_size} states={s}"
        f" neighborhood={neighborhood} phi=canonical source={digest}"
    ]
    if args.dump_balanced_pairs:
        for kind, balanced in (("bc", is_balanced_heavy), ("br", is_balanced_light)):
            lines += [f"{kind} {q1} {q2}" for q1 in range(s) for q2 in range(s) if balanced(code, q1, q2)]
    if args.dump_table:
        if s**4 > _DUMP_LIMIT:
            raise ValueError(f"refusing to dump {s ** 4} transitions; the rule stays computed")
        # Every neighborhood (a, b, c, d) in order, d fastest.
        cols = np.indices((s,) * 4).reshape(4, -1)
        images = convert(p).local_batch(list(cols))
        lines += [f"t {a} {b} {c} {d} -> {q}" for a, b, c, d, q in zip(*cols.tolist(), images.tolist())]
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _default_window(config, rule, steps):
    if isinstance(config, engine.Cyclic):
        return 0, len(config.word) - 1
    start, end = engine._center_span(config)
    wl, wr = engine.window_growth(rule.neighborhood)
    return start - wl * steps - 1, end + wr * steps + 1


def cmd_run(args):
    rule = _load_int_rule(args.rule)
    config = formats.parse_configuration_text(_read(args.config))
    if args.window is None:
        x_min, x_max = _default_window(config, rule, args.steps)
    else:
        x_min, x_max = args.window
    spec = RenderSpec(args.format, x_min, x_max, args.steps)
    trajectory = engine.run(rule, config, spec.steps)
    _write(render(trajectory, spec), args.out)
    return 0


def cmd_verify(args):
    budget = args.budget
    if budget is None and (env := os.environ.get("RNCCA_BUDGET")):
        try:
            budget = int(env)
        except ValueError:
            raise ValueError(f"RNCCA_BUDGET must be an integer, got {env!r}") from None
    mode = "sampled" if args.sampled is not None else "exhaustive"
    count = args.sampled
    if args.property in ("conserve", "inject"):
        rule = _load_int_rule(args.rule)
        if args.property == "conserve":
            report = verify.check_number_conserving(
                rule, mode=mode, max_support=args.support, count=count, seed=args.seed, budget=budget
            )
        else:
            report = verify.check_injective_cyclic(
                rule, args.cycle, mode=mode, count=count, seed=args.seed, budget=budget
            )
    else:
        p = rpca.parse_rpca(_read(args.rule))
        if args.property == "simulate":
            report = verify.check_simulation_correspondence(
                p, mode=mode, max_support=args.support, steps=args.steps,
                count=count, seed=args.seed, budget=budget,
            )
        else:
            gaps = None if args.gaps is None else _parse_gaps(args.gaps)
            report = verify.check_tau_prime_correspondence(
                p,
                k=args.spacing if gaps is None else None,
                gaps=gaps,
                mode=mode,
                max_support=args.support,
                steps=args.steps,
                count=count,
                seed=args.seed,
                budget=budget,
            )
    print(verify.format_report(report))
    return 0 if report.passed else 1


def _parse_gaps(text):
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"bad gap list {text!r}; expected comma-separated integers") from None


def cmd_embed(args):
    p = rpca.parse_rpca(_read(args.rule))
    code = ParticleCode(p.c_size, p.r_size)
    config = formats.parse_configuration_text(_read(args.config))
    if not isinstance(config, (engine.Finite, engine.Cyclic)):
        raise ValueError("only finite and cyclic configurations can be block-encoded")
    if args.tau:
        encoded = encode_tau(code, config)
    elif args.tau_prime is not None:
        encoded = encode_tau_prime(code, config, k=args.tau_prime)
    else:
        encoded = encode_tau_prime(code, config, gaps=_parse_gaps(args.gaps))
    _write(formats.format_configuration(encoded) + "\n", args.out)
    return 0


@functools.cache
def _parser():
    """The argument parser, built once per process: argparse keeps no
    state between ``parse_args`` calls."""
    parser = argparse.ArgumentParser(
        prog="rncca",
        description="Build, run, and verify number-conserving reversible cellular automata",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a rule file for reversibility")
    p_validate.add_argument("rule")
    p_validate.set_defaults(func=cmd_validate)

    p_convert = sub.add_parser("convert", help="derive the 4-neighbor rule")
    p_convert.add_argument("rule")
    p_convert.add_argument("-o", "--out", default=None)
    p_convert.add_argument("--dump-balanced-pairs", action="store_true")
    p_convert.add_argument("--dump-table", action="store_true")
    p_convert.set_defaults(func=cmd_convert)

    p_run = sub.add_parser("run", help="render a space-time diagram")
    p_run.add_argument("rule")
    p_run.add_argument("config")
    p_run.add_argument("--steps", type=int, required=True)
    p_run.add_argument("--format", choices=("text", "pgm", "csv"), default="text")
    p_run.add_argument("--window", type=int, nargs=2, metavar=("XMIN", "XMAX"), default=None)
    p_run.add_argument("-o", "--out", default=None)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="run a property oracle")
    p_verify.add_argument("rule")
    p_verify.add_argument("property", choices=("conserve", "inject", "simulate", "tauprime"))
    modes = p_verify.add_mutually_exclusive_group()
    modes.add_argument("--exhaustive", action="store_true", help="exhaustive mode (default)")
    modes.add_argument("--sampled", type=int, default=None, metavar="COUNT")
    p_verify.add_argument("--support", type=int, default=4)
    p_verify.add_argument("--cycle", type=int, default=3)
    p_verify.add_argument("--steps", type=int, default=4)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--spacing", type=int, default=3)
    p_verify.add_argument("--gaps", default=None)
    p_verify.add_argument("--budget", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_embed = sub.add_parser("embed", help="block-encode a partitioned configuration")
    p_embed.add_argument("rule")
    p_embed.add_argument("config")
    group = p_embed.add_mutually_exclusive_group(required=True)
    group.add_argument("--tau", action="store_true")
    group.add_argument("--tau-prime", type=int, default=None, metavar="K")
    group.add_argument("--gaps", default=None)
    p_embed.add_argument("-o", "--out", default=None)
    p_embed.set_defaults(func=cmd_embed)

    return parser


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def run_main():
    sys.exit(main())
