"""Command-line front end.

Commands: ``validate`` (reversibility of a rule file), ``convert``
(derive the 4-neighbor rule and write its metadata), ``run`` (render a
space-time diagram), ``verify`` (run an oracle), and ``embed`` (block-
encode a partitioned configuration).

Exit codes: 0 on success/pass, 1 on a property or validation failure,
2 on usage or parse errors.  ``RNCCA_BUDGET`` overrides the exhaustive
sweep budget.
"""

from __future__ import annotations

import argparse
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


def render(trajectory, spec):
    """Render a trajectory to text, PGM (P2), or CSV.  Rows are time
    steps, t = 0 on top; output is a pure function of the inputs."""
    s = trajectory.rule.state_count
    if spec.format == "text":
        width = len(str(s - 1))

        def label(value):
            return str(value).rjust(width)

    elif spec.format == "pgm":

        def label(value):
            return str(_gray(value, s))

    else:
        label = str
    # Rules over non-integer cells (state_count None) get no labels; their
    # cells are labelled one by one.
    labels = np.array([label(q) for q in range(s or 0)], dtype=object)
    rows = [
        _row_labels(engine.window_cells(cfg, spec.x_min, spec.x_max), labels, label)
        for cfg in trajectory.configs
    ]
    if spec.format == "csv":
        xs = range(spec.x_min, spec.x_max + 1)
        lines = ["t,x,state"]
        lines += [f"{t},{x},{cell}" for t, row in enumerate(rows) for x, cell in zip(xs, row)]
    else:
        lines = [" ".join(row) for row in rows]
        if spec.format == "pgm":
            lines = ["P2", f"{spec.x_max - spec.x_min + 1} {len(rows)}", "255"] + lines
    return "\n".join(lines) + "\n"


def _row_labels(cells, labels, label):
    """Labels of one row of cells.  A row with cells outside the rule's
    states (possible only in an unstepped start) is labelled cell by cell."""
    row = np.asarray(cells)
    if row.ndim == 1 and row.dtype.kind in "iu" and row.min() >= 0 and row.max() < len(labels):
        return labels[row].tolist()
    return [label(value) for value in cells]


def _write(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _load_rpca(path):
    return rpca.parse_rpca(_read(path))


class NccaParseError(ValueError):
    def __init__(self, message, line=1):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _parse_ncca(text):
    """Parse a derived-rule file; a full transition-table dump is
    required to make it runnable."""
    header = None
    table = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if header is None:
            if tokens[0] != "ncca":
                raise NccaParseError("expected an 'ncca ...' header", line_no)
            fields = dict(token.split("=", 1) for token in tokens[1:] if "=" in token)
            try:
                header = int(fields["states"])
            except (KeyError, ValueError):
                raise NccaParseError("header must carry states=<int>", line_no) from None
            continue
        if tokens[0] in ("bc", "br"):
            continue
        if tokens[0] == "t":
            if len(tokens) != 7 or tokens[5] != "->":
                raise NccaParseError("expected 't a b c d -> q'", line_no)
            try:
                key = tuple(int(v) for v in tokens[1:5])
                table[key] = int(tokens[6])
            except ValueError:
                raise NccaParseError("transition fields must be integers", line_no) from None
            continue
        raise NccaParseError(f"unknown line kind {tokens[0]!r}", line_no)
    if header is None:
        raise NccaParseError("missing 'ncca ...' header", 1)
    if not table:
        raise NccaParseError(
            "no transition table; re-run convert with --dump-table to make the file runnable", 1
        )
    return engine.make_rule(header, NEIGHBORHOOD, table, 0)


def _load_int_rule(path):
    """A runnable integer-state rule: an rpca file (auto-converted) or
    an ncca file with a table dump."""
    text = _read(path)
    first = next(
        (line.strip() for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")),
        "",
    )
    if first.startswith("rpca"):
        p = rpca.parse_rpca(text)
        if not rpca.check_local_injective(p):
            raise ValueError("rule is not reversible; conversion is undefined")
        return convert(p)
    if first.startswith("ncca"):
        return _parse_ncca(text)
    raise ValueError("rule file must start with an 'rpca' or 'ncca' header")


def _injectivity_witness(p):
    seen = {}
    for c in range(p.c_size):
        for r in range(p.r_size):
            image = p.table[c][r]
            if image in seen:
                return seen[image], (c, r), image
            seen[image] = (c, r)
    return None


def cmd_validate(args):
    p = _load_rpca(args.rule)
    if rpca.check_local_injective(p):
        print(f"reversible: yes, states: {p.state_count} (C={p.c_size}, R={p.r_size})")
        return 0
    first, second, image = _injectivity_witness(p)
    print(
        f"reversible: no, states: {p.state_count} (C={p.c_size}, R={p.r_size});"
        f" inputs {first} and {second} both map to {image}"
    )
    return 1


def cmd_convert(args):
    p = _load_rpca(args.rule)
    if not rpca.check_local_injective(p):
        first, second, image = _injectivity_witness(p)
        print(
            f"error: rule is not reversible; inputs {first} and {second} both map to {image}",
            file=sys.stderr,
        )
        return 1
    code = ParticleCode(p.c_size, p.r_size)
    digest = hashlib.sha256(_read(args.rule).encode()).hexdigest()
    neighborhood = ",".join(str(n) for n in NEIGHBORHOOD)
    lines = [
        f"ncca C={p.c_size} R={p.r_size} states={code.state_count}"
        f" neighborhood={neighborhood} phi=canonical source={digest}"
    ]
    if args.dump_balanced_pairs:
        s = code.state_count
        for q1 in range(s):
            for q2 in range(s):
                if is_balanced_heavy(code, q1, q2):
                    lines.append(f"bc {q1} {q2}")
        for q1 in range(s):
            for q2 in range(s):
                if is_balanced_light(code, q1, q2):
                    lines.append(f"br {q1} {q2}")
    if args.dump_table:
        s = code.state_count
        if s**4 > _DUMP_LIMIT:
            print(
                f"error: refusing to dump {s ** 4} transitions; the rule stays computed",
                file=sys.stderr,
            )
            return 2
        rule = convert(p)
        for a in range(s):
            for b in range(s):
                for c in range(s):
                    for d in range(s):
                        lines.append(f"t {a} {b} {c} {d} -> {rule.local(a, b, c, d)}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


def _default_window(config, rule, steps):
    wl, wr = engine.window_growth(rule.neighborhood)
    if isinstance(config, engine.Cyclic):
        return 0, len(config.word) - 1
    if isinstance(config, engine.Finite):
        start = config.offset
        end = config.offset + max(len(config.word), 1) - 1
    else:
        start = config.center_offset
        end = start + max(len(config.center), 1) - 1
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
    if budget is None and os.environ.get("RNCCA_BUDGET"):
        budget = int(os.environ["RNCCA_BUDGET"])
    mode = "sampled" if args.sampled is not None else "exhaustive"
    count = args.sampled
    if args.property in ("conserve", "inject"):
        rule = _load_int_rule(args.rule)
        if args.property == "conserve":
            report = verify.check_number_conserving(
                rule, mode=mode, max_support=args.support, count=count, seed=args.seed
            )
        else:
            report = verify.check_injective_cyclic(
                rule, args.cycle, mode=mode, count=count, seed=args.seed, budget=budget
            )
    else:
        p = _load_rpca(args.rule)
        if not rpca.check_local_injective(p):
            print("error: rule is not reversible", file=sys.stderr)
            return 1
        if args.property == "simulate":
            report = verify.check_simulation_correspondence(
                p, mode=mode, max_support=args.support, steps=args.steps,
                count=count, seed=args.seed,
            )
        else:
            gaps = _parse_gaps(args.gaps) if args.gaps else None
            report = verify.check_tau_prime_correspondence(
                p,
                k=None if gaps else args.spacing,
                gaps=gaps,
                mode=mode,
                max_support=args.support,
                steps=args.steps,
                count=count,
                seed=args.seed,
            )
    print(verify.format_report(report))
    return 0 if report.passed else 1


def _parse_gaps(text):
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"bad gap list {text!r}; expected comma-separated integers") from None


def cmd_embed(args):
    p = _load_rpca(args.rule)
    code = ParticleCode(p.c_size, p.r_size)
    config = formats.parse_configuration_text(_read(args.config))
    if args.tau:
        encoded = encode_tau(code, config)
    elif args.tau_prime is not None:
        encoded = encode_tau_prime(code, config, k=args.tau_prime)
    else:
        encoded = encode_tau_prime(code, config, gaps=_parse_gaps(args.gaps))
    _write(formats.format_configuration(encoded) + "\n", args.out)
    return 0


def _build_parser():
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
    p_verify.add_argument("--exhaustive", action="store_true", help="exhaustive mode (default)")
    p_verify.add_argument("--sampled", type=int, default=None, metavar="COUNT")
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run_main():
    sys.exit(main())
