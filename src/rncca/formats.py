"""Line-oriented configuration records.

One configuration per line, diff-friendly and trivially parseable:

    finite q#=<cell> @<offset>: v1,v2,...
    cyclic: v1,v2,...
    biperiodic left=v1,... center@<offset>=v1,... right=v1,...

Plain integer cells are written as decimals; partitioned cells as
``(c,r)`` pair literals.  ``#`` starts a comment line and blank lines
are ignored.  ``parse_configuration(format_configuration(c))`` returns
an equal configuration.
"""

from __future__ import annotations

import re

import numpy as np

from .engine import BiPeriodic, Cyclic, Finite

__all__ = [
    "ConfigParseError",
    "parse_configuration",
    "parse_configuration_text",
    "format_configuration",
]


class ConfigParseError(ValueError):
    """Malformed configuration text; carries the 1-based line number."""

    def __init__(self, message, line=1):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _cell_text(cell):
    if isinstance(cell, tuple):
        return f"({cell[0]},{cell[1]})"
    return str(cell)


def _cells_text(cells):
    if set(map(type, cells)) <= {int}:
        return ",".join(map(str, cells))
    return ",".join(map(_cell_text, cells))


def format_configuration(config):
    """Serialize one configuration as a single record line (no newline)."""
    if isinstance(config, Finite):
        head = f"finite q#={_cell_text(config.quiescent)} @{config.offset}:"
        return f"{head} {_cells_text(config.word)}" if config.word else head
    if isinstance(config, Cyclic):
        return f"cyclic: {_cells_text(config.word)}"
    if isinstance(config, BiPeriodic):
        return (
            f"biperiodic left={_cells_text(config.left)}"
            f" center@{config.center_offset}={_cells_text(config.center)}"
            f" right={_cells_text(config.right)}"
        )
    raise TypeError(f"not a configuration: {config!r}")


def _parse_cell(text, line):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1].split(",")
        if len(inner) != 2:
            raise ConfigParseError(f"bad pair literal {text!r}", line)
        try:
            return (int(inner[0]), int(inner[1]))
        except ValueError:
            raise ConfigParseError(f"bad pair literal {text!r}", line) from None
    try:
        return int(text)
    except ValueError:
        raise ConfigParseError(f"bad cell literal {text!r}", line) from None


def _split_cells(text, line):
    """The cells of a comma-separated list.  A comma inside parentheses
    belongs to its cell; the depth of every character is one cumulative
    sum over the text."""
    if "(" not in text and ")" not in text:
        return text.split(",")
    chars = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    depth = np.cumsum((chars == ord("(")).astype(np.intp) - (chars == ord(")")))
    if depth.min() < 0 or depth[-1]:
        raise ConfigParseError("unbalanced parentheses in cell list", line)
    cuts = np.flatnonzero((chars == ord(",")) & (depth == 0)).tolist()
    return [text[i + 1 : j] for i, j in zip([-1, *cuts], [*cuts, len(text)])]


# A list of pair literals of short ASCII decimals, the form
# format_configuration writes: each reads as _parse_cell would read it,
# and none is long enough for int() to refuse.
_PAIR = r"\(-?[0-9]{1,18},-?[0-9]{1,18}\)"
_PAIR_LIST = re.compile(rf"{_PAIR}(?:,{_PAIR})*")
_NO_PARENS = str.maketrans("", "", "()")


def _parse_cells(text, line):
    if not text:
        return ()
    if _PAIR_LIST.fullmatch(text):
        numbers = list(map(int, text.translate(_NO_PARENS).split(",")))
        return tuple(zip(numbers[::2], numbers[1::2]))
    parts = _split_cells(text, line)
    try:
        return tuple(map(int, parts))
    except ValueError:
        # Pair literals, or a bad cell: the first one raises its own message.
        return tuple(_parse_cell(part, line) for part in parts)


def parse_configuration(text, line=1):
    """Parse a single record line."""
    tokens = text.split()
    if not tokens:
        raise ConfigParseError("empty record", line)
    kind = tokens[0]
    if kind == "finite":
        if len(tokens) not in (3, 4) or not tokens[1].startswith("q#="):
            raise ConfigParseError("expected 'finite q#=<cell> @<offset>: cells'", line)
        quiescent = _parse_cell(tokens[1][3:], line)
        at = tokens[2]
        if not at.startswith("@") or not at.endswith(":"):
            raise ConfigParseError("expected '@<offset>:' after the quiescent cell", line)
        try:
            offset = int(at[1:-1])
        except ValueError:
            raise ConfigParseError(f"bad offset {at!r}", line) from None
        cells = _parse_cells(tokens[3], line) if len(tokens) == 4 else ()
        return Finite(offset, cells, quiescent)
    if kind == "cyclic:":
        if len(tokens) != 2:
            raise ConfigParseError("expected 'cyclic: cells'", line)
        # A token is never empty, so neither is its cell list.
        return Cyclic(_parse_cells(tokens[1], line))
    if kind == "biperiodic":
        if (
            len(tokens) != 4
            or not tokens[1].startswith("left=")
            or not tokens[2].startswith("center@")
            or not tokens[3].startswith("right=")
        ):
            raise ConfigParseError(
                "expected 'biperiodic left=... center@<offset>=... right=...'", line
            )
        left = _parse_cells(tokens[1][len("left="):], line)
        center_spec = tokens[2][len("center@"):]
        if "=" not in center_spec:
            raise ConfigParseError("expected 'center@<offset>=...'", line)
        offset_text, _, center_text = center_spec.partition("=")
        try:
            offset = int(offset_text)
        except ValueError:
            raise ConfigParseError(f"bad center offset {offset_text!r}", line) from None
        center = _parse_cells(center_text, line)
        right = _parse_cells(tokens[3][len("right="):], line)
        if not left or not right:
            raise ConfigParseError("background words must be non-empty", line)
        return BiPeriodic(left, center, offset, right)
    raise ConfigParseError(f"unknown record kind {kind!r}", line)


def parse_configuration_text(text):
    """Parse a whole file holding exactly one configuration record."""
    record = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if record is not None:
            raise ConfigParseError("expected exactly one configuration record", line_no)
        record = parse_configuration(line, line_no)
    if record is None:
        raise ConfigParseError("no configuration record found", 1)
    return record
