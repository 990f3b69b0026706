"""Particle encoding of a reversible 2-part PCA as a number-conserving CA.

Every state of the derived 4-neighbor CA is an integer that splits
uniquely into a stationary *heavy* mass (a multiple of 2|R|) and a
right-moving *light* mass (below 2|R|).  Heavy masses below 2|C||R|
and light masses below |R| are the "hat" halves; the remaining masses
are the "check" halves.  A hat/check pair whose masses add to a fixed
pair sum jointly encodes one part state of the source PCA; adjacent
cells whose halves form such a pair are *balanced*.

The derived local rule moves every light mass one cell rightward and
keeps heavy masses in place, except where a balanced light pair sits
immediately left of a balanced heavy pair: there the four masses are
rewritten through the source table, which performs one source-CA
transition in place.  Mass is only ever transferred inside a balanced
pair or shifted, so cell sums are conserved, and the rewrite is
invertible because the source table is.

``encode_tau`` interleaves the hat and check images of each source
cell into a two-cell block; the derived CA then tracks the source CA
two steps per step.  ``encode_tau_prime`` spaces the blocks out with
quiescent cells, uniformly or per-block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import BiPeriodic, Cyclic, Finite
from .rpca import QUIESCENT_PAIR, Rpca2, check_local_injective

__all__ = [
    "ParticleCode",
    "NccaRule",
    "TauDecodeError",
    "decompose",
    "compose",
    "heavy_part",
    "light_part",
    "is_balanced_heavy",
    "is_balanced_light",
    "phi",
    "phi_inverse",
    "convert",
    "encode_tau",
    "encode_tau_prime",
    "decode",
    "decode_tau_prime",
]

NEIGHBORHOOD = (-2, -1, 0, 1)

# Entries of the reduced table (64 |C|^3 |R|^3); larger rules are refused
# rather than allocated.  96 states need 884,736.
_TABLE_LIMIT = 1 << 26


@dataclass(frozen=True)
class ParticleCode:
    """Mass arithmetic of the 4|C||R|-state particle encoding."""

    c_size: int
    r_size: int

    def __post_init__(self):
        if self.c_size < 1 or self.r_size < 1:
            raise ValueError("part state sets must be non-empty")

    @property
    def state_count(self):
        return 4 * self.c_size * self.r_size

    @property
    def light_modulus(self):
        # Stride between consecutive heavy masses; light masses live below it.
        return 2 * self.r_size

    @property
    def heavy_pair_sum(self):
        return 2 * (2 * self.c_size - 1) * self.r_size

    @property
    def light_pair_sum(self):
        return 2 * self.r_size - 1

    @property
    def hat_heavy_limit(self):
        return 2 * self.c_size * self.r_size

    @property
    def hat_light_limit(self):
        return self.r_size

    @property
    def hat_heavies(self):
        return tuple(range(0, self.hat_heavy_limit, self.light_modulus))

    @property
    def check_heavies(self):
        return tuple(range(self.hat_heavy_limit, self.state_count, self.light_modulus))

    @property
    def hat_lights(self):
        return tuple(range(self.r_size))

    @property
    def check_lights(self):
        return tuple(range(self.r_size, self.light_modulus))

    @property
    def quiescent_block(self):
        """Hat and check images of the quiescent pair (0, 0)."""
        return (0, self.heavy_pair_sum + self.light_pair_sum)


@dataclass(frozen=True)
class NccaRule(engine.Rule):
    """The 4-neighbor rule derived from a reversible 2-part PCA.

    ``local`` and ``local_batch`` both read one reduced lookup table
    indexed by (light(q-2), q-1, q0, heavy(q1) // 2|R|): 64 |C|^3 |R|^3
    entries instead of state_count**4, stored as uint8 up to 256 states
    (884,736 entries, 0.88 MB, at 96 states).
    """

    code: ParticleCode = None
    rpca: Rpca2 = None


def decompose(code, q):
    """Split a state into (heavy mass, light mass); compose inverts exactly."""
    if not 0 <= q < code.state_count:
        raise ValueError(f"state {q} out of range for {code.state_count} states")
    light = q % code.light_modulus
    return q - light, light


def compose(code, heavy, light):
    if heavy % code.light_modulus or not 0 <= heavy < code.state_count:
        raise ValueError(f"{heavy} is not a heavy mass")
    if not 0 <= light < code.light_modulus:
        raise ValueError(f"{light} is not a light mass")
    return heavy + light


def heavy_part(code, q):
    return q - q % code.light_modulus


def light_part(code, q):
    return q % code.light_modulus


def is_balanced_heavy(code, q1, q2):
    """True when the heavy halves of (q1, q2) are a complementary
    hat/check pair.  Order matters: the hat half comes first."""
    h1 = q1 - q1 % code.light_modulus
    h2 = q2 - q2 % code.light_modulus
    return h1 < code.hat_heavy_limit <= h2 and h1 + h2 == code.heavy_pair_sum


def is_balanced_light(code, q1, q2):
    """Light-half analogue of is_balanced_heavy (hat half first)."""
    l1 = q1 % code.light_modulus
    l2 = q2 % code.light_modulus
    return l1 < code.hat_light_limit <= l2 and l1 + l2 == code.light_pair_sum


def phi(code, variant, c, r):
    """Map a source pair to its hat or check block value.

    The canonical choice, fixed once and for all: the hat heavy image
    of c is 2c|R| and the hat light image of r is r; check images are
    the complements to the pair sums.
    """
    if not 0 <= c < code.c_size:
        raise ValueError(f"center part {c} out of range")
    if not 0 <= r < code.r_size:
        raise ValueError(f"right part {r} out of range")
    if variant == "hat":
        return 2 * c * code.r_size + r
    if variant == "check":
        return (code.heavy_pair_sum - 2 * c * code.r_size) + (code.light_pair_sum - r)
    raise ValueError(f"unknown variant {variant!r}")


def phi_inverse(code, variant, q):
    """Invert phi; rejects states outside the variant's codomain."""
    heavy, light = decompose(code, q)
    if variant == "hat":
        if heavy >= code.hat_heavy_limit or light >= code.hat_light_limit:
            raise ValueError(f"state {q} is not a hat block value")
        return heavy // code.light_modulus, light
    if variant == "check":
        if heavy < code.hat_heavy_limit or light < code.hat_light_limit:
            raise ValueError(f"state {q} is not a check block value")
        return (
            (code.heavy_pair_sum - heavy) // code.light_modulus,
            code.light_pair_sum - light,
        )
    raise ValueError(f"unknown variant {variant!r}")


def convert(p):
    """Derive the 4-neighbor number-conserving rule from a reversible table.

    The local rule for cells (q-2, q-1, q0, q1) updating position 0:

    * if (q-1, q0) is light-balanced and (q0, q1) is heavy-balanced,
      position 0 starts a transition site: decode the hat halves, apply
      the source table, return the hat image of the result;
    * if (q-2, q-1) is light-balanced and (q-1, q0) is heavy-balanced,
      position 0 is the trailing cell of a transition site: return the
      check image of the same table application;
    * elsewhere the heavy mass stays and the left neighbor's light
      mass arrives: return heavy(q0) + light(q-1).

    Only light(q-2) and heavy(q1) matter, so the rule is compiled into
    one table indexed by (light(q-2), q-1, q0, heavy(q1) // 2|R|).  The
    two trigger guards are mutually exclusive (they need the heavy half
    of q0 in disjoint ranges); the build checks this over the whole
    table.
    """
    if not check_local_injective(p):
        raise ValueError("table is not injective; the derived rule would not be reversible")
    code = ParticleCode(p.c_size, p.r_size)
    s = code.state_count
    two_r = code.light_modulus
    two_c = 2 * p.c_size
    if two_r * s * s * two_c > _TABLE_LIMIT:
        raise ValueError(
            f"a {p.c_size}x{p.r_size} source needs a {two_r * s * s * two_c}-entry rule table,"
            f" over the limit of {_TABLE_LIMIT}"
        )
    table = _reduced_table(code, p)
    flat = table.reshape(-1)
    cells = memoryview(flat)

    def local(qm2, qm1, q0, q1):
        return cells[((qm2 % two_r * s + qm1) * s + q0) * two_c + q1 // two_r]

    def local_batch(cols):
        a, b, c, d = (np.asarray(col, dtype=np.intp) for col in cols)
        return flat[(((a % two_r) * s + b) * s + c) * two_c + d // two_r]

    return NccaRule(
        state_count=s,
        neighborhood=NEIGHBORHOOD,
        local=local,
        quiescent=0,
        local_batch=local_batch,
        code=code,
        rpca=p,
    )


def _reduced_table(code, p):
    """The derived rule as a (2|R|, s, s, 2|C|) array over (light(q-2),
    q-1, q0, heavy(q1) // 2|R|), in the smallest unsigned dtype that
    holds every state.

    Every entry starts as the shift move heavy(q0) + light(q-1); the
    transition-site entries are then overwritten from the source table.
    """
    s = code.state_count
    two_r = code.light_modulus
    dtype = np.min_scalar_type(s - 1)
    q = np.arange(s)
    light = q % two_r
    heavy = q - light

    def balanced(part, hat_limit, pair_sum):
        # balanced[x, y]: part(x) is a hat half and part(y) its complement.
        return (part[:, None] < hat_limit) & (part[:, None] + part[None, :] == pair_sum) & (
            part[None, :] >= hat_limit
        )

    light_pair = balanced(light, code.hat_light_limit, code.light_pair_sum)
    heavy_pair = balanced(heavy, code.hat_heavy_limit, code.heavy_pair_sum)
    # q-2 is represented by its light mass alone (a state below 2|R|),
    # q1 by its heavy mass alone (a multiple of 2|R|).
    site_start = light_pair[:, :, None] & heavy_pair[None, :, ::two_r]  # over (q-1, q0, q1)
    site_end = light_pair[:two_r, :, None] & heavy_pair[None, :, :]  # over (q-2, q-1, q0)
    # Both guards fire at (q-2, q-1, q0, q1) iff they fire for some q1 and
    # some q-2 at the same (q-1, q0), so this covers the whole table.
    if (site_start.any(axis=2) & site_end.any(axis=0)).any():
        raise AssertionError("transition guards fired together")
    hat, check = (
        np.array(
            [[phi(code, variant, *p.table[c][r]) for r in range(p.r_size)] for c in range(p.c_size)],
            dtype=dtype,
        )
        for variant in ("hat", "check")
    )
    table = np.empty((two_r, s, s, 2 * code.c_size), dtype=dtype)
    table[...] = (heavy[None, :] + light[:, None]).astype(dtype)[None, :, :, None]
    b, c, d = np.nonzero(site_start)
    table[:, b, c, d] = hat[heavy[c] // two_r, light[b]]
    a, b, c = np.nonzero(site_end)
    table[a, b, c] = check[heavy[b] // two_r, a][:, None]
    return table


def _require_pair_finite(config):
    if not isinstance(config, Finite):
        raise TypeError("expected a finite configuration")
    if config.quiescent != QUIESCENT_PAIR:
        raise ValueError("partitioned configurations use quiescent pair (0, 0)")


def encode_tau(code, config):
    """Interleave hat/check block images: source cell x lands on cells
    (2x, 2x+1).

    A finite source configuration becomes bi-periodic (the check image
    of the quiescent pair is nonzero, so the background is not
    quiescent); a cyclic word of length n becomes one of length 2n.
    """
    if isinstance(config, Finite):
        _require_pair_finite(config)
        background = code.quiescent_block
        cells = []
        for pair in config.word:
            cells.append(phi(code, "hat", *pair))
            cells.append(phi(code, "check", *pair))
        return engine.canonicalize(
            BiPeriodic(background, tuple(cells), 2 * config.offset, background)
        )
    if isinstance(config, Cyclic):
        cells = []
        for pair in config.word:
            cells.append(phi(code, "hat", *pair))
            cells.append(phi(code, "check", *pair))
        return Cyclic(tuple(cells))
    raise TypeError("only finite and cyclic configurations can be block-encoded")


def encode_tau_prime(code, config, k=None, gaps=None, background_gap=1):
    """Blocks with breathing room: source cell x lands on cells
    (kx, kx+1) with k-2 quiescent cells between blocks, or with an
    explicit per-block gap list.

    Uniform spacing needs k >= 3 (k = 2 is exactly the plain block
    encoding).  A gap list gives the number of quiescent cells after
    each block: length n-1 for a finite word of n cells (the
    background keeps uniform spacing ``background_gap + 2``), length n
    for a cyclic word (the last gap wraps around).  All gaps must be
    at least 1.
    """
    if (k is None) == (gaps is None):
        raise ValueError("give exactly one of k and gaps")
    hat0, check0 = code.quiescent_block
    if k is not None:
        k = int(k)
        if k < 3:
            raise ValueError("uniform spacing needs k >= 3; k = 2 is the plain block encoding")
        if isinstance(config, Finite):
            _require_pair_finite(config)
            background = (hat0, check0) + (0,) * (k - 2)
            cells = []
            for pair in config.word:
                cells.append(phi(code, "hat", *pair))
                cells.append(phi(code, "check", *pair))
                cells.extend([0] * (k - 2))
            if cells:
                del cells[-(k - 2):]
            return engine.canonicalize(
                BiPeriodic(background, tuple(cells), k * config.offset, background)
            )
        if isinstance(config, Cyclic):
            cells = []
            for pair in config.word:
                cells.append(phi(code, "hat", *pair))
                cells.append(phi(code, "check", *pair))
                cells.extend([0] * (k - 2))
            return Cyclic(tuple(cells))
        raise TypeError("only finite and cyclic configurations can be block-encoded")
    gaps = [int(g) for g in gaps]
    if any(g < 1 for g in gaps):
        raise ValueError("every gap must leave at least one quiescent cell")
    if isinstance(config, Finite):
        _require_pair_finite(config)
        if len(gaps) != max(0, len(config.word) - 1):
            raise ValueError(
                f"need {max(0, len(config.word) - 1)} gaps for {len(config.word)} blocks, got {len(gaps)}"
            )
        if int(background_gap) < 1:
            raise ValueError("background gap must be at least 1")
        k_bg = int(background_gap) + 2
        background = (hat0, check0) + (0,) * (k_bg - 2)
        if not config.word:
            return BiPeriodic(background, (), 0, background)
        cells = []
        for i, pair in enumerate(config.word):
            cells.append(phi(code, "hat", *pair))
            cells.append(phi(code, "check", *pair))
            if i < len(gaps):
                cells.extend([0] * gaps[i])
        start = k_bg * config.offset
        # Pad to the next background block boundary, keeping at least
        # one quiescent cell before the background resumes.
        end = start + len(cells)
        next_block = -((-(end + 1)) // k_bg) * k_bg
        cells.extend([0] * (next_block - end))
        return engine.canonicalize(
            BiPeriodic(background, tuple(cells), start, background)
        )
    if isinstance(config, Cyclic):
        if len(gaps) != len(config.word):
            raise ValueError(
                f"need {len(config.word)} gaps for a cyclic word of {len(config.word)} blocks"
            )
        cells = []
        for pair, gap in zip(config.word, gaps):
            cells.append(phi(code, "hat", *pair))
            cells.append(phi(code, "check", *pair))
            cells.extend([0] * gap)
        return Cyclic(tuple(cells))
    raise TypeError("only finite and cyclic configurations can be block-encoded")


class TauDecodeError(ValueError):
    """Input is not a valid block encoding; carries the offending cell."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"cell {position}: {message}"
        super().__init__(message)
        self.position = position


def _decode_block(code, q_hat, q_check, position):
    heavy, light = decompose(code, q_hat)
    if heavy >= code.hat_heavy_limit or light >= code.hat_light_limit:
        raise TauDecodeError(f"state {q_hat} is not a hat block value", position)
    heavy2, light2 = decompose(code, q_check)
    if heavy2 < code.hat_heavy_limit or light2 < code.hat_light_limit:
        raise TauDecodeError(f"state {q_check} is not a check block value", position + 1)
    pair = phi_inverse(code, "hat", q_hat)
    if phi_inverse(code, "check", q_check) != pair:
        raise TauDecodeError(
            f"block halves {q_hat},{q_check} encode different cell values", position
        )
    return pair


def decode(code, config, expected_phase="even"):
    """Invert the plain block encoding.

    Only the even phase (blocks starting at even cells, the phase of
    every encoded configuration and of its images after full two-step
    rounds) is decodable; mid-round configurations are intentionally
    not supported.  Violations of the block structure raise
    TauDecodeError with the offending cell position.
    """
    if expected_phase not in ("even", "odd"):
        raise ValueError(f"unknown phase {expected_phase!r}")
    if expected_phase == "odd":
        raise ValueError("odd-phase decoding is not supported; decode at even times only")
    if isinstance(config, Cyclic):
        word = config.word
        if len(word) % 2:
            raise TauDecodeError(f"cyclic word length {len(word)} is odd", 0)
        pairs = tuple(
            _decode_block(code, word[i], word[i + 1], i) for i in range(0, len(word), 2)
        )
        return Cyclic(pairs)
    if isinstance(config, BiPeriodic):
        cfg = engine.canonicalize(config)
        background = code.quiescent_block
        if cfg.left != background:
            raise TauDecodeError(
                f"left background {cfg.left} is not the quiescent block {background}"
            )
        if cfg.right != background:
            raise TauDecodeError(
                f"right background {cfg.right} is not the quiescent block {background}"
            )
        start = cfg.center_offset
        if start % 2:
            start -= 1
        end = cfg.center_offset + len(cfg.center)
        if end % 2:
            end += 1
        pairs = tuple(
            _decode_block(
                code, engine.cell_at(cfg, x), engine.cell_at(cfg, x + 1), x
            )
            for x in range(start, end, 2)
        )
        return engine.canonicalize(Finite(start // 2, pairs, QUIESCENT_PAIR))
    raise TauDecodeError(
        "finite configurations are never block encodings (the background is not quiescent)"
    )


def decode_tau_prime(code, config, k):
    """Invert the uniformly spaced encoding: blocks at multiples of k,
    exactly k-2 quiescent cells between them."""
    k = int(k)
    if k < 3:
        raise ValueError("uniform spacing needs k >= 3")
    hat0, check0 = code.quiescent_block
    background = (hat0, check0) + (0,) * (k - 2)
    if isinstance(config, Cyclic):
        word = config.word
        if len(word) % k:
            raise TauDecodeError(f"cyclic word length {len(word)} is not a multiple of {k}", 0)
        pairs = []
        for i in range(0, len(word), k):
            pairs.append(_decode_block(code, word[i], word[i + 1], i))
            for j in range(i + 2, i + k):
                if word[j] != 0:
                    raise TauDecodeError(f"gap cell holds {word[j]}", j)
        return Cyclic(tuple(pairs))
    if isinstance(config, BiPeriodic):
        cfg = engine.canonicalize(config)
        if cfg.left != background or cfg.right != background:
            raise TauDecodeError(f"backgrounds do not match the spacing-{k} quiescent block")
        start = cfg.center_offset - cfg.center_offset % k
        end = cfg.center_offset + len(cfg.center)
        end = -((-end) // k) * k
        pairs = []
        for x in range(start, end, k):
            pairs.append(
                _decode_block(code, engine.cell_at(cfg, x), engine.cell_at(cfg, x + 1), x)
            )
            for j in range(x + 2, x + k):
                if engine.cell_at(cfg, j) != 0:
                    raise TauDecodeError(f"gap cell holds {engine.cell_at(cfg, j)}", j)
        return engine.canonicalize(Finite(start // k, tuple(pairs), QUIESCENT_PAIR))
    raise TauDecodeError(
        "finite configurations are never block encodings (the background is not quiescent)"
    )
