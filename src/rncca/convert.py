"""Particle encoding of a reversible 2-part PCA as a number-conserving CA.

Every state q of the derived 4-neighbor CA, 0 <= q < s = 4|C||R|, is a
stationary *heavy* mass (a multiple of 2|R|) plus a right-moving
*light* mass (below 2|R|).  Source pair (c, r) has the *hat* value
2c|R| + r (heavy below 2|C||R|, light below |R|) and the *check* value
s - 1 - hat, its complement.

The derived rule is f = T∘S.  S shifts the light layer one cell right:
cell x takes heavy(q_x) + light(q_{x-1}).  A *site* is a pair of cells
(x, x+1) that holds, after S, a hat value followed by its complement.
T rewrites every site through the source table, hat image to x and
check image to x+1, and leaves every other cell as S left it.  S moves
masses and T only trades mass inside a site, so cell sums are
conserved.  No cell of a site can be in another site, before or after
T, so T is a bijection because the source table is, and f is
reversible.

``encode_tau`` interleaves the hat and check images of each source
cell into a two-cell block; the derived CA then tracks the source CA
two steps per step.  ``encode_tau_prime`` spaces the blocks out with
quiescent cells, uniformly or per-block.  Both are one layout,
``_encode``: block i is hat, check, then k - 2 (or ``gaps[i]``)
quiescent cells, and a finite word sits on the spacing-k background
(k = 2 for ``encode_tau``, 3 under a gap list).  ``decode`` and
``decode_tau_prime`` share its inverse, ``_decode``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import BiPeriodic, Cyclic, Finite
from .rpca import QUIESCENT_PAIR, _require_reversible

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
        return (0, self.state_count - 1)


@dataclass(frozen=True)
class NccaRule(engine.Rule):
    """The 4-neighbor rule derived from a reversible 2-part PCA.

    ``local`` and ``local_batch`` both read one reduced lookup table
    indexed by (light(q-2), q0, heavy(q1) // 2|R|, q-1): 64 |C|^3 |R|^3
    entries instead of state_count**4, stored as uint8 up to 256 states
    (884,736 entries, 0.88 MB, at 96 states).  q-1 is the contiguous
    axis: a cyclic sweep's image cell 0 reads the word's last position
    at offset -1, and that position is the fastest axis of its grid.
    """

    code: ParticleCode = None


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

    The canonical choice, fixed once and for all: the hat value is
    2c|R| + r and the check value its complement s - 1 - hat, which
    complements both masses to their pair sums.
    """
    if not 0 <= c < code.c_size:
        raise ValueError(f"center part {c} out of range")
    if not 0 <= r < code.r_size:
        raise ValueError(f"right part {r} out of range")
    hat = 2 * c * code.r_size + r
    if variant == "hat":
        return hat
    if variant == "check":
        return code.state_count - 1 - hat
    raise ValueError(f"unknown variant {variant!r}")


def phi_inverse(code, variant, q):
    """Invert phi; rejects states outside the variant's codomain."""
    heavy, light = decompose(code, q)
    if variant not in ("hat", "check"):
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "check":
        heavy, light = decompose(code, code.state_count - 1 - q)
    if heavy >= code.hat_heavy_limit or light >= code.hat_light_limit:
        raise ValueError(f"state {q} is not a {variant} block value")
    return heavy // code.light_modulus, light


def convert(p):
    """Derive the 4-neighbor number-conserving rule from a reversible table.

    The local rule is f = T∘S read at position 0 of cells (q-2, q-1,
    q0, q1).  After S, position 0 holds u = heavy(q0) + light(q-1), its
    left neighbor heavy(q-1) + light(q-2) and its right neighbor
    heavy(q1) + light(q0):

    * if (u, right neighbor) is a site, T returns the hat image of the
      source table applied to u's pair;
    * if (left neighbor, u) is a site, T returns the check image of the
      same table application to the left neighbor's pair;
    * elsewhere f returns u.

    Only light(q-2) and heavy(q1) matter, so the rule is compiled into
    one table indexed by (light(q-2), q0, heavy(q1) // 2|R|, q-1), q-1
    fastest (``_reduced_table``).
    """
    _require_reversible(p)
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
    # Each cell's share of the table index, by state: int32 holds every
    # index below _TABLE_LIMIT.
    q = np.arange(s, dtype=np.int32)
    ta, tb, tc, td = q % two_r * (s * two_c * s), q, q * (two_c * s), q // two_r * s

    def local(qm2, qm1, q0, q1):
        return cells[((qm2 % two_r * s + q0) * two_c + q1 // two_r) * s + qm1]

    def local_batch(cols):
        """The table at the columns' summed index terms, added in pairs
        (q-2 with q1, q-1 with q0) and not in place: the columns may
        broadcast.  On a sweep's grid each pair spans fewer axes than the
        whole (a 3-cycle reads one column at -2 and +1), so only the last
        add is full size."""
        a, b, c, d = cols
        return flat.take((ta.take(a) + td.take(d)) + (tb.take(b) + tc.take(c)))

    return NccaRule(
        state_count=s,
        neighborhood=NEIGHBORHOOD,
        local=local,
        quiescent=0,
        local_batch=local_batch,
        code=code,
    )


def _reduced_table(code, p):
    """The derived rule f = T∘S as a (2|R|, s, 2|C|, s) array over
    (light(q-2), q0, heavy(q1) // 2|R|, q-1), in the smallest unsigned
    dtype that holds every state.

    q-1 is the last axis because on every cyclic length of at least 2,
    image cell 0 reads the word's last position at offset -1, and
    ``verify._grids`` puts that position on its fastest axis: the
    exhaustive sweeps' gathers then walk consecutive entries.

    Every entry starts as S's value u at position 0, and T overwrites
    the entries where position 0 is in a site, read off the (q0, q-1)
    plane: it starts one where u is a hat value and q0 brings the light
    mass of s - 1 - u (q1 then brings its heavy mass), and ends one
    where s - 1 - u is a hat value whose heavy mass q-1 holds (q-2 then
    brings its light mass).
    """
    s = code.state_count
    two_r = code.light_modulus
    q = np.arange(s)
    light = q % two_r
    heavy = q - light
    u = heavy[:, None] + light[None, :]  # position 0 after S, over (q0, q-1)
    v = s - 1 - u
    is_hat = (heavy < code.hat_heavy_limit) & (light < code.hat_light_limit)
    # T on the first cell of a site: the hat value of the source image.
    hats = (two_r * np.arange(code.c_size)[:, None] + np.arange(code.r_size)).ravel()  # by pair code
    image = np.zeros(s, dtype=np.intp)
    image[hats] = hats[p._images]
    table = np.tile(
        np.repeat(u.astype(np.min_scalar_type(s - 1))[:, None, :], 2 * code.c_size, axis=1),
        (two_r, 1, 1, 1),
    )
    first = is_hat[u] & (light[:, None] == light[v])
    second = is_hat[v] & (heavy[None, :] == heavy[v])
    if (first & second).any():
        raise AssertionError("transition sites overlap")
    c, b = np.nonzero(first)
    table[:, c, heavy[v[c, b]] // two_r, b] = image[u[c, b]]
    c, b = np.nonzero(second)
    table[light[v[c, b]], c, :, b] = s - 1 - image[v[c, b], None]
    return table


def _encode(code, config, k, gaps=None):
    """Block layout of a pair word: hat, check, then ``gaps[i]`` zeros
    after block i (default k - 2; a cyclic word's last gap wraps round).
    A finite word sits on the spacing-k background; after its last block
    come zeros up to the next background block at least one cell on
    (none when k = 2).  Callers check k and the gap values."""
    if isinstance(config, Finite):
        if config.quiescent != QUIESCENT_PAIR:
            raise ValueError("partitioned configurations use quiescent pair (0, 0)")
    elif not isinstance(config, Cyclic):
        raise TypeError("only finite and cyclic configurations can be block-encoded")
    word = config.word
    n = len(word)
    if gaps is None:
        gaps = [k - 2] * n
    elif isinstance(config, Finite) and len(gaps) != max(0, n - 1):
        raise ValueError(f"need {max(0, n - 1)} gaps for {n} blocks, got {len(gaps)}")
    elif isinstance(config, Cyclic) and len(gaps) != n:
        raise ValueError(f"need {n} gaps for a cyclic word of {n} blocks")
    blocks = np.array(_block_values(code, word), dtype=np.intp).reshape(n, 2)
    starts, length = _layout(n, gaps, k, isinstance(config, Cyclic))
    cells = np.zeros(length, dtype=np.intp)
    cells[starts] = blocks[:, 0]
    cells[starts + 1] = blocks[:, 1]
    if isinstance(config, Cyclic):
        return Cyclic(tuple(cells.tolist()))
    background = code.quiescent_block + (0,) * (k - 2)
    return engine.canonicalize(BiPeriodic(background, tuple(cells.tolist()), k * config.offset, background))


def _layout(n, gaps, k, cyclic):
    """Where ``_encode`` puts each of n blocks, counted from the first,
    and how many cells it lays out from there: up to the first block
    again for a cyclic word, and for a finite one up to the next
    background block at least one cell on (none when k = 2)."""
    # Block i starts after i blocks and the gaps before it.
    starts = np.zeros(n, dtype=np.intp)
    np.cumsum(np.asarray(gaps[: n - 1], dtype=np.intp) + 2, out=starts[1:])
    length = int(starts[-1]) + 2 if n else 0
    if cyclic:
        length += gaps[-1]
    elif n:
        pad = min(1, k - 2)
        length += -(length + pad) % k + pad
    return starts, length


def _block_values(code, word):
    """The (hat, check) block of every pair in ``word``: its hat value,
    read from one (|C|, |R|) table, and the complement s - 1 - hat.  A
    cell outside the table raises the error ``phi`` gives it."""
    s = code.state_count
    hats = {(c, r): phi(code, "hat", c, r) for c in range(code.c_size) for r in range(code.r_size)}
    blocks = {pair: (hat, s - 1 - hat) for pair, hat in hats.items()}
    values = []
    for pair in word:
        block = blocks.get(pair) if isinstance(pair, tuple) else None
        if block is None:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise ValueError(f"cell {pair!r} is not a (c, r) pair")
            phi(code, "hat", *pair)
            raise ValueError(f"cell {pair!r} is not a (c, r) pair of integers")
        values.append(block)
    return values


def encode_tau(code, config):
    """Interleave hat/check block images: source cell x lands on cells
    (2x, 2x+1).

    A finite source configuration becomes bi-periodic (the check image
    of the quiescent pair is nonzero, so the background is not
    quiescent); a cyclic word of length n becomes one of length 2n.
    """
    return _encode(code, config, 2)


def encode_tau_prime(code, config, k=None, gaps=None):
    """Blocks with breathing room: source cell x lands on cells
    (kx, kx+1) with k-2 quiescent cells between blocks, or with an
    explicit per-block gap list.

    Uniform spacing needs k >= 3 (k = 2 is exactly the plain block
    encoding).  A gap list gives the number of quiescent cells after
    each block: length n-1 for a finite word of n cells (on the
    spacing-3 background, blocks starting at multiples of 3), length n
    for a cyclic word (the last gap wraps around).  All gaps must be
    at least 1.
    """
    if (k is None) == (gaps is None):
        raise ValueError("give exactly one of k and gaps")
    if k is not None:
        k = _whole(k, "spacing k")
        if k < 3:
            raise ValueError("uniform spacing needs k >= 3; k = 2 is the plain block encoding")
        return _encode(code, config, k)
    return _encode(code, config, 3, _gap_list(gaps))


def _whole(value, name):
    """``value`` as an int; a ValueError names it if ``int`` would truncate it."""
    if value != value // 1:
        raise ValueError(f"{name} must be a whole number, got {value}")
    return int(value)


def _gap_list(gaps):
    """``gaps`` as integers, each leaving at least one quiescent cell."""
    gaps = [_whole(g, "gap") for g in gaps]
    if any(g < 1 for g in gaps):
        raise ValueError("every gap must leave at least one quiescent cell")
    return gaps


class TauDecodeError(ValueError):
    """Input is not a valid block encoding; carries the offending cell."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"cell {position}: {message}"
        super().__init__(message)
        self.position = position


def _decode_block(code, q_hat, q_check, position):
    """A state outside the code, or a half outside its codomain, is a
    decode error at its own cell."""
    halves = []
    for x, variant, q in ((position, "hat", q_hat), (position + 1, "check", q_check)):
        try:
            halves.append(phi_inverse(code, variant, q))
        except ValueError as exc:
            raise TauDecodeError(str(exc), x) from None
    if halves[0] != halves[1]:
        raise TauDecodeError(
            f"block halves {q_hat},{q_check} encode different cell values", position
        )
    return halves[0]


def _decode(code, config, k):
    """Invert ``_encode`` with uniform spacing k.  A bi-periodic center is
    read from the block boundary at or before it to its end."""
    if isinstance(config, Cyclic):
        cfg = config
        if len(cfg.word) % k:
            raise TauDecodeError(f"cyclic word length {len(cfg.word)} is not a multiple of {k}", 0)
        start, end = 0, len(cfg.word)
    elif isinstance(config, BiPeriodic):
        cfg = engine.canonicalize(config)
        background = code.quiescent_block + (0,) * (k - 2)
        if cfg.left != background or cfg.right != background:
            raise TauDecodeError(f"backgrounds do not match the spacing-{k} quiescent block")
        start = cfg.center_offset - cfg.center_offset % k
        end = cfg.center_offset + len(cfg.center)
    else:
        raise TauDecodeError(
            "finite configurations are never block encodings (the background is not quiescent)"
        )
    pairs = []
    for x in range(start, end, k):
        pairs.append(_decode_block(code, engine.cell_at(cfg, x), engine.cell_at(cfg, x + 1), x))
        for j in range(x + 2, x + k):
            if engine.cell_at(cfg, j) != 0:
                raise TauDecodeError(f"gap cell holds {engine.cell_at(cfg, j)}", j)
    if isinstance(cfg, Cyclic):
        return Cyclic(tuple(pairs))
    return engine.canonicalize(Finite(start // k, tuple(pairs), QUIESCENT_PAIR))


def decode(code, config):
    """Invert the plain block encoding.

    Only the even phase (blocks starting at even cells, the phase of
    every encoded configuration and of its images after full two-step
    rounds) is decodable; mid-round configurations are intentionally
    not supported.  Violations of the block structure raise
    TauDecodeError with the offending cell position.
    """
    return _decode(code, config, 2)


def decode_tau_prime(code, config, k):
    """Invert the uniformly spaced encoding: blocks at multiples of k,
    exactly k-2 quiescent cells between them."""
    k = _whole(k, "spacing k")
    if k < 3:
        raise ValueError("uniform spacing needs k >= 3")
    return _decode(code, config, k)
