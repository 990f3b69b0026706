"""The one block codec against the per-case encoders and decoders it replaced.

The ``reference_*`` codec functions in ``reference_oracles`` are the
earlier implementations of ``encode_tau``, ``encode_tau_prime``,
``decode``, ``decode_tau_prime`` and ``_decode_block``, kept verbatim
apart from their names.  Each wrote the spacing-k block layout (or read it back) on its own, once per shape.
The codec must give the same configuration, or raise the same exception
type at the same cell, with the same message apart from the documented
k = 2 rewording, the documented refusal of cells that are not pairs, and
the documented decode error for a state outside the code.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rncca import cli, engine
from rncca.convert import (
    ParticleCode,
    TauDecodeError,
    decode,
    decode_tau_prime,
    encode_tau,
    encode_tau_prime,
)
from rncca.engine import BiPeriodic, Cyclic, Finite
from rncca.rpca import QUIESCENT_PAIR, example_rpca, format_rpca
from reference_oracles import (
    reference_decode,
    reference_decode_tau_prime,
    reference_encode_tau,
    reference_encode_tau_prime,
)

CODES = (ParticleCode(2, 2), ParticleCode(2, 3), ParticleCode(3, 4))


def outcome(fn, *args, **kwargs):
    """The result, or the exception's type, message and cell."""
    try:
        return "ok", fn(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def reworded(expected, k):
    """The parent's k = 2 decode messages in the spacing-k wording."""
    if k != 2 or expected[0] == "ok":
        return expected
    kind, message, position = expected
    if message.endswith(" is odd"):
        message = message.replace(" is odd", " is not a multiple of 2")
    elif message.startswith(("left background", "right background")):
        message = "backgrounds do not match the spacing-2 quiescent block"
    return kind, message, position


def encoders(k, gaps=None):
    """(new, reference) encoder pair for uniform spacing k or a gap list."""
    if gaps is not None:
        return (
            lambda code, cfg: encode_tau_prime(code, cfg, gaps=gaps),
            lambda code, cfg: reference_encode_tau_prime(code, cfg, gaps=gaps),
        )
    if k == 2:
        return encode_tau, reference_encode_tau
    return (
        lambda code, cfg: encode_tau_prime(code, cfg, k=k),
        lambda code, cfg: reference_encode_tau_prime(code, cfg, k=k),
    )


def decoders(k):
    if k == 2:
        return decode, reference_decode
    return (
        lambda code, cfg: decode_tau_prime(code, cfg, k),
        lambda code, cfg: reference_decode_tau_prime(code, cfg, k),
    )


def pair_words(code, max_length):
    pairs = [(c, r) for c in range(code.c_size) for r in range(code.r_size)]
    for n in range(max_length + 1):
        yield from itertools.product(pairs, repeat=n)


@pytest.mark.parametrize("code", CODES[:2], ids=["2x2", "2x3"])
def test_exhaustive_finite_and_cyclic_encodings_match(code):
    for word in pair_words(code, 3):
        n = len(word)
        layouts = [encoders(k) for k in (2, 3, 4, 5)]
        layouts += [encoders(None, list(g)) for g in itertools.product((1, 2, 3), repeat=max(0, n - 1))]
        for offset in (-2, 0, 3):
            for new, ref in layouts:
                cfg = Finite(offset, word, QUIESCENT_PAIR)
                assert outcome(new, code, cfg) == outcome(ref, code, cfg)
        if word:
            cyclic = [encoders(k) for k in (2, 3, 4, 5)]
            cyclic += [encoders(None, list(g)) for g in itertools.product((1, 2, 3), repeat=n)]
            for new, ref in cyclic:
                assert outcome(new, code, Cyclic(word)) == outcome(ref, code, Cyclic(word))


def test_random_3x4_encodings_match():
    code = CODES[2]
    rng = random.Random(5)
    pairs = [(c, r) for c in range(code.c_size) for r in range(code.r_size)]
    for _ in range(3000):
        n = rng.randint(0, 6)
        word = tuple(rng.choice(pairs) for _ in range(n))
        offset = rng.randint(-4, 4)
        k = rng.randint(2, 6)
        for new, ref in (encoders(k), encoders(None, [rng.randint(1, 4) for _ in range(max(0, n - 1))])):
            cfg = Finite(offset, word, QUIESCENT_PAIR)
            assert outcome(new, code, cfg) == outcome(ref, code, cfg)
        if word:
            for new, ref in (encoders(k), encoders(None, [rng.randint(1, 4) for _ in range(n)])):
                assert outcome(new, code, Cyclic(word)) == outcome(ref, code, Cyclic(word))


def test_invalid_encoder_inputs_fail_alike():
    code = CODES[0]
    bad_inputs = [
        Finite(0, [(2, 0)], QUIESCENT_PAIR),  # center part out of range
        Finite(1, [(0, 0), (1, -1)], QUIESCENT_PAIR),  # right part out of range
        Cyclic([(1, 1), (0, 5)]),
        Finite(0, [(1, 1)], (1, 0)),  # wrong quiescent pair
        Finite(0, [(1, 1)], 0),
        BiPeriodic([(0, 0)], [(1, 1)], 0, [(0, 0)]),
    ]
    layouts = [encoders(k) for k in (2, 3, 4)] + [
        encoders(None, g) for g in ([], [1], [2, 2], [0], [1, 0, 1])
    ]
    for cfg in bad_inputs:
        for new, ref in layouts:
            assert outcome(new, code, cfg) == outcome(ref, code, cfg)
    for k, gaps in ((None, None), (3, [1]), (2, None), (0, None), (-1, None)):
        cfg = Finite(0, [(1, 1), (0, 1)], QUIESCENT_PAIR)
        assert outcome(encode_tau_prime, code, cfg, k=k, gaps=gaps) == outcome(
            reference_encode_tau_prime, code, cfg, k=k, gaps=gaps
        )


@pytest.mark.parametrize(
    "cfg",
    [Finite(0, [1, 2], QUIESCENT_PAIR), Cyclic([1, 2]), Finite(0, [(1, 1), (1, 0, 1)], QUIESCENT_PAIR)],
)
def test_cells_that_are_not_pairs_raise_value_error(cfg):
    code = CODES[0]
    for encode in (encode_tau, lambda c, x: encode_tau_prime(c, x, k=3)):
        with pytest.raises(ValueError, match="is not a \\(c, r\\) pair"):
            encode(code, cfg)


def corrupt(rng, code, cfg, k):
    """One random edit of an encoding: a cell, the center offset, a
    background, the cyclic length, or none."""
    s = code.state_count
    edit = rng.randrange(6)

    def state():
        return rng.randrange(s + 2) if rng.random() < 0.1 else rng.randrange(s)

    if isinstance(cfg, Cyclic):
        word = list(cfg.word)
        if edit == 0:
            word.append(state())
        elif edit in (1, 2, 3):
            word[rng.randrange(len(word))] = state()
        elif edit == 4 and len(word) > 1:
            word.pop()
        return Cyclic(word)
    left, center, right = list(cfg.left), list(cfg.center), list(cfg.right)
    offset = cfg.center_offset
    if edit in (0, 1) and center:
        center[rng.randrange(len(center))] = state()
    elif edit == 1:
        center = [state() for _ in range(rng.randint(1, 3))]
    elif edit == 2:
        offset += rng.randint(-3, 3)
    elif edit == 3:
        (left if rng.random() < 0.5 else right)[rng.randrange(len(left))] = state()
    elif edit == 4:
        center = [state() for _ in range(rng.randint(0, 3))] + center + [state()]
        offset -= rng.randint(0, 3)
    return BiPeriodic(left, center, offset, right)


def first_out_of_range(code, cfg, k):
    """The first cell, in decode order, holding a state outside the code."""
    if isinstance(cfg, Cyclic):
        cells = enumerate(cfg.word)
    else:
        cfg = engine.canonicalize(cfg)
        start = cfg.center_offset - cfg.center_offset % k
        cells = ((x, engine.cell_at(cfg, x)) for x in itertools.count(start))
    return next(x for x, q in cells if not 0 <= q < code.state_count)


@pytest.mark.parametrize("code", CODES, ids=["2x2", "2x3", "3x4"])
def test_random_valid_and_corrupted_decodes_match(code):
    rng = random.Random(7 + code.c_size * 10 + code.r_size)
    pairs = [(c, r) for c in range(code.c_size) for r in range(code.r_size)]
    seen = set()
    for _ in range(2500):
        k = rng.randint(2, 5)
        word = [rng.choice(pairs) for _ in range(rng.randint(1 if rng.random() < 0.4 else 0, 5))]
        source = Cyclic(word) if word and rng.random() < 0.4 else Finite(rng.randint(-3, 3), word, QUIESCENT_PAIR)
        encoded = reference_encode_tau(code, source) if k == 2 else reference_encode_tau_prime(code, source, k=k)
        cfg = corrupt(rng, code, encoded, k)
        new, ref = decoders(k)
        got = outcome(new, code, cfg)
        expected = reworded(outcome(ref, code, cfg), k)
        if expected[0] is ValueError:
            # The parent let a state outside the code escape as the plain
            # ValueError of ``decompose``; it is now a decode error at its cell.
            x = first_out_of_range(code, cfg, k)
            expected = (TauDecodeError, f"cell {x}: {expected[1]}", x)
            seen.add("out of range")
        assert got == expected, (k, cfg)
        seen.add(got[0] if got[0] == "ok" else (got[0], got[2] is None))
    # The domain reaches valid encodings, decode errors with and without a
    # cell, and states outside the code.
    assert {"ok", (TauDecodeError, False), (TauDecodeError, True), "out of range"} <= seen
    assert outcome(decode, code, Finite(0, [5], 0)) == reworded(
        outcome(reference_decode, code, Finite(0, [5], 0)), 2
    )


def test_state_outside_the_code_is_a_decode_error_at_its_cell():
    code = CODES[0]
    cases = [
        (decode, Cyclic([0, 15, 16, 15]), 2, "state 16 out of range for 16 states"),
        (decode, Cyclic([0, -1]), 1, "state -1 out of range for 16 states"),
        (decode, BiPeriodic([0, 15], [5, 99], 0, [0, 15]), 1, "state 99 out of range for 16 states"),
        (lambda c, cfg: decode_tau_prime(c, cfg, 3), Cyclic([20, 15, 0]), 0, "state 20 out of range for 16 states"),
    ]
    for fn, cfg, position, message in cases:
        with pytest.raises(TauDecodeError) as err:
            fn(code, cfg)
        assert err.value.position == position
        assert str(err.value) == f"cell {position}: {message}"


def test_k2_decode_messages_use_the_spacing_k_wording():
    code = CODES[0]
    with pytest.raises(TauDecodeError, match="cyclic word length 3 is not a multiple of 2") as err:
        decode(code, Cyclic([0, 15, 0]))
    assert err.value.position == 0
    for cfg in (BiPeriodic([0, 14], [], 0, [0, 15]), BiPeriodic([0, 15], [], 0, [15, 0])):
        with pytest.raises(TauDecodeError, match="backgrounds do not match the spacing-2 quiescent block"):
            decode(code, cfg)


cells = st.one_of(
    st.tuples(st.integers(-1, 4), st.integers(-1, 5)).map(lambda pair: f"({pair[0]},{pair[1]})"),
    st.integers(-1, 20).map(str),
)
cell_lists = st.lists(cells, max_size=4).map(",".join)
records = st.one_of(
    st.builds(
        lambda q, offset, word: f"finite q#={q} @{offset}:" + (f" {word}" if word else ""),
        st.sampled_from(["(0,0)", "(1,0)", "0"]),
        st.integers(-3, 3),
        cell_lists,
    ),
    st.lists(cells, min_size=1, max_size=4).map(lambda cs: "cyclic: " + ",".join(cs)),
    st.builds(
        lambda left, center, offset, right: f"biperiodic left={left} center@{offset}={center} right={right}",
        st.lists(cells, min_size=1, max_size=3).map(",".join),
        cell_lists,
        st.integers(-3, 3),
        st.lists(cells, min_size=1, max_size=3).map(",".join),
    ),
)
flags = st.one_of(
    st.just(["--tau"]),
    st.integers(-1, 6).map(lambda k: ["--tau-prime", str(k)]),
    st.lists(st.integers(0, 3), max_size=5).map(lambda gaps: ["--gaps", ",".join(map(str, gaps))]),
)
RULES = {
    "2x2": example_rpca("random", 2, 2, seed=3),
    "3x4": example_rpca("random", 3, 4, seed=4),
}


@pytest.fixture(scope="module")
def embed_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("embed")
    for name, rule in RULES.items():
        (directory / f"{name}.rpca").write_text(format_rpca(rule))
    return directory


@settings(max_examples=300, deadline=None)
@given(rule=st.sampled_from(sorted(RULES)), record=records, flag=flags)
def test_embed_exits_0_or_2_on_any_record(embed_dir, rule, record, flag):
    rule_path = embed_dir / f"{rule}.rpca"
    config_path = embed_dir / "config.cfg"
    config_path.write_text(record + "\n")
    out_path = embed_dir / "out.cfg"
    status = cli.main(["embed", str(rule_path), str(config_path), *flag, "-o", str(out_path)])
    assert status in (0, 2)
    if status == 0:
        assert out_path.read_text().startswith(("biperiodic", "cyclic"))


def test_embed_refuses_biperiodic_and_integer_cells(tmp_path, capsys):
    rule_path = tmp_path / "xor.rpca"
    rule_path.write_text(format_rpca(example_rpca("xor")))
    for record, flag in (
        ("biperiodic left=(0,0) center@0=(1,1) right=(0,0)", ["--tau"]),
        ("biperiodic left=(0,0) center@0= right=(0,0)", ["--tau-prime", "3"]),
        ("biperiodic left=(0,0) center@0=(1,1) right=(0,0)", ["--gaps", "1"]),
        ("cyclic: 1,2", ["--tau"]),
        ("finite q#=(0,0) @0: 1,2", ["--gaps", "1"]),
    ):
        config_path = tmp_path / "c.cfg"
        config_path.write_text(record + "\n")
        assert cli.main(["embed", str(rule_path), str(config_path), *flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
