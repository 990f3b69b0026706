"""Property tests over randomized configurations and code sizes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from rncca.convert import (
    ParticleCode,
    compose,
    convert,
    decode,
    decompose,
    encode_tau,
    is_balanced_heavy,
    is_balanced_light,
)
from rncca.engine import (
    BiPeriodic,
    Cyclic,
    Finite,
    canonicalize,
    cell_at,
    step,
)
from rncca.rpca import QUIESCENT_PAIR, example_rpca, invert_rpca, step_rpca

XOR = example_rpca("xor")
XOR_RULE = convert(XOR)
CODE22 = XOR_RULE.code

codes = st.builds(
    ParticleCode, c_size=st.integers(1, 5), r_size=st.integers(1, 5)
)


@given(codes, st.data())
def test_decompose_compose_round_trip(code, data):
    q = data.draw(st.integers(0, code.state_count - 1))
    heavy, light = decompose(code, q)
    assert heavy in code.hat_heavies + code.check_heavies
    assert light in code.hat_lights + code.check_lights
    assert compose(code, heavy, light) == q


@given(codes, st.data())
def test_guards_are_mutually_exclusive(code, data):
    # convert proves this once, over the whole reduced table, when it
    # builds the rule; here the predicates themselves are checked across
    # random sizes.
    s = code.state_count
    window = data.draw(st.tuples(*(st.integers(0, s - 1) for _ in range(4))))
    a, b, c, d = window
    case1 = is_balanced_light(code, b, c) and is_balanced_heavy(code, c, d)
    case2 = is_balanced_light(code, a, b) and is_balanced_heavy(code, b, c)
    assert not (case1 and case2)


@given(codes, st.data())
def test_balanced_pairs_never_chain(code, data):
    s = code.state_count
    cells = data.draw(st.lists(st.integers(0, s - 1), min_size=4, max_size=4))
    if is_balanced_heavy(code, cells[1], cells[2]):
        assert not is_balanced_heavy(code, cells[0], cells[1])
        assert not is_balanced_heavy(code, cells[2], cells[3])
    if is_balanced_light(code, cells[1], cells[2]):
        assert not is_balanced_light(code, cells[0], cells[1])
        assert not is_balanced_light(code, cells[2], cells[3])


finite_words = st.lists(st.integers(0, 15), min_size=1, max_size=7)


@given(finite_words, st.integers(-8, 8))
def test_canonicalize_is_idempotent_and_preserves_cells(word, offset):
    cfg = Finite(offset, word, 0)
    canon = canonicalize(cfg)
    assert canonicalize(canon) == canon
    for x in range(offset - 2, offset + len(word) + 2):
        assert cell_at(canon, x) == cell_at(cfg, x)


@given(finite_words, st.integers(-6, 6))
def test_step_commutes_with_translation(word, shift):
    base = step(XOR_RULE, Finite(0, word, 0))
    moved = step(XOR_RULE, Finite(shift, word, 0))
    assert moved == canonicalize(Finite(base.offset + shift, base.word, base.quiescent))


@given(
    st.lists(st.integers(0, 15), min_size=0, max_size=5),
    st.integers(-4, 4),
)
def test_biperiodic_step_matches_pointwise_evaluation(center, offset):
    cfg = BiPeriodic((0, 15), center, offset, (0, 15))
    out = step(XOR_RULE, cfg)
    lo, hi = offset - 12, offset + len(center) + 12
    for x in range(lo, hi):
        expect = XOR_RULE.local(*(cell_at(cfg, x + n) for n in XOR_RULE.neighborhood))
        assert cell_at(out, x) == expect


pair_cells = st.tuples(st.integers(0, 1), st.integers(0, 1))


@given(st.lists(pair_cells, min_size=0, max_size=6))
def test_forward_backward_round_trip(word):
    back = invert_rpca(XOR)
    cfg = canonicalize(Finite(0, word, QUIESCENT_PAIR))
    assert back.step_back(step_rpca(XOR, cfg)) == cfg


@given(st.lists(pair_cells, min_size=0, max_size=5))
def test_encode_decode_round_trip(word):
    cfg = canonicalize(Finite(0, word, QUIESCENT_PAIR))
    assert decode(CODE22, encode_tau(CODE22, cfg)) == cfg


@settings(max_examples=40)
@given(st.lists(pair_cells, min_size=1, max_size=4), st.integers(1, 3))
def test_two_step_tracking(word, steps):
    source = canonicalize(Finite(0, word, QUIESCENT_PAIR))
    derived = encode_tau(CODE22, source)
    for _ in range(steps):
        source = step_rpca(XOR, source)
        derived = step(XOR_RULE, step(XOR_RULE, derived))
    assert derived == encode_tau(CODE22, source)


@settings(max_examples=30)
@given(st.lists(st.integers(0, 15), min_size=2, max_size=10))
def test_cyclic_step_sum_is_conserved(word):
    before = Cyclic(word)
    after = step(XOR_RULE, before)
    assert sum(before.word) == sum(after.word)


@settings(max_examples=30)
@given(st.lists(pair_cells, min_size=2, max_size=5).map(tuple))
def test_cyclic_encoding_tracks_two_steps(word):
    source = Cyclic(word)
    derived = encode_tau(CODE22, source)
    stepped = step(XOR_RULE, step(XOR_RULE, derived))
    assert stepped == encode_tau(CODE22, step_rpca(XOR, source))
