"""The sampled oracles' block draws against one-at-a-time ``random`` calls.

``verify._Draws`` reads 32-bit generator outputs in blocks and rejects
with numpy; every value must equal what ``rng.randint(1, m)`` /
``rng.randrange(s)`` on the same ``random.Random(seed)`` would return, in
the same order, and the stream must run on across calls unbroken.
"""

import random

import numpy as np
import pytest

import rncca.verify as verify
from rncca.cli import main
from rncca.engine import make_rule
from rncca.rpca import example_rpca, format_rpca

# At and just past a power of two (16, 17, 32, 33, 128, 129, 256),
# randrange keeps one bit more than the bound needs, so up to half of all
# length and cell draws are rejected.
STATES = [1, 2, 3, 16, 17, 96, 128, 129, 255, 256]
SUPPORTS = [1, 2, 3, 10, 16, 17, 32, 33]
BLOCK = verify._DRAW_BLOCK


def reference_words(rng, count, max_support, s):
    words = []
    for _ in range(count):
        length = rng.randint(1, max_support)
        words.append([rng.randrange(s) for _ in range(length)])
    return words


def drawn_words(draws, count, max_support, s):
    lengths, cells = draws.words(count, max_support, s)
    assert lengths.dtype == np.int64
    assert cells.dtype == np.min_scalar_type(s - 1)
    assert cells.shape == (count, lengths.max())
    # Zero padding past each word's end.
    assert not cells[np.arange(cells.shape[1]) >= lengths[:, None]].any()
    return [row[:length].tolist() for row, length in zip(cells, lengths)]


@pytest.mark.parametrize("block", [1, 5, BLOCK])
@pytest.mark.parametrize("max_support", SUPPORTS)
@pytest.mark.parametrize("s", STATES)
def test_draws_equal_randint_and_randrange_calls(monkeypatch, s, max_support, block):
    # Blocks of one or five outputs make most words cross a block
    # boundary, and most words longer than a block; at the default size,
    # the 1500 words and the cells drawn after them span several blocks.
    # The words and cells calls alternate on one stream, as chunks of
    # conserve and inject would.
    monkeypatch.setattr(verify, "_DRAW_BLOCK", block)
    seed = 1000 * s + max_support
    draws, rng = verify._Draws(seed), random.Random(seed)
    for count in (1, 3, 1500 if block == BLOCK else 40, 2):
        assert drawn_words(draws, count, max_support, s) == reference_words(rng, count, max_support, s)
        size = 7 * count
        cells = draws.below(s, size)
        assert cells.dtype == np.min_scalar_type(s - 1)
        assert cells.tolist() == [rng.randrange(s) for _ in range(size)]


@pytest.mark.parametrize(
    "block, seed, s, max_support, count",
    [(5, 0, 96, 10, 7), (5, 2, 3, 17, 2), (BLOCK, 1, 96, 10, 914), (BLOCK, 2, 3, 17, 592)],
)
def test_draws_that_end_on_the_last_output_read_leave_none_pending(monkeypatch, block, seed, s, max_support, count):
    # The last word ends on the last output read, so the next call starts
    # on a fresh read.
    monkeypatch.setattr(verify, "_DRAW_BLOCK", block)
    draws, rng = verify._Draws(seed), random.Random(seed)
    assert drawn_words(draws, count, max_support, s) == reference_words(rng, count, max_support, s)
    assert not len(draws._pending)
    assert drawn_words(draws, 3, max_support, s) == reference_words(rng, 3, max_support, s)
    assert draws.below(s, 20).tolist() == [rng.randrange(s) for _ in range(20)]


def test_a_word_longer_than_several_reads_carries_over(monkeypatch):
    # With reads of one output, a word that does not end in a read takes
    # as many outputs again: the first word here, of over 64 cells, spans
    # reads of 1, 2, 4, ..., 64 outputs and more.
    monkeypatch.setattr(verify, "_DRAW_BLOCK", 1)
    draws, rng = verify._Draws(7), random.Random(7)
    words = drawn_words(draws, 5, 1000, 3)
    assert words == reference_words(rng, 5, 1000, 3)
    assert len(words[0]) > 64
    assert draws.below(3, 50).tolist() == [rng.randrange(3) for _ in range(50)]
    assert drawn_words(draws, 2, 1000, 3) == reference_words(rng, 2, 1000, 3)


@pytest.mark.parametrize("bound", [1, 5, 2**31, 2**32 - 1])
def test_draws_cover_the_whole_32_bit_range(bound):
    # Up to a bound that keeps all 32 bits of an output.
    draws, rng = verify._Draws(bound), random.Random(bound)
    assert draws.below(bound, 5000).tolist() == [rng.randrange(bound) for _ in range(5000)]
    assert drawn_words(draws, 300, bound % 40 + 1, bound) == reference_words(rng, 300, bound % 40 + 1, bound)


@pytest.mark.parametrize("row_cells", [1, 7, 64])
def test_sampled_oracles_draw_across_chunks(monkeypatch, row_cells):
    # Each chunk of words is one call on the oracle's one stream.  With
    # chunks of a few cells and blocks of three outputs, draws straddle
    # both; a shift passes, so every word is drawn.
    monkeypatch.setattr(verify, "_ROW_CELLS", row_cells)
    monkeypatch.setattr(verify, "_DRAW_BLOCK", 3)
    streams = []

    class Recording(verify._Draws):
        def __init__(self, seed):
            super().__init__(seed)
            self.calls, self.drawn = 0, []
            streams.append(self)

        def words(self, count, max_length, s):
            lengths, cells = super().words(count, max_length, s)
            self.calls += 1
            self.drawn += [row[:length].tolist() for row, length in zip(cells, lengths)]
            return lengths, cells

        def below(self, n, size):
            cells = super().below(n, size)
            self.calls += 1
            self.drawn += cells.tolist()
            return cells

    monkeypatch.setattr(verify, "_Draws", Recording)
    shift = make_rule(17, (-1, 0), lambda a, b: a, 0)
    for seed in range(3):
        assert verify.check_number_conserving(shift, mode="sampled", max_support=4, count=50, seed=seed).passed
        assert verify.check_injective_cyclic(shift, 3, mode="sampled", count=50, seed=seed).passed
        conserve, inject = streams[-2:]
        assert conserve.drawn == reference_words(random.Random(seed), 50, 4, 17)
        rng = random.Random(seed)
        assert inject.drawn == [rng.randrange(17) for _ in range(150)]
        assert conserve.calls == -(-50 // max(1, row_cells // 4))
        assert inject.calls == -(-50 // max(1, row_cells // 3))


def test_conserve_refuses_support_past_one_output(tmp_path, capsys):
    # A length draw of randint(1, 2**32) would take two outputs.
    rule = make_rule(2, (0, 1), lambda a, b: a, 0)
    with pytest.raises(ValueError, match="below 2\\*\\*32, got 4294967296"):
        verify.check_number_conserving(rule, mode="sampled", max_support=2**32, count=1, seed=0)
    path = tmp_path / "xor.rpca"
    path.write_text(format_rpca(example_rpca("xor")))
    argv = ["verify", str(path), "conserve", "--sampled", "3", "--support", str(2**32)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: sampled mode needs support and state counts below 2**32, got 4294967296\n"
    )
