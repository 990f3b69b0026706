import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rncca import verify
from rncca.cli import RenderSpec, main, render
from rncca.convert import ParticleCode, convert, encode_tau
from rncca.engine import Finite, run
from rncca.rpca import example_rpca, format_rpca, invert_rpca, make_rpca, parse_rpca

XOR_TEXT = format_rpca(example_rpca("xor"))
CONSTANT_TEXT = format_rpca(
    make_rpca(2, 2, {(c, r): (0, 0) for c in range(2) for r in range(2)})
)


@pytest.fixture
def xor_rule(tmp_path):
    path = tmp_path / "xor.rpca"
    path.write_text(XOR_TEXT)
    return str(path)


@pytest.fixture
def tau_config(tmp_path):
    path = tmp_path / "tau.cfg"
    path.write_text("biperiodic left=0,15 center@0=5,10 right=0,15\n")
    return str(path)


def test_validate_reversible(xor_rule, capsys):
    assert main(["validate", xor_rule]) == 0
    assert capsys.readouterr().out == "reversible: yes, states: 4 (C=2, R=2)\n"


def test_validate_non_injective_exits_1(tmp_path, capsys):
    path = tmp_path / "const.rpca"
    path.write_text(CONSTANT_TEXT)
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "reversible: no" in out
    assert "both map to" in out


def test_validate_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.rpca"
    path.write_text("rpca C=2 R=2\n1 2 ->\n")
    assert main(["validate", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_convert_metadata(xor_rule, capsys):
    assert main(["convert", xor_rule]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("ncca C=2 R=2 states=16 neighborhood=-2,-1,0,1 phi=canonical source=")


def test_convert_sizes(tmp_path, capsys):
    ident = tmp_path / "ident.rpca"
    ident.write_text(format_rpca(example_rpca("identity", c_size=3, r_size=2)))
    assert main(["convert", str(ident)]) == 0
    assert "states=24" in capsys.readouterr().out

    big = tmp_path / "big.rpca"
    big.write_text(format_rpca(example_rpca("random", c_size=4, r_size=6, seed=1)))
    assert main(["convert", str(big)]) == 0
    assert "states=96" in capsys.readouterr().out


def test_convert_non_reversible_exits_2(tmp_path, capsys):
    path = tmp_path / "const.rpca"
    path.write_text(CONSTANT_TEXT)
    assert main(["convert", str(path)]) == 2
    assert "not reversible" in capsys.readouterr().err


def test_convert_dump_balanced_pairs(xor_rule, tmp_path):
    out = tmp_path / "xor.ncca"
    assert main(["convert", xor_rule, "--dump-balanced-pairs", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    code = ParticleCode(2, 2)
    bc = [tuple(map(int, l.split()[1:])) for l in lines if l.startswith("bc ")]
    br = [tuple(map(int, l.split()[1:])) for l in lines if l.startswith("br ")]
    # every hat/check product appears: |C|^2 * lights^2 heavy pairs, etc.
    assert len(bc) == 2 * 4 * 4 and len(br) == 2 * 4 * 4
    assert all(q1 % 4 + q2 % 4 == 3 for q1, q2 in br)
    assert all((q1 - q1 % 4) + (q2 - q2 % 4) == code.heavy_pair_sum for q1, q2 in bc)


def test_convert_dump_table_round_trips(xor_rule, tmp_path, capsys):
    out = tmp_path / "xor.ncca"
    assert main(["convert", xor_rule, "--dump-table", "-o", str(out)]) == 0
    # the dumped table is a runnable rule that passes the injectivity oracle
    assert main(["verify", str(out), "inject", "--cycle", "3"]) == 0
    line = capsys.readouterr().out
    assert "passed=true" in line


def test_convert_dump_table_bytes_are_pinned(xor_rule, tmp_path):
    # Every neighborhood in order, d fastest: a reordered dump would still
    # round-trip through verify, so the bytes are pinned.
    out = tmp_path / "xor.ncca"
    assert main(["convert", xor_rule, "--dump-table", "-o", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "b83b500acc1b115dc5c57a6ea8122d5979bdc2148a7d15de80dddf2226a6da7a"


@pytest.mark.parametrize(
    "c_size, r_size, digest",
    [
        (1, 3, "8b3a6f4a1676ab9a3c78386b6b698f221ebf9ef53d4b60babdbcefb62ad528b0"),
        (3, 1, "d97b80628075a17d6bf4e793615d728229f933d6f5c2d6cca9e5bb83c6cb529b"),
    ],
)
def test_convert_dump_table_bytes_are_pinned_on_unequal_axes(tmp_path, c_size, r_size, digest):
    # 2|C| != 2|R|, so a stride mixed up between the heavy(q1) and
    # light(q-2) axes of the reduced table, which xor's equal axes hide,
    # changes the 20,736 transition lines of these 12-state rules.
    rule = tmp_path / "random.rpca"
    rule.write_text(format_rpca(example_rpca("random", c_size, r_size, seed=1)))
    out = tmp_path / "random.ncca"
    assert main(["convert", str(rule), "--dump-table", "-o", str(out)]) == 0
    assert out.read_text().count("\nt ") == 12**4
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_run_golden_window_rows(xor_rule, tau_config, capsys):
    assert main([
        "run", xor_rule, tau_config, "--steps", "2", "--window", "-2", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert out == (
        " 0 15  5 10  0 15\n"
        " 3 12  7  9  2 12\n"
        " 0 15  4 11  5 10\n"
    )


def test_run_quiescent_rows_constant(xor_rule, tmp_path, capsys):
    cfg = tmp_path / "quiet.cfg"
    cfg.write_text("finite q#=0 @0:\n")
    assert main(["run", xor_rule, str(cfg), "--steps", "3", "--window", "0", "4"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(set(rows)) == 1


def test_run_pgm_header(xor_rule, tau_config, capsys):
    assert main([
        "run", xor_rule, tau_config, "--steps", "20",
        "--window", "-10", "29", "--format", "pgm",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "40 21"
    assert lines[2] == "255"
    assert len(lines) == 3 + 21
    assert all(0 <= int(v) <= 255 for v in lines[3].split())


def test_run_csv_triples(xor_rule, tau_config, capsys):
    assert main([
        "run", xor_rule, tau_config, "--steps", "1",
        "--window", "0", "1", "--format", "csv",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,x,state"
    assert lines[1:] == ["0,0,5", "0,1,10", "1,0,7", "1,1,9"]


def test_run_bad_window_exits_2(xor_rule, tau_config, capsys):
    assert main([
        "run", xor_rule, tau_config, "--steps", "1", "--window", "3", "-2",
    ]) == 2


@pytest.mark.parametrize(
    "start, error",
    [
        ("finite q#=0 @0: 1,53,-3,2", "state 53 out of range for 16 states"),
        ("cyclic: 3,-1", "state -1 out of range for 16 states"),
        ("biperiodic left=0,15 center@0=16 right=0,15", "state 16 out of range for 16 states"),
        ("cyclic: (1,0),(0,1)", "state (1, 0) out of range for 16 states"),
        ("finite q#=3 @0: 1", "configuration background does not match the rule's quiescent state"),
    ],
)
@pytest.mark.parametrize("steps", ["0", "1", "3"])
def test_run_refuses_start_outside_states_at_every_step_count(xor_rule, tmp_path, capsys, start, error, steps):
    # --steps 0 once rendered such a start cell by cell and exited 0.
    cfg = tmp_path / "start.cfg"
    cfg.write_text(start + "\n")
    assert main(["run", xor_rule, str(cfg), "--steps", steps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


def test_run_rejects_table_free_ncca(tmp_path, xor_rule, capsys):
    meta = tmp_path / "meta.ncca"
    assert main(["convert", xor_rule, "-o", str(meta)]) == 0
    cfg = tmp_path / "c.cfg"
    cfg.write_text("finite q#=0 @0: 1\n")
    assert main(["run", str(meta), str(cfg), "--steps", "1"]) == 2
    assert "dump-table" in capsys.readouterr().err


NOT_REVERSIBLE = "rule is not reversible; inputs (0, 0) and (0, 1) both map to (0, 0)"
BAD_GAPS = "bad gap list '1,x'; expected comma-separated integers"
OVER_BUDGET = "exhaustive sweep would step 144 words, over the budget of 143; use sampled mode or raise the budget"


@pytest.mark.parametrize(
    "args, status, error",
    [
        (["run", "{constant}", "{golden}/finite.cfg", "--steps", "2"], 2, NOT_REVERSIBLE),
        (
            ["run", "{headless}", "{golden}/finite.cfg", "--steps", "2"],
            2,
            "rule file must start with an 'rpca' or 'ncca' header",
        ),
        (
            ["convert", "{golden}/rule.rpca", "--dump-table"],
            2,
            "refusing to dump 5308416 transitions; the rule stays computed",
        ),
        (["verify", "{constant}", "simulate"], 2, NOT_REVERSIBLE),
        (["verify", "{constant}", "tauprime"], 2, NOT_REVERSIBLE),
        (["verify", "{constant}", "conserve"], 2, NOT_REVERSIBLE),
        (["verify", "{constant}", "inject"], 2, NOT_REVERSIBLE),
        (["embed", "{golden}/rule.rpca", "{golden}/source.cfg", "--gaps", "1,x"], 2, BAD_GAPS),
        (["verify", "{golden}/rule.rpca", "tauprime", "--gaps", "1,x"], 2, BAD_GAPS),
        # Windows too wide to hold or to index fail before anything is allocated.
        (["run", "{golden}/rule.rpca", "{golden}/finite.cfg", "--steps", str(10**18)], 2, "out of memory"),
        (
            ["run", "{golden}/rule.rpca", "{golden}/finite.cfg", "--steps", str(10**19)],
            2,
            "cannot fit 'int' into an index-sized integer",
        ),
        # A budget below 1 is refused in every mode, and a spacing below 2.
        (["verify", "{golden}/rule.rpca", "conserve", "--budget", "0"], 2, "budget must be at least 1, got 0"),
        (
            ["verify", "{golden}/rule.rpca", "inject", "--budget", "-1", "--sampled", "5"],
            2,
            "budget must be at least 1, got -1",
        ),
        (["verify", "{golden}/rule.rpca", "tauprime", "--spacing", "1"], 2, "uniform spacing needs k >= 2, got 1"),
        (
            ["verify", "{golden}/rule.rpca", "simulate", "--budget", "0", "--sampled", "5"],
            2,
            "budget must be at least 1, got 0",
        ),
        # The simulation sweeps keep the budget too: the 3x4 rule has 12**2 starts of support 2.
        (["verify", "{golden}/rule.rpca", "simulate", "--support", "2", "--budget", "143"], 2, OVER_BUDGET),
        (
            ["verify", "{golden}/rule.rpca", "tauprime", "--spacing", "3", "--support", "2", "--budget", "143"],
            2,
            OVER_BUDGET,
        ),
        (["verify", "{golden}/rule.rpca", "tauprime", "--gaps", "1", "--budget", "143"], 2, OVER_BUDGET),
    ],
)
def test_refusals_exit_with_one_error_line(tmp_path, capsys, args, status, error):
    constant = tmp_path / "constant.rpca"
    constant.write_text(CONSTANT_TEXT)
    headless = tmp_path / "headless.txt"
    headless.write_text("# no header\n0 0 -> 0 0\n")
    paths = dict(constant=constant, headless=headless, golden=GOLDEN)
    assert main([arg.format(**paths) for arg in args]) == status
    assert capsys.readouterr() == ("", f"error: {error}\n")


MALFORMED_NCCA = "ncca states=16\nx 1\n"
UNKNOWN_KIND = "line 2: unknown line kind 'x'"
# 440 states: a reduced table of 2|R| * 440 * 440 * 2|C| entries.
IDENTITY_10X11 = format_rpca(example_rpca("identity", c_size=10, r_size=11))
OVER_LIMIT = "a 10x11 source needs a 85184000-entry rule table, over the limit of 67108864"
MOVES_QUIESCENT = "rpca C=2 R=2\n0 0 -> 0 1\n0 1 -> 0 0\n1 0 -> 1 0\n1 1 -> 1 1\n"


@pytest.mark.parametrize(
    "text, args, error",
    [
        (MALFORMED_NCCA, ["verify", "{rule}", "conserve"], UNKNOWN_KIND),
        (MALFORMED_NCCA, ["run", "{rule}", "{golden}/finite.cfg", "--steps", "1"], UNKNOWN_KIND),
        (
            "ncca states=2\nt 0 0 0 x -> 0\n",
            ["verify", "{rule}", "conserve"],
            "line 2: transition fields must be integers",
        ),
        (IDENTITY_10X11, ["verify", "{rule}", "simulate"], OVER_LIMIT),
        (IDENTITY_10X11, ["run", "{rule}", "{golden}/finite.cfg", "--steps", "1"], OVER_LIMIT),
        (
            MOVES_QUIESCENT,
            ["validate", "{rule}"],
            "line 1: quiescent pair (0, 0) must be a fixed point, maps to (0, 1)",
        ),
    ],
    ids=["ncca-verify", "ncca-run", "ncca-fields", "over-limit-verify", "over-limit-run", "moves-quiescent"],
)
def test_rule_file_refusals_exit_with_one_error_line(tmp_path, capsys, text, args, error):
    rule = tmp_path / "rule.txt"
    rule.write_text(text)
    assert main([arg.format(rule=rule, golden=GOLDEN) for arg in args]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize(
    "args",
    [
        ["run", "{constant}", "{golden}/finite.cfg", "--steps", "2"],
        ["convert", "{constant}"],
        ["convert", "{constant}", "--dump-table"],
        *(["verify", "{constant}", prop] for prop in ("conserve", "inject", "simulate", "tauprime")),
    ],
)
def test_non_reversible_rule_is_refused_alike(capsys, args):
    # Every command but validate refuses a non-reversible rule before
    # any output, with the message the library raises.
    assert main([arg.format(constant=GOLDEN / "constant.rpca", golden=GOLDEN) for arg in args]) == 2
    assert capsys.readouterr() == ("", f"error: {NOT_REVERSIBLE}\n")
    p = parse_rpca(CONSTANT_TEXT)
    assert (GOLDEN / "constant.rpca").read_text() == CONSTANT_TEXT
    for refuse in (convert, invert_rpca):
        with pytest.raises(ValueError) as exc:
            refuse(p)
        assert str(exc.value) == NOT_REVERSIBLE


def test_verify_simulate_passes(xor_rule, capsys):
    assert main([
        "verify", xor_rule, "simulate", "--support", "3", "--steps", "4",
    ]) == 0
    assert "passed=true" in capsys.readouterr().out


def test_verify_conserve_exhaustive(xor_rule, capsys):
    assert main([
        "verify", xor_rule, "conserve", "--exhaustive", "--support", "3",
    ]) == 0
    assert "property=conserve" in capsys.readouterr().out


def test_verify_broken_rule_exits_1(tmp_path, capsys):
    # hand-built non-injective 2-state table dump
    lines = ["ncca C=1 R=1 states=2 neighborhood=-2,-1,0,1 phi=canonical source=fixture"]
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    lines.append(f"t {a} {b} {c} {d} -> 0")
    path = tmp_path / "broken.ncca"
    path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(path), "inject", "--cycle", "3"]) == 1
    out = capsys.readouterr().out
    assert "passed=false" in out and "counterexample=" in out


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "golden, args",
    [
        ("verify-inject.txt", ["lossy.ncca", "inject", "--cycle", "3"]),
        ("verify-inject-sampled.txt", ["lossy.ncca", "inject", "--cycle", "3", "--sampled", "200", "--seed", "1"]),
        ("verify-conserve.txt", ["leaky.ncca", "conserve", "--support", "2"]),
        ("verify-conserve-sampled.txt", ["leaky.ncca", "conserve", "--support", "2", "--sampled", "200", "--seed", "1"]),
        # The first failing word is cyclic: the changed neighborhood has four
        # nonzero cells, which no finite word of length 3 has.
        ("verify-conserve-cyclic.txt", ["ring-leaky.ncca", "conserve", "--support", "3"]),
        ("verify-inject-cycle4.txt", ["lossy.ncca", "inject", "--cycle", "4"]),
        # 1,048,576 words in four chunks of 2**18, the collision in the first.
        ("verify-inject-cycle10.txt", ["lossy.ncca", "inject", "--cycle", "10"]),
        # Draw 1,059, the first that fails, ends 7,300 generator outputs in,
        # past the first read of the sampled draws.
        (
            "verify-conserve-sampled-late.txt",
            ["ring-leaky.ncca", "conserve", "--support", "4", "--sampled", "2000", "--seed", "201"],
        ),
    ],
)
def test_verify_failing_dumps_match_golden_reports(capsys, golden, args):
    # The same reports as the CI step that runs the installed script.
    assert main(["verify", str(GOLDEN / args[0]), *args[1:]]) == 1
    out = re.sub(r"elapsed_ms=\d+", "elapsed_ms=MASKED", capsys.readouterr().out)
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize(
    "golden, args",
    [
        ("verify-simulate.txt", ["simulate", "--support", "3", "--steps", "4"]),
        ("verify-tauprime.txt", ["tauprime", "--spacing", "3", "--support", "2", "--steps", "2"]),
        ("verify-tauprime-gaps.txt", ["tauprime", "--gaps", "1,2", "--sampled", "20", "--seed", "1"]),
        ("verify-tauprime-gaps-exhaustive.txt", ["tauprime", "--gaps", "1,3", "--steps", "6"]),
        ("verify-tauprime-k2.txt", ["tauprime", "--spacing", "2", "--support", "2", "--steps", "2"]),
        ("verify-simulate-sampled.txt", ["simulate", "--sampled", "30", "--seed", "2", "--support", "5", "--steps", "3"]),
        ("verify-inject-sampled-pass.txt", ["inject", "--cycle", "4", "--sampled", "40000", "--seed", "1"]),
        ("verify-conserve-sampled-pass.txt", ["conserve", "--support", "4", "--sampled", "300", "--seed", "1"]),
        ("verify-inject-pass.txt", ["inject", "--cycle", "3"]),
        ("verify-conserve-pass.txt", ["conserve", "--support", "3"]),
        # Four-axis cell-0 sweeps: 5,308,416 cyclic words of length 4.
        ("verify-inject-pass-cycle4.txt", ["inject", "--cycle", "4"]),
        ("verify-conserve-pass-support4.txt", ["conserve", "--support", "4"]),
    ],
)
def test_verify_passing_reports_match_golden_reports(capsys, golden, args):
    # The same reports as the CI step that runs the installed script.
    assert main(["verify", str(GOLDEN / "rule.rpca"), *args]) == 0
    out = re.sub(r"elapsed_ms=\d+", "elapsed_ms=MASKED", capsys.readouterr().out)
    assert out == (GOLDEN / golden).read_text()


def test_convert_balanced_pairs_match_golden(capsys):
    # The same listing as the CI step that runs the installed script.
    assert main(["convert", str(GOLDEN / "rule.rpca"), "--dump-balanced-pairs"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "convert-pairs.txt").read_text()


@pytest.mark.parametrize(
    "golden, config, args",
    [
        ("run.txt", "embed-tau.cfg", ["--steps", "12"]),
        ("run.pgm", "embed-tau.cfg", ["--steps", "12", "--format", "pgm"]),
        ("run.csv", "embed-tau.cfg", ["--steps", "12", "--format", "csv"]),
        ("run-ring.txt", "embed-ring.cfg", ["--steps", "9"]),
        ("run-window.txt", "embed-tau.cfg", ["--steps", "12", "--window", "-60", "90"]),
        ("run-ring-window.txt", "embed-ring.cfg", ["--steps", "9", "--window", "-40", "70"]),
        ("run-finite.txt", "finite.cfg", ["--steps", "10"]),
        ("run-biperiodic.txt", "biperiodic.cfg", ["--steps", "10", "--window", "-60", "90"]),
        # Windows wholly left or right of every stepped row.
        ("run-finite-left.txt", "finite.cfg", ["--steps", "10", "--window", "-75", "-41"]),
        ("run-finite-right.txt", "finite.cfg", ["--steps", "10", "--window", "41", "70"]),
        ("run-biperiodic-left.txt", "biperiodic.cfg", ["--steps", "10", "--window", "-71", "-37"]),
        ("run-biperiodic-right.txt", "biperiodic.cfg", ["--steps", "10", "--window", "43", "77"]),
    ],
)
def test_run_matches_golden_diagrams(capsys, golden, config, args):
    # The same diagrams as the CI step that runs the installed script.
    assert main(["run", str(GOLDEN / "rule.rpca"), str(GOLDEN / config), *args]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_verify_budget_env_refusal(xor_rule, capsys, monkeypatch):
    monkeypatch.setenv("RNCCA_BUDGET", "10")
    assert main(["verify", xor_rule, "inject", "--cycle", "3"]) == 2
    assert "budget" in capsys.readouterr().err


def test_verify_budget_env_below_one_is_refused(xor_rule, capsys, monkeypatch):
    monkeypatch.setenv("RNCCA_BUDGET", "-1")
    assert main(["verify", xor_rule, "conserve", "--support", "2"]) == 2
    assert capsys.readouterr() == ("", "error: budget must be at least 1, got -1\n")


@pytest.mark.parametrize(
    "args",
    [["simulate", "--support", "3"], ["tauprime", "--spacing", "3", "--support", "3"], ["tauprime", "--gaps", "1,2"]],
    ids=["simulate", "tauprime", "tauprime-gaps"],
)
def test_verify_simulation_sweeps_read_the_budget_env(xor_rule, capsys, monkeypatch, args):
    # 4**3 xor starts: a budget of exactly that many runs, one fewer refuses.
    monkeypatch.setenv("RNCCA_BUDGET", "63")
    assert main(["verify", xor_rule, *args, "--steps", "2"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: exhaustive sweep would step 64 words, over the budget of 63; use sampled mode or raise the budget\n",
    )
    monkeypatch.setenv("RNCCA_BUDGET", "64")
    assert main(["verify", xor_rule, *args, "--steps", "2"]) == 0
    assert "passed=true" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["abc", "1e9"])
def test_verify_budget_env_must_be_an_integer(xor_rule, capsys, monkeypatch, value):
    monkeypatch.setenv("RNCCA_BUDGET", value)
    assert main(["verify", xor_rule, "inject", "--cycle", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: RNCCA_BUDGET must be an integer, got '{value}'\n"


def test_verify_tauprime(xor_rule, capsys):
    assert main([
        "verify", xor_rule, "tauprime", "--spacing", "3", "--support", "2", "--steps", "3",
    ]) == 0
    assert "period=3" in capsys.readouterr().out


@pytest.mark.parametrize("gaps", ["", ","])
def test_verify_tauprime_empty_gap_list_is_one_block(xor_rule, capsys, gaps):
    # As ``embed --gaps ''`` encodes it: one block, not the uniform
    # spacing-3 check.
    assert main(["verify", xor_rule, "tauprime", "--gaps", gaps]) == 0
    expected = verify.check_tau_prime_correspondence(example_rpca("xor"), gaps=[])
    out = capsys.readouterr().out
    assert f"domain={expected.domain!r}" in out
    assert "gaps= blocks=1 steps=4" in out


def test_embed_tau_golden(xor_rule, tmp_path, capsys):
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text("finite q#=(0,0) @0: (1,1)\n")
    assert main(["embed", xor_rule, str(cfg), "--tau"]) == 0
    assert capsys.readouterr().out == "biperiodic left=0,15 center@0=5,10 right=0,15\n"


def test_embed_tau_prime_background(xor_rule, tmp_path, capsys):
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text("finite q#=(0,0) @0: (1,1)\n")
    assert main(["embed", xor_rule, str(cfg), "--tau-prime", "3"]) == 0
    assert "left=0,15,0" in capsys.readouterr().out


def test_embed_cyclic_golden(xor_rule, tmp_path, capsys):
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text("cyclic: (1,0),(0,0)\n")
    assert main(["embed", xor_rule, str(cfg), "--tau"]) == 0
    assert capsys.readouterr().out == "cyclic: 4,11,0,15\n"


def test_embed_rejects_small_k_and_gaps(xor_rule, tmp_path, capsys):
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text("finite q#=(0,0) @0: (1,1),(1,0)\n")
    assert main(["embed", xor_rule, str(cfg), "--tau-prime", "2"]) == 2
    assert main(["embed", xor_rule, str(cfg), "--gaps", "0"]) == 2


def test_embed_takes_a_non_reversible_rule(tmp_path, capsys):
    # Encoding reads only the source's sizes, so it needs no reversibility.
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text("finite q#=(0,0) @0: (1,1)\n")
    assert main(["embed", str(GOLDEN / "constant.rpca"), str(cfg), "--tau"]) == 0
    assert capsys.readouterr() == ("biperiodic left=0,15 center@0=5,10 right=0,15\n", "")


def test_embed_written_file_reparses(xor_rule, tmp_path):
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text("finite q#=(0,0) @0: (1,1)\n")
    out = tmp_path / "embedded.cfg"
    assert main(["embed", xor_rule, str(cfg), "--tau", "-o", str(out)]) == 0
    from rncca.formats import parse_configuration_text

    parsed = parse_configuration_text(out.read_text())
    code = ParticleCode(2, 2)
    assert parsed == encode_tau(code, Finite(0, [(1, 1)], (0, 0)))


def test_render_is_pure():
    rule = convert(example_rpca("xor"))
    traj = run(rule, Finite(0, [5], 0), 2)
    spec = RenderSpec("text", -2, 4, 2)
    assert render(traj, spec) == render(traj, spec)


def test_render_spec_validation():
    with pytest.raises(ValueError):
        RenderSpec("text", 3, 1, 2)
    with pytest.raises(ValueError):
        RenderSpec("text", 0, 1, -1)
    with pytest.raises(ValueError):
        RenderSpec("gif", 0, 1, 1)


def test_run_cyclic_config_default_window(xor_rule, tmp_path, capsys):
    cfg = tmp_path / "ring.cfg"
    cfg.write_text("cyclic: 4,11,0,15\n")
    assert main(["run", xor_rule, str(cfg), "--steps", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == " 4 11  0 15"
    assert len(rows) == 3


def test_run_default_window_covers_growing_support(xor_rule, tau_config, capsys):
    assert main(["run", xor_rule, tau_config, "--steps", "2"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 3 and len(set(map(len, rows))) == 1


def test_verify_sampled_flags(xor_rule, capsys):
    assert main([
        "verify", xor_rule, "conserve", "--sampled", "100",
        "--support", "6", "--seed", "9",
    ]) == 0
    out = capsys.readouterr().out
    assert "sampled" in out and "seed=9" in out


def test_verify_modes_are_exclusive(xor_rule, capsys):
    # Both modes at once is a usage error, not a sampled run.
    assert main(["verify", xor_rule, "conserve", "--exhaustive", "--sampled", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err
    assert main(["verify", xor_rule, "conserve", "--exhaustive", "--support", "2"]) == 0
    assert "exhaustive" in capsys.readouterr().out


def test_verify_inject_on_rpca_autoconverts(xor_rule, capsys):
    assert main(["verify", xor_rule, "inject", "--cycle", "2"]) == 0
    assert "states=16" in capsys.readouterr().out


def test_usage_error_exits_2():
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["inject", "--cycle", "-1"],
        ["conserve", "--support", "0"],
        ["inject", "--cycle", "0"],
        ["simulate", "--support", "0"],
        ["simulate", "--steps", "-1"],
        ["tauprime", "--spacing", "3", "--support", "0"],
        ["conserve", "--sampled", "0"],
        ["inject", "--sampled", "0"],
    ],
    ids=" ".join,
)
def test_verify_rejects_empty_domains(xor_rule, capsys, args):
    assert main(["verify", xor_rule, *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "must be at least 1" in captured.err


def test_main_calls_in_one_process_match_fresh_processes(xor_rule, tau_config, tmp_path, capsys, monkeypatch):
    """``main`` builds its parser once per process; a call must not see
    what an earlier call in the same process parsed or printed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": src}
    monkeypatch.setenv("COLUMNS", "80")
    source = tmp_path / "pairs.cfg"
    source.write_text("finite q#=(0,0) @0: (1,1),(0,1)\n")
    calls = [
        ["frobnicate"],
        ["run", "--help"],
        ["run", xor_rule, tau_config, "--steps", "3"],
        ["run", xor_rule, tau_config, "--steps", "2", "--window", "-2", "3", "--format", "csv"],
        ["embed", xor_rule, str(source), "--tau-prime", "3"],
        ["embed", xor_rule, str(source)],
        ["verify", xor_rule, "conserve", "--support", "3"],
        ["--help"],
    ]
    alone = []
    for argv in calls:
        child = subprocess.run(
            [sys.executable, "-c", "import sys; from rncca.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        alone.append((child.returncode, child.stdout, child.stderr))
    for argv, expected in list(zip(calls, alone)) * 2:
        code = main(argv)
        captured = capsys.readouterr()
        got = (code, captured.out, captured.err)
        if argv[0] == "verify":
            # Only the elapsed time may differ between the two runs.
            got, expected = (
                tuple(re.sub(r"elapsed_ms=\S+", "", str(part)) for part in outcome)
                for outcome in (got, expected)
            )
        assert got == expected, argv
