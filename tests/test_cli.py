import pytest

from rncca.cli import RenderSpec, main, render
from rncca.convert import ParticleCode, convert, encode_tau
from rncca.engine import Finite, run
from rncca.rpca import example_rpca, format_rpca, make_rpca

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


def test_convert_non_reversible_exits_1(tmp_path, capsys):
    path = tmp_path / "const.rpca"
    path.write_text(CONSTANT_TEXT)
    assert main(["convert", str(path)]) == 1
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


def test_run_rejects_table_free_ncca(tmp_path, xor_rule, capsys):
    meta = tmp_path / "meta.ncca"
    assert main(["convert", xor_rule, "-o", str(meta)]) == 0
    cfg = tmp_path / "c.cfg"
    cfg.write_text("finite q#=0 @0: 1\n")
    assert main(["run", str(meta), str(cfg), "--steps", "1"]) == 2
    assert "dump-table" in capsys.readouterr().err


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


def test_verify_budget_env_refusal(xor_rule, capsys, monkeypatch):
    monkeypatch.setenv("RNCCA_BUDGET", "10")
    assert main(["verify", xor_rule, "inject", "--cycle", "3"]) == 2
    assert "budget" in capsys.readouterr().err


def test_verify_tauprime(xor_rule, capsys):
    assert main([
        "verify", xor_rule, "tauprime", "--spacing", "3", "--support", "2", "--steps", "3",
    ]) == 0
    assert "period=3" in capsys.readouterr().out


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
