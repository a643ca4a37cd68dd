"""DSL parsing, ket parsing, JSON output determinism, and exit codes."""

import io
import json
import math
import resource
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from anyonlin import AnyonSpec, BeamSplitter, Network, PhaseShifter, \
    build_braiding_network
from anyonlin.cli import CliError, build_parser, main, parse_angle, parse_complex, \
    parse_network, parse_state, serialize_network

GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


# -------------------------------------------------------------------- parsing

def test_parse_angle_forms():
    assert parse_angle("pi") == math.pi
    assert parse_angle("pi/2") == math.pi / 2
    assert parse_angle("-pi/2") == -math.pi / 2
    assert parse_angle("3*pi/4") == 3 * math.pi / 4
    assert parse_angle("-2*pi/5") == -2 * math.pi / 5
    assert parse_angle("0.75") == 0.75
    assert parse_angle(" 1.5e-1 ") == 0.15
    with pytest.raises(CliError):
        parse_angle("two pi")
    with pytest.raises(CliError):
        parse_angle("pi/0")


def test_parse_complex_forms():
    assert parse_complex("0.5") == 0.5
    assert parse_complex("2i") == 2j
    assert parse_complex("0.5+0.5i") == 0.5 + 0.5j
    assert parse_complex("-1i") == -1j
    assert parse_complex("+") == 1.0
    assert parse_complex("-") == -1.0
    with pytest.raises(CliError):
        parse_complex("nope")


def test_parse_network_single_bs():
    net = parse_network("modes 2\nbs 1 2 pi/4\n")
    assert net == Network(2, (BeamSplitter(1, 2, math.pi / 4),))


def test_parse_network_braiding_dsl_matches_builder():
    text = ("modes 3\n"
            "bs 2 3 pi/2\n"
            "bs 1 2 pi/2\n"
            "bs 1 3 pi/2\n"
            "bs 1 2 pi/2\n"
            "ps 1 pi\n"
            "ps 2 pi/2\n"
            "ps 3 pi/2\n")
    assert parse_network(text) == build_braiding_network()


def test_parse_network_errors_carry_line_numbers():
    with pytest.raises(CliError, match="line 2"):
        parse_network("modes 2\nbs 1 3 pi/4")
    with pytest.raises(CliError, match="line 1"):
        parse_network("foo 1")
    with pytest.raises(CliError, match="line 2"):
        parse_network("modes 2\nps 1 junk")
    with pytest.raises(CliError, match="line 2"):
        parse_network("modes 2\nbs 1 1 pi/4")
    with pytest.raises(CliError, match="missing"):
        parse_network("")


def test_parse_network_allows_comments_and_blank_lines():
    net = parse_network("# mirror\nmodes 2\n\nps 2 pi/2  # first\nbs 1 2 pi/2\nps 1 pi/2\n")
    assert len(net.elements) == 3


def test_serialize_round_trip():
    for net in (build_braiding_network(),
                Network(4, (BeamSplitter(2, 4, 0.123456789), PhaseShifter(1, -2.5),
                            BeamSplitter(1, 2, 1e-3))),):
        assert parse_network(serialize_network(net)) == net


def test_parse_state_basis_and_superposition():
    spec = AnyonSpec.bosonic(0.0)
    st = parse_state("|1,1>", 2, spec)
    assert st.amplitude((1, 1)) == 1.0
    combo = parse_state("0.7071*|2,0> + 0.7071*|0,2>", 2, spec)
    assert abs(combo.amplitude((2, 0)) - 1 / math.sqrt(2)) < 1e-4
    assert abs(combo.norm() - 1.0) < 1e-12
    complex_combo = parse_state("0.5+0.5i*|1,0> - 1i*|0,1>", 2, spec, normalize=False)
    assert complex_combo.amplitude((1, 0)) == 0.5 + 0.5j
    assert complex_combo.amplitude((0, 1)) == -1j


def test_parse_state_validation():
    fer = AnyonSpec.fermionic(0.2)
    with pytest.raises(CliError, match="occupation above 1"):
        parse_state("|1,2>", 2, fer)
    bos = AnyonSpec.bosonic(0.2)
    with pytest.raises(CliError, match="total particle number"):
        parse_state("|1,0> + |1,1>", 2, bos)
    with pytest.raises(CliError, match="no ket"):
        parse_state("hello", 2, bos)
    with pytest.raises(CliError, match="expected 2"):
        parse_state("|1,0,0>", 2, bos)


# --------------------------------------------------------------- subcommands

def test_hom_command_outputs_balanced_superposition():
    code, out = run_cli(["hom", "--phi", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "bosonic"
    amps = {tuple(e["occ"]): complex(e["re"], e["im"]) for e in doc["amplitudes"]}
    assert set(amps) == {(2, 0), (0, 2)}
    for value in amps.values():
        assert abs(value - 1j / math.sqrt(2)) < 1e-10


def test_braid_command_reports_exchange_phase():
    code, out = run_cli(["braid", "--phi", "1.0", "--input", "|1,1,0>"])
    assert code == 0
    doc = json.loads(out)
    (entry,) = doc["amplitudes"]
    assert entry["occ"] == [1, 1, 0]
    got = complex(entry["re"], entry["im"])
    assert abs(got - complex(math.cos(1.0), math.sin(1.0))) < 1e-10


def test_run_command_single_particle_reflection(tmp_path):
    mirror = tmp_path / "mirror.net"
    mirror.write_text("modes 2\nps 2 pi/2\nbs 1 2 pi/2\nps 1 pi/2\n")
    code, out = run_cli(["run", "--phi", "0", "--class", "fermionic",
                         "--network", str(mirror), "--input", "|1,0>"])
    assert code == 0
    doc = json.loads(out)
    (entry,) = doc["amplitudes"]
    assert entry["occ"] == [0, 1]
    assert abs(complex(entry["re"], entry["im"]) - 1j) < 1e-10


def test_run_command_dump_unitary(tmp_path):
    net_file = tmp_path / "bs.net"
    net_file.write_text("modes 2\nbs 1 2 pi/4\n")
    code, out = run_cli(["run", "--phi", "0", "--network", str(net_file),
                         "--input", "|1,0>", "--dump-unitary"])
    assert code == 0
    doc = json.loads(out)
    assert doc["unitary"]["basis"] == [[1, 0], [0, 1]]
    re = doc["unitary"]["re"]
    im = doc["unitary"]["im"]
    assert abs(re[0][0] - math.cos(math.pi / 4)) < 1e-12
    assert abs(im[1][0] - math.sin(math.pi / 4)) < 1e-12


def test_cat_command_reports_unit_fidelity():
    code, out = run_cli(["cat", "--u", "1", "--nmax", "30"])
    assert code == 0
    doc = json.loads(out)
    assert doc["fidelity"] == pytest.approx(1.0, abs=1e-8)
    assert doc["phi"] == pytest.approx(math.pi)


def test_compile_command_cp_phase(tmp_path):
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps({
        "qubits": 2, "phi": math.pi / 2, "class": "bosonic",
        "gates": [{"type": "cp", "a": 1, "b": 2}],
    }))
    code, out = run_cli(["compile", "--circuit", str(circuit), "--input", "11",
                         "--self-check"])
    assert code == 0
    doc = json.loads(out)
    (entry,) = doc["logical_amplitudes"]
    assert entry["bits"] == "11"
    assert abs(complex(entry["re"], entry["im"]) - 1j) < 1e-10
    assert doc["leakage"] < 1e-10


def test_compile_phi_without_haar_check_is_rejected(tmp_path, capsys):
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps({"qubits": 1, "phi": 1.0, "gates": []}))
    code, out = run_cli(["compile", "--circuit", str(circuit), "--phi", "pi/2"])
    assert code == 2
    assert out == ""
    assert "phi from its document" in capsys.readouterr().err


def test_compile_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs a CLI process tens of milliseconds of import time
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps({
        "qubits": 2, "phi": 1.0, "class": "fermionic",
        "gates": [{"type": "rx", "q": 1, "gamma": 0.3}, {"type": "cp", "a": 1, "b": 2}],
    }))
    script = ("import sys\n"
              "from anyonlin.cli import main\n"
              f"code = main(['compile', '--circuit', {str(circuit)!r}, '--input', '11'])\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_compile_haar_check_mode():
    code, out = run_cli(["compile", "--haar-check", "10", "--seed", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["targets"] == 10
    assert doc["max_deviation"] < 1e-9


def test_compile_haar_check_rejects_a_negative_count(capsys):
    code, out = run_cli(["compile", "--haar-check", "-5"])
    assert code == 2
    assert out == ""
    assert "--haar-check" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["hom", "--phi", "0"],
    ["braid", "--phi", "0"],
    ["run", "--phi", "0", "--network", "net.txt", "--input", "|1,0>"],
    ["compile", "--circuit", "circuit.json"],
    ["cat", "--u", "1"],
])
def test_every_subcommand_takes_the_same_output_flags(argv):
    parser = build_parser()
    assert parser.parse_args(argv + ["--table"]).table is True
    assert parser.parse_args(argv + ["--json"]).table is False
    with pytest.raises(SystemExit):
        parser.parse_args(argv + ["--json", "--table"])
    if argv[0] == "cat":
        # mirror_cat always checks its fidelity; the flag would be a no-op
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--self-check"])
    else:
        assert parser.parse_args(argv + ["--self-check"]).self_check is True


def test_table_output_mode():
    code, out = run_cli(["hom", "--phi", "pi/5", "--table"])
    assert code == 0
    assert "occ" in out and "re" in out
    assert "2,0" in out and "0,2" in out


# ------------------------------------------------------------------ processes

def test_exit_code_validation_error():
    proc = subprocess.run([sys.executable, "-m", "anyonlin", "braid", "--phi", "0",
                           "--class", "fermionic", "--input", "|1,2,0>"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "occupation above 1" in proc.stderr


def test_exit_code_self_check_failure():
    # the coincidence suppression holds only for a balanced splitter, so
    # the self-check must flag an unbalanced angle
    proc = subprocess.run([sys.executable, "-m", "anyonlin", "hom", "--phi", "0",
                           "--theta", "pi/3", "--self-check"],
                          capture_output=True, text=True)
    assert proc.returncode == 3
    assert "self-check" in proc.stderr


def run_capped(argv):
    """Run the CLI in a child process limited to 2 GiB of address space and
    60 s, so that a missing size guard fails the test instead of exhausting
    the machine."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    return subprocess.run([sys.executable, "-m", "anyonlin", *argv], capture_output=True,
                          text=True, timeout=60, preexec_fn=cap_memory)


def test_oversized_dense_sectors_exit_2_before_enumeration(tmp_path):
    network = tmp_path / "wide.net"
    network.write_text("modes 12\nbs 1 2 0.3\n")
    ket = "|" + ",".join(["12"] + ["0"] * 11) + ">"
    proc = run_capped(["run", "--phi", "0.5", "--network", str(network), "--input", ket])
    assert proc.returncode == 2, proc.stderr
    assert "1352078" in proc.stderr                # C(23, 12)
    proc = run_capped(["braid", "--phi", "0.5", "--input", "|50,50,50>"])
    assert proc.returncode == 2, proc.stderr
    assert "11476" in proc.stderr                  # C(152, 2), 2 GB per dense matrix


def test_oversized_circuit_sector_exits_2(tmp_path):
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps({"qubits": 8, "phi": 1.0, "gates": []}))
    proc = run_capped(["compile", "--circuit", str(circuit)])
    assert proc.returncode == 2, proc.stderr
    assert str(math.comb(37, 15)) in proc.stderr   # 23 modes, 15 bosons


def test_oversized_cat_cutoff_exits_2():
    proc = run_capped(["cat", "--u", "1", "--nmax", "100000"])
    assert proc.returncode == 2, proc.stderr
    assert "exceeds the limit of 255" in proc.stderr


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "anyonlin", "hom", "--phi", "0",
                           "--self-check"], capture_output=True, text=True)
    assert proc.returncode == 0
    json.loads(proc.stdout)


# ---------------------------------------------------------------- determinism

GOLDEN_COMMANDS = {
    "hom_phi0.json": ["hom", "--phi", "0"],
    "braid_phi1.json": ["braid", "--phi", "1.0", "--input", "|1,1,0>"],
    "cat_u1.json": ["cat", "--u", "1"],
    "run_three_mode_unitary.json": ["run", "--phi", "0.7",
                                    "--network", str(GOLDEN_DIR / "three_mode.net"),
                                    "--input", "0.6*|1,1,0> + 0.8i*|0,1,1>",
                                    "--dump-unitary"],
    "braid_phi07_table.txt": ["braid", "--phi", "0.7",
                              "--input", "0.5*|1,1,0> + 0.3i*|0,1,1>", "--table"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_outputs_are_byte_identical_across_runs(name):
    argv = GOLDEN_COMMANDS[name]
    code_a, first = run_cli(argv)
    code_b, second = run_cli(argv)
    assert code_a == code_b == 0
    assert first == second


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_outputs_match_committed_golden_files(name):
    code, out = run_cli(GOLDEN_COMMANDS[name])
    assert code == 0
    golden = (GOLDEN_DIR / name).read_bytes()
    assert out.encode() == golden
