"""DSL parsing, ket parsing, JSON output determinism, and exit codes."""

import io
import json
import math
import os
import resource
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from anyonlin import AnyonSpec, BeamSplitter, Network, ParticleClass, PhaseShifter, \
    StateVector, build_braiding_network
from anyonlin import operators as operators_module
from anyonlin.cli import CliError, build_parser, main, parse_angle, parse_complex, \
    parse_network, parse_state
from anyonlin.coherent import TruncatedState, mirror_network

from conftest import dense_evolve, shellwise_oracle, state_deviation

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


def test_parse_network_reads_each_angle_exactly():
    text = ("modes 4\n"
            "ps 1 0.1\n"
            "bs 2 4 -2.718281828459045\n"
            "ps 3 1e-300\n"
            "bs 1 2 pi/2\n"
            "bs 3 4 3*pi/4\n")
    net = parse_network(text)
    assert net == Network(4, (PhaseShifter(1, 0.1), BeamSplitter(2, 4, -2.718281828459045),
                              PhaseShifter(3, 1e-300), BeamSplitter(1, 2, math.pi / 2),
                              BeamSplitter(3, 4, 3 * math.pi / 4)))
    assert all(type(el.tau if isinstance(el, PhaseShifter) else el.theta) is float
               for el in net.elements)


def test_parse_network_has_no_window_line():
    with pytest.raises(CliError, match="line 2: unknown keyword 'window'"):
        parse_network("modes 5\nwindow 2 3 pi/2\n")


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


@pytest.mark.parametrize("normalize", [[], ["--no-normalize"]], ids=["normalized", "raw"])
@pytest.mark.parametrize("ket, message", [
    ("nan*|1,0>", "coefficient 'nan' of |1,0> is not finite"),
    ("1e400*|1,0>", "coefficient '1e400' of |1,0> is not finite"),
    ("1e308*|1,0> + 1e308*|0,1>", "state norm overflows a float"),
], ids=["nan", "inf", "norm-overflow"])
def test_non_finite_or_overflowing_ket_exits_2(tmp_path, capsys, ket, message, normalize):
    # these printed an empty amplitude list with exit 0, or exited 3 as a
    # self-check failure that no one asked for
    net_file = tmp_path / "bs.net"
    net_file.write_text("modes 2\nbs 1 2 0.3\n")
    code, out = run_cli(["run", "--phi", "0.5", "--network", str(net_file),
                         "--input", ket, *normalize])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == f"anyonlin: {message}\n"


@pytest.mark.parametrize("command, tiny, plain", [
    (["run"], "1e-200*|1,0>", "|1,0>"),
    (["run"], "5e-324*|1,0> + 5e-324i*|0,1>", "|1,0> + 1i*|0,1>"),
    (["braid"], "1e-200*|1,1,0>", "|1,1,0>"),
    (["braid"], "5e-324*|1,1,0> + 5e-324i*|0,1,1>", "|1,1,0> + 1i*|0,1,1>"),
], ids=["run-1e-200", "run-subnormal", "braid-1e-200", "braid-subnormal"])
def test_ket_whose_squares_underflow_normalizes_like_its_scaled_ket(tmp_path, command, tiny,
                                                                    plain):
    # every squared amplitude underflowed to 0, so the ket exited 2 as
    # "state has zero norm"; it prints the amplitudes of the same ket scaled up
    net_file = tmp_path / "bs.net"
    net_file.write_text("modes 2\nbs 1 2 0.3\n")
    args = command + ["--phi", "0.5"] + (["--network", str(net_file)] if command == ["run"] else [])
    outputs = []
    for ket in (tiny, plain):
        code, out = run_cli(args + ["--input", ket])
        assert code == 0
        outputs.append(json.loads(out)["amplitudes"])
    assert outputs[0] == outputs[1]


def test_zero_ket_still_exits_2(tmp_path, capsys):
    net_file = tmp_path / "bs.net"
    net_file.write_text("modes 2\nbs 1 2 0.3\n")
    code, out = run_cli(["run", "--phi", "0.5", "--network", str(net_file),
                         "--input", "0*|1,0> + 0i*|0,1>"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "anyonlin: state has zero norm\n"


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


def test_hom_loads_only_the_fock_space_and_networks():
    # the operator, coherent-state and dual-rail modules cost a CLI process
    # their import time and run in none of hom, braid and run
    script = ("import sys\n"
              "from anyonlin.cli import main\n"
              "code = main(['hom', '--phi', '1.0', '--self-check'])\n"
              "print(code, sorted(name for name in sys.modules if name.startswith('anyonlin')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == \
        "0 ['anyonlin', 'anyonlin.cli', 'anyonlin.fock', 'anyonlin.network']"


def test_malformed_circuit_documents_exit_2(tmp_path, capsys):
    circuit = tmp_path / "circuit.json"
    for gates, where in ((5, "'gates' must be a list"),
                         ([3], "gate 0:"),
                         ([{"type": "rx", "q": 1, "gamma": 0.3}, {"type": "rz", "q": None,
                                                                  "beta": 0.1}], "gate 1:"),
                         ([{"type": "rz", "q": 1, "beta": None}], "gate 0:")):
        circuit.write_text(json.dumps({"qubits": 1, "phi": 1.0, "gates": gates}))
        code, out = run_cli(["compile", "--circuit", str(circuit)])
        assert code == 2
        assert out == ""
        assert where in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ({"qubits": 2.8, "gates": []}, "bad circuit document: 'qubits' must be an integer, got 2.8"),
    ({"qubits": True, "gates": []}, "bad circuit document: 'qubits' must be an integer, got True"),
    ({"qubits": 2, "gates": [{"type": "rz", "q": 1.9, "beta": 0.1}]},
     "gate 0: 'q' must be an integer, got 1.9"),
    ({"qubits": 3, "gates": [{"type": "cp", "a": 1.2, "b": 2.7}]},
     "gate 0: 'a' must be an integer, got 1.2"),
    ({"qubits": 3, "gates": [{"type": "cp", "a": 1, "b": 2.7}]},
     "gate 0: 'b' must be an integer, got 2.7"),
    ({"qubits": 2, "gates": [{"type": "rx", "q": False, "gamma": 0.3}]},
     "gate 0: 'q' must be an integer, got False"),
])
def test_non_integer_circuit_fields_exit_2_naming_the_field(tmp_path, capsys, doc, message):
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps({"phi": 1.0, **doc}))
    code, out = run_cli(["compile", "--circuit", str(circuit)])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == f"anyonlin: {message}\n"


def test_whole_number_circuit_fields_still_run(tmp_path):
    circuit = tmp_path / "circuit.json"
    outs = []
    for qubits, a, b in ((2, 1, 2), (2.0, 1.0, 2.0)):
        circuit.write_text(json.dumps({"qubits": qubits, "phi": 1.0,
                                       "gates": [{"type": "cp", "a": a, "b": b}]}))
        code, out = run_cli(["compile", "--circuit", str(circuit), "--input", "11"])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


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


@pytest.mark.parametrize("dashed, joined", [
    (["hom", "--phi", "0", "--theta", "-pi/2"], ["hom", "--phi", "0", "--theta=-pi/2"]),
    (["hom", "--phi", "-pi/2"], ["hom", "--phi=-pi/2"]),
    (["cat", "--u", "-1.2j", "--nmax", "3"], ["cat", "--u=-1.2j", "--nmax", "3"]),
])
def test_option_values_may_start_with_a_dash(dashed, joined):
    code, out = run_cli(dashed)
    assert code == 0
    assert (code, out) == run_cli(joined)


@pytest.mark.parametrize("argv", [
    ["hom", "--phi", "0", "--bogus"],
    ["hom", "--phi", "0", "--theta"],
    ["cat", "--u", "1", "--nmax", "3", "-x"],
])
def test_unknown_flags_and_missing_values_still_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("phi", ["0", "pi/2", "1.0"])
def test_fermionic_hom_self_check_passes(phi):
    # two fermions on two modes only have |1,1>: no coincidence can cancel
    argv = ["hom", "--class", "fermionic", "--phi", phi]
    code, out = run_cli(argv)
    checked_code, checked_out = run_cli(argv + ["--self-check"])
    assert code == checked_code == 0
    assert checked_out == out


def test_closed_stdout_exits_1_quietly():
    # the read end is closed before the child writes, so its first flush fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "anyonlin", "hom", "--phi", "0"],
                              stdout=write_end, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


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
    # an 8-qubit circuit's sector (23 modes, 15 bosons) holds C(37, 15)
    # states, but its state never leaves the 256 code rows, so it runs;
    # 13 qubits pass the 4096 code rows of the limit
    gates = [{"type": "u1", "q": q, "alpha": 0.1, "beta": 0.2 * q, "gamma": 0.3, "delta": 0.4}
             for q in range(1, 9)] + [{"type": "cp", "a": q, "b": q + 1} for q in range(1, 8)]
    circuit = tmp_path / "circuit.json"
    for particle_class in ("bosonic", "fermionic"):
        circuit.write_text(json.dumps({"qubits": 8, "phi": 1.0, "class": particle_class,
                                       "gates": gates}))
        proc = run_capped(["compile", "--circuit", str(circuit), "--self-check"])
        assert proc.returncode == 0, proc.stderr
        assert abs(json.loads(proc.stdout)["leakage"]) <= 1e-10
    circuit.write_text(json.dumps({"qubits": 13, "phi": 1.0, "gates": []}))
    proc = run_capped(["compile", "--circuit", str(circuit)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "anyonlin: 13 qubits: 2^13 code states exceed the limit of 4096\n"


@pytest.mark.parametrize("qubits", [10 ** 5, 10 ** 7])
def test_huge_qubit_counts_exit_2_without_building_the_dimension(tmp_path, qubits):
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps({"qubits": qubits, "phi": 1.0, "gates": []}))
    proc = run_capped(["compile", "--circuit", str(circuit)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"anyonlin: {qubits} qubits: 2^{qubits} code states exceed " \
                          "the limit of 4096\n"


def test_oversized_cat_cutoff_exits_2():
    proc = run_capped(["cat", "--u", "1", "--nmax", "100000"])
    assert proc.returncode == 2, proc.stderr
    assert "exceeds the limit of 255" in proc.stderr


@pytest.mark.parametrize("u, named", [("1e200", "(1e+200+0j)"), ("nan", "(nan+0j)")])
def test_cat_amplitude_out_of_range_exits_2_on_one_line(u, named):
    # |u|^2 overflows or is nan: no self-check failure, no numpy warning
    proc = run_capped(["cat", "--u", u, "--nmax", "3"])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"anyonlin: coherent amplitude {named} out of range: " \
                          "|g|^2 is not a finite float\n"


@pytest.mark.parametrize("u, nmax, mean", [("34", "40", "1156"), ("38", "255", "1444")])
def test_cat_amplitude_far_beyond_the_cutoff_exits_2_naming_it(u, nmax, mean):
    # the truncated coherent amplitudes' norm underflows to 0
    proc = run_capped(["cat", "--u", u, "--nmax", nmax])
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"anyonlin: |u|^2 = {mean} is too large for n_max = {nmax}: " \
                          "the truncated amplitudes' norm underflows to 0\n"


def test_cat_amplitude_just_below_the_underflow_still_runs():
    code, out = run_cli(["cat", "--u", "30.12", "--nmax", "40"])
    assert code == 0
    assert abs(json.loads(out)["fidelity"] - 1.0) < 1e-8


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
    # kets out of basis order: pins the order in which the norm is summed
    "run_four_kets.json": ["run", "--phi", "0.7",
                           "--network", str(GOLDEN_DIR / "three_mode.net"),
                           "--input", "0.123*|0,0,2> + 0.456i*|2,0,0> + 0.789*|0,1,1>"
                                      " - 0.321*|1,0,1>"],
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


def test_evolving_commands_never_build_a_dense_unitary(monkeypatch):
    # hom, braid, run and --dump-unitary run on the block kernel, and cat on
    # band stacks built through it; the dense oracle lives in the tests, so
    # the dense generator it reads is what the package must never call
    def no_dense(*args):
        raise AssertionError("dense sector unitary requested")

    monkeypatch.setattr(operators_module, "quadratic_matrix", no_dense)
    for name in ("hom_phi0.json", "braid_phi1.json", "braid_phi07_table.txt",
                 "run_four_kets.json", "run_three_mode_unitary.json", "cat_u1.json"):
        assert run_cli(GOLDEN_COMMANDS[name])[0] == 0


def golden_amplitudes(text, table):
    """occ -> amplitude of a committed hom, braid or run output."""
    if table:
        rows = [line.split() for line in text.splitlines()[2:]]
        return {tuple(map(int, occ.split(","))): complex(float(re), float(im))
                for occ, re, im in rows}
    return {tuple(e["occ"]): complex(e["re"], e["im"]) for e in json.loads(text)["amplitudes"]}


def cat_oracle_deviation(args, golden):
    """Largest deviation of a committed cat output from the shellwise dense oracle.

    The input is the closed-form coherent state on mode 1, normalized
    after the cutoff as the CLI's is.  The CLI leaves out amplitudes of
    magnitude <= 1e-12, so a missing entry deviates only by what the
    oracle holds there beyond that.
    """
    u, n_max = parse_complex(args.u), args.nmax
    axis = np.array([u ** n / math.sqrt(math.factorial(n)) for n in range(n_max + 1)])
    amps = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    amps[:, 0] = axis / np.linalg.norm(axis)
    want, _lost = shellwise_oracle(TruncatedState(amps), mirror_network(),
                                   AnyonSpec.bosonic(parse_angle(args.phi)))
    want /= np.linalg.norm(want)
    got = np.zeros_like(want)
    held = np.zeros(want.shape, dtype=bool)
    for (l, k), amp in golden_amplitudes(golden, args.table).items():
        got[l, k], held[l, k] = amp, True
    return np.where(held, np.abs(got - want), np.maximum(np.abs(want) - 1e-12, 0.0)).max()


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_numbers_match_the_dense_oracle(name):
    # ties the committed bytes to the dense unitaries, not to the kernel that wrote them
    args = build_parser().parse_args(GOLDEN_COMMANDS[name])
    golden = (GOLDEN_DIR / name).read_text()
    if args.command == "cat":
        assert cat_oracle_deviation(args, golden) <= 1e-13
        return
    spec = AnyonSpec(ParticleClass(args.particle_class), parse_angle(args.phi))
    if args.command == "hom":
        network, text = Network(2, (BeamSplitter(1, 2, parse_angle(args.theta)),)), "|1,1>"
    elif args.command == "braid":
        network, text = build_braiding_network(), args.input
    else:
        network, text = parse_network(Path(args.network).read_text()), args.input
    state = parse_state(text, network.m, spec, normalize=not getattr(args, "no_normalize", False))
    sector = state.sector
    want = StateVector.from_vector(sector, dense_evolve(network, sector, state.to_vector()))
    assert state_deviation(want, golden_amplitudes(golden, args.table)) <= 1e-13
    if getattr(args, "dump_unitary", False):
        doc = json.loads(golden)["unitary"]
        assert doc["basis"] == [list(occ) for occ in sector.basis]
        mat = np.array(doc["re"]) + 1j * np.array(doc["im"])
        want_mat = dense_evolve(network, sector, np.eye(sector.dim, dtype=complex))
        assert np.max(np.abs(mat - want_mat)) <= 1e-13
