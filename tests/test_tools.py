"""The repository's helper scripts under tools/."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blank_comment_and_docstring_lines(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text('''"""Module docstring
over two lines."""

# a comment
import math  # a trailing comment


class Thing:
    """Class docstring."""

    def area(self, r):
        """Function docstring."""
        text = """a string that is
        not a docstring"""
        return math.pi * r * r, text
''')
    # import, class, def, the two-line string assignment and the return
    assert load("code_lines").code_lines(source) == 6


def test_circuit_ladder_measures_a_plan_on_the_code_rows():
    # two qubits, six layers: the plan holds the 4 code rows of the
    # 35-state bosonic sector
    case = load("circuit_ladder").measure(2, 6)
    assert (case["qubits"], case["layers"], case["dim"], case["plan_rows"]) == (2, 6, 35, 4)
    assert 0 < case["warm_s"] and 0 < case["cold_s"] and 0 < case["new_phi_s"]
    assert case["peak_rss_mb"] > 0
    # one fresh compile --circuit process of the same circuit
    assert case["cli_compile_s"] > 0 and case["cli_peak_rss_mb"] > 0


def test_cli_startup_measures_a_fresh_hom_process(tmp_path):
    case = load("cli_startup").measure("hom", 1, str(tmp_path))
    assert (case["subcommand"], case["repeats"]) == ("hom", 1)
    assert case["modules"] == ["anyonlin", "anyonlin.cli", "anyonlin.fock", "anyonlin.network"]
    assert 0 < case["wall_s"] and case["peak_rss_mb"] > 0
