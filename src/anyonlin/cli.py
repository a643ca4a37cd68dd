"""Command-line front end: parse networks and kets, evolve, emit JSON.

Network DSL, one element per line, applied top to bottom::

    modes 3
    bs 2 3 pi/2
    ps 1 pi

Angles accept decimal radians and rational multiples of pi (``pi``,
``pi/2``, ``-pi/2``, ``3*pi/4``).  Kets are ASCII, ``|1,0,1>``, and
linear combinations use ``a*|...> + b*|...>`` with complex literals like
``0.5+0.5i``.  Output is deterministic JSON (stable basis order, floats
at 17 significant digits) or an aligned table.

Exit codes: 0 success, 1 stdout closed before the output was written,
2 validation or parse error, 3 numerical tolerance failure in a
self-check mode.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING, Callable

import numpy as np

# the coherent-state and dual-rail modules are imported by the subcommands
# that run them, so hom, braid and run load only the Fock space and networks
from .fock import AnyonSpec, ParticleClass, StateVector, enumerate_sector
from .network import BeamSplitter, Network, PhaseShifter, build_braiding_network, evolve, \
    evolve_amplitudes

if TYPE_CHECKING:
    from .dualrail import LogicalLayout

__all__ = [
    "CliError",
    "parse_angle",
    "parse_complex",
    "parse_network",
    "parse_state",
    "haar_unitary",
    "main",
]


class CliError(ValueError):
    """Validation or parse failure; maps to exit code 2."""


#: Largest sector ``hom``, ``braid`` and ``run`` accept, and largest code
#: space, 2^qubits states, a ``compile`` circuit may have (12 qubits).  It
#: bounds the dim^2 complex matrix of ``run --dump-unitary`` (256 MiB) and
#: the widest beam-splitter block, whose eigendecomposition on two modes
#: is the whole sector.  A circuit's state never leaves its code rows, so
#: its sector, however large, is never enumerated.
MAX_DENSE_DIM = 4096
#: Largest ``cat`` cutoff.  The band stacks of shell unitaries the cat
#: path keeps stay within the kernel cache's 256 MiB at any cutoff; what
#: this bounds is the (n_max + 1)^2 output and the widest band a call may
#: build, 16 shells of dim up to 2 n_max + 1 (64 MiB at 255), and the
#: temporaries of that build: the kernel runs one shell's identity batch
#: at a time, a few (2 n_max + 1)^2 arrays (about 24 MiB at 255).
MAX_CAT_NMAX = 255


def _check_dim(m: int, n_total: int, spec: AnyonSpec, limit: int) -> None:
    """Reject a sector of more than ``limit`` states.

    The dimension C(top, k) is built one factor at a time as C(top, i) for
    i = 1..min(k, top - k), a rising sequence; once it passes limit^2 the
    exact value is not needed, so no number much larger than that is
    formed, whatever the counts.
    """
    top, k = (m, n_total) if spec.is_fermionic else (m + n_total - 1, n_total)
    dim = int(k <= top)
    for i in range(1, min(k, top - k) + 1):
        dim = dim * (top - i + 1) // i
        if dim > limit * limit:
            raise CliError(f"sector dimension above {limit * limit} exceeds the limit of {limit}")
    if dim > limit:
        raise CliError(f"sector dimension {dim} exceeds the limit of {limit}")


_PI_RE = re.compile(r"^([+-]?)(?:(\d+)\s*\*\s*)?pi(?:\s*/\s*(\d+))?$", re.IGNORECASE)


def parse_angle(text: str) -> float:
    """Decimal radians or a rational multiple of pi."""
    t = text.strip()
    m = _PI_RE.match(t)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        num = int(m.group(2)) if m.group(2) else 1
        den = int(m.group(3)) if m.group(3) else 1
        if den == 0:
            raise CliError(f"zero denominator in angle {text!r}")
        return sign * num * math.pi / den
    try:
        return float(t)
    except ValueError:
        raise CliError(f"malformed angle {text!r}") from None


def parse_complex(text: str) -> complex:
    """Complex literal in ``re``, ``imi``, or ``re+imi`` form."""
    t = text.replace(" ", "").replace("i", "j")
    if t in ("", "+"):
        return 1.0 + 0.0j
    if t == "-":
        return -1.0 + 0.0j
    try:
        return complex(t)
    except ValueError:
        raise CliError(f"malformed complex literal {text!r}") from None


#: Network elements by DSL keyword: the class and its usage line, whose
#: tokens after the keyword are the modes and then the angle.
_ELEMENTS = {"ps": (PhaseShifter, "ps <i> <angle>"), "bs": (BeamSplitter, "bs <i> <j> <angle>")}


def parse_network(text: str) -> Network:
    """Parse the network DSL; line order is application order."""
    m: int | None = None
    elements: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0].lower()
        try:
            if keyword == "modes":
                if m is not None:
                    raise CliError("duplicate 'modes' line")
                if len(tokens) != 2:
                    raise CliError("expected: modes <m>")
                m = int(tokens[1])
                if m < 1:
                    raise CliError("mode count must be >= 1")
            elif keyword in _ELEMENTS:
                element, usage = _ELEMENTS[keyword]
                if m is None:
                    raise CliError("'modes' must come first")
                if len(tokens) != len(usage.split()):
                    raise CliError(f"expected: {usage}")
                modes = [int(tok) for tok in tokens[1:-1]]
                for mode in modes:
                    if not 1 <= mode <= m:
                        raise CliError(f"mode {mode} out of range 1..{m}")
                elements.append(element(*modes, parse_angle(tokens[-1])))
            else:
                raise CliError(f"unknown keyword {tokens[0]!r}")
        except ValueError as err:  # CliError or an element's own check
            raise CliError(f"line {lineno}: {err}") from None
    if m is None:
        raise CliError("network is missing a 'modes' line")
    return Network(m, tuple(elements))


_KET_RE = re.compile(r"\|\s*([0-9]+(?:\s*,\s*[0-9]+)*)\s*>")


def parse_state(text: str, m: int, spec: AnyonSpec, normalize: bool = True) -> StateVector:
    """Parse ``a*|n1,...,nm> + b*|...>`` into a sector state.

    All kets must share one total particle number; fermionic occupancies
    above one, a coefficient that is not finite and a state whose norm
    overflows a float are rejected.  The result is normalized unless
    disabled; a nonzero state whose squared amplitudes all underflow is
    first divided by its largest coefficient's magnitude.
    """
    matches = list(_KET_RE.finditer(text))
    if not matches:
        raise CliError(f"no ket found in {text!r}")
    head = text[: matches[0].start()].strip()
    terms: list[tuple[complex, tuple[int, ...]]] = []
    for pos, match in enumerate(matches):
        coef_text = text[matches[pos - 1].end(): match.start()] if pos else head
        coef_text = coef_text.strip()
        if coef_text.endswith("*"):
            coef_text = coef_text[:-1]
        coef = parse_complex(coef_text)
        if not (math.isfinite(coef.real) and math.isfinite(coef.imag)):
            raise CliError(f"coefficient {coef_text!r} of |{match.group(1)}> is not finite")
        occ = tuple(int(tok) for tok in match.group(1).replace(" ", "").split(","))
        if len(occ) != m:
            raise CliError(f"ket |{match.group(1)}> has {len(occ)} modes, expected {m}")
        if spec.is_fermionic and any(n > 1 for n in occ):
            raise CliError(f"fermionic occupation above 1 in |{match.group(1)}>")
        terms.append((coef, occ))
    tail = text[matches[-1].end():].strip()
    if tail:
        raise CliError(f"trailing junk after last ket: {tail!r}")
    totals = {sum(occ) for _, occ in terms}
    if len(totals) > 1:
        raise CliError("all kets must carry the same total particle number")
    n_total = totals.pop()
    _check_dim(m, n_total, spec, MAX_DENSE_DIM)
    sector = enumerate_sector(m, n_total, spec)
    amps: dict[tuple[int, ...], complex] = {}
    for coef, occ in terms:
        amps[occ] = amps.get(occ, 0.0) + coef
    state = StateVector(sector, amps)
    try:
        norm = state.norm()
    except OverflowError:   # a squared amplitude above the float range
        norm = math.inf
    if norm == math.inf:
        raise CliError("state norm overflows a float")
    if normalize:
        if norm == 0.0 and any(amps.values()):
            # every square underflowed: scale the largest coefficient to 1 first
            scale = max(map(abs, amps.values()))
            state = StateVector(sector, {occ: amp / scale for occ, amp in amps.items()})
            norm = state.norm()
        if norm == 0.0:
            raise CliError("state has zero norm")
        state = state.normalized()
    return state


def _entries(label: str, items) -> list[dict]:
    """Output rows {label: key, "re": ..., "im": ...} of (key, amplitude) pairs
    whose amplitude exceeds 1e-12 in magnitude."""
    return [{label: key, "re": float(amp.real), "im": float(amp.imag)}
            for key, amp in items if abs(amp) > 1e-12]


def _emit(doc: dict, table: bool) -> None:
    if not table:
        print(json.dumps(doc))
        return
    meta = {k: v for k, v in doc.items() if not isinstance(v, (list, dict))}
    print("  ".join(f"{k}={v}" for k, v in meta.items()))
    for key, rows in ((k, v) for k, v in doc.items() if isinstance(v, list)):
        label = "occ" if rows and "occ" in rows[0] else "bits"
        print(f"{label:>16s}  {'re':>24s}  {'im':>24s}")
        for row in rows:
            tag = ",".join(map(str, row[label])) if label == "occ" else row[label]
            print(f"{tag:>16s}  {row['re']:>24.17g}  {row['im']:>24.17g}")


def _read_file(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise CliError(f"cannot read {what} file: {err}") from None


def _evolve_command(args: argparse.Namespace, build_network: Callable[[], Network],
                    input_text: str, normalize: bool = True,
                    check: Callable[[StateVector, StateVector], None] | None = None,
                    dump_unitary: bool = False) -> int:
    """Shared body of hom, braid and run: evolve the ket ``input_text``
    through ``build_network()`` and emit the result.

    The network is built after ``--phi`` is parsed, so a malformed phase
    is reported first.  ``--self-check`` verifies the norm, then calls
    ``check(state, out)``, which raises ArithmeticError on a failure.
    """
    phi = parse_angle(args.phi)
    spec = AnyonSpec(ParticleClass(args.particle_class), phi)
    network = build_network()
    state = parse_state(input_text, network.m, spec, normalize=normalize)
    out = evolve(network, state)
    if args.self_check:
        if abs(out.norm() - 1.0) > 1e-10:
            raise ArithmeticError(f"evolved norm {out.norm()!r} deviates from 1")
        if check is not None:
            check(state, out)
    doc = {
        "input": input_text,
        "phi": phi,
        "class": args.particle_class,
        "amplitudes": _entries("occ", ((list(occ), amp) for occ, amp in out.amps.items())),
    }
    if dump_unitary:
        sector = state.sector
        mat = evolve_amplitudes(network, sector, np.eye(sector.dim, dtype=np.complex128))
        doc["unitary"] = {"basis": [list(occ) for occ in sector.basis],
                          "re": mat.real.tolist(), "im": mat.imag.tolist()}
    _emit(doc, args.table)
    return 0


def _coincidence_cancels(state: StateVector, out: StateVector) -> None:
    if abs(out.amplitude((1, 1))) > 1e-12:
        raise ArithmeticError("coincidence amplitude failed to cancel")


def _diagonal_on_basis_states(state: StateVector, out: StateVector) -> None:
    if len(state.amps) == 1:
        (occ,) = state.amps
        if abs(abs(out.amplitude(occ)) - 1.0) > 1e-10:
            raise ArithmeticError("braiding network was not diagonal on a basis state")


def _cmd_hom(args: argparse.Namespace) -> int:
    # two fermions on two modes fill the sector |1,1>, which the norm check covers
    return _evolve_command(
        args, lambda: Network(2, (BeamSplitter(1, 2, parse_angle(args.theta)),)), "|1,1>",
        check=_coincidence_cancels if args.particle_class == "bosonic" else None)


def _cmd_braid(args: argparse.Namespace) -> int:
    return _evolve_command(args, build_braiding_network, args.input, not args.no_normalize,
                           _diagonal_on_basis_states)


def _cmd_run(args: argparse.Namespace) -> int:
    return _evolve_command(args, lambda: parse_network(_read_file(args.network, "network")),
                           args.input, not args.no_normalize, dump_unitary=args.dump_unitary)


#: Circuit gates by "type": the name of the ``dualrail`` class and its
#: fields in constructor order.  The qubit fields ``q``, ``a`` and ``b``
#: are integers, the rest angles.
_GATES = {"rz": ("Rz", ("q", "beta")), "rx": ("Rx", ("q", "gamma")),
          "u1": ("U1", ("q", "alpha", "beta", "gamma", "delta")), "cp": ("CP", ("a", "b"))}


def _integer(value, field: str) -> int:
    """A whole-number field; a fraction, a bool or a string raises ValueError naming it."""
    if isinstance(value, bool) or not (isinstance(value, int)
                                       or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{field!r} must be an integer, got {value!r}")
    return int(value)


def _parse_circuit(doc: dict) -> tuple[AnyonSpec, LogicalLayout, list]:
    from . import dualrail

    try:
        qubits = _integer(doc["qubits"], "qubits")
        spec = AnyonSpec(ParticleClass(doc.get("class", "bosonic")), float(doc["phi"]))
        raw_gates = doc["gates"]
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise CliError(f"bad circuit document: {err}") from None
    if qubits > MAX_DENSE_DIM.bit_length() - 1:   # the most qubits whose code rows fit
        raise CliError(f"{qubits} qubits: 2^{qubits} code states exceed the limit of "
                       f"{MAX_DENSE_DIM}")
    layout = dualrail.LogicalLayout(qubits)

    def angle(value) -> float:
        return parse_angle(value) if isinstance(value, str) else float(value)

    if not isinstance(raw_gates, list):
        raise CliError(f"bad circuit document: 'gates' must be a list, got {raw_gates!r}")
    gates = []
    for pos, entry in enumerate(raw_gates):
        if not isinstance(entry, dict):
            raise CliError(f"gate {pos}: expected an object, got {entry!r}")
        kind = entry.get("type")
        if kind not in _GATES:
            raise CliError(f"gate {pos}: unknown type {kind!r}")
        gate_name, keys = _GATES[kind]
        gate = getattr(dualrail, gate_name)
        missing = [key for key in keys if key not in entry]
        if missing:
            raise CliError(f"gate {pos}: missing fields {missing}")
        try:
            gates.append(gate(*(_integer(entry[key], key) if key in ("q", "a", "b")
                                else angle(entry[key]) for key in keys)))
        except (TypeError, ValueError, OverflowError) as err:
            raise CliError(f"gate {pos}: {err}") from None
    return spec, layout, gates


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary via QR of a complex Gaussian matrix."""
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _haar_check(args: argparse.Namespace) -> int:
    from .dualrail import U1, LogicalLayout, euler_zxz, logical_unitary

    rng = np.random.default_rng(args.seed)
    layout = LogicalLayout(1)
    spec = AnyonSpec.bosonic(parse_angle(args.phi)) if args.phi else AnyonSpec.bosonic(1.0)
    worst = 0.0
    for _ in range(args.haar_check):
        target = haar_unitary(rng)
        got = logical_unitary(spec, layout, [U1(1, *euler_zxz(target))])
        flat = np.argmax(np.abs(target))
        aligned = got * (target.flat[flat] / got.flat[flat])
        worst = max(worst, float(np.max(np.abs(aligned - target))))
    doc = {"targets": args.haar_check, "seed": args.seed, "max_deviation": worst}
    _emit(doc, args.table)
    if worst > 1e-9:
        raise ArithmeticError(f"random-target compilation deviation {worst!r}")
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from .dualrail import decode, run_circuit

    if args.haar_check < 0:
        raise CliError(f"--haar-check needs a count >= 0, got {args.haar_check}")
    if args.haar_check:
        return _haar_check(args)
    if args.phi:
        raise CliError("--phi applies only to --haar-check; a circuit takes phi "
                       "from its document")
    if not args.circuit:
        raise CliError("compile needs --circuit FILE (or --haar-check N)")
    try:
        doc = json.loads(_read_file(args.circuit, "circuit"))
    except json.JSONDecodeError as err:
        raise CliError(f"cannot read circuit file: {err}") from None
    spec, layout, gates = _parse_circuit(doc)
    bits = args.input or "0" * layout.num_qubits
    if len(bits) != layout.num_qubits or any(b not in "01" for b in bits):
        raise CliError(f"input must be {layout.num_qubits} bits of 0/1")
    final = run_circuit(spec, layout, gates, bits)
    amps, leakage = decode(layout, final)
    if args.self_check and leakage > 1e-10:
        raise ArithmeticError(f"leakage {leakage!r} above tolerance")
    entries = _entries("bits", ((format(idx, f"0{layout.num_qubits}b"), amp)
                                for idx, amp in enumerate(amps)))
    doc = {
        "input": bits,
        "phi": spec.phi,
        "class": spec.particle_class.value,
        "qubits": layout.num_qubits,
        "logical_amplitudes": entries,
        "leakage": leakage,
    }
    _emit(doc, args.table)
    return 0


def _cmd_cat(args: argparse.Namespace) -> int:
    from .coherent import Truncation, mirror_cat, mirror_cat_reference

    spec = AnyonSpec.bosonic(parse_angle(args.phi))
    truncation = Truncation(args.nmax)
    u = parse_complex(args.u)
    if args.nmax > MAX_CAT_NMAX:
        raise CliError(f"--nmax {args.nmax} exceeds the limit of {MAX_CAT_NMAX}")
    state = mirror_cat(u, spec, truncation)
    entries = _entries("occ", (([l, k], state.amps[l, k])
                               for l in range(args.nmax + 1) for k in range(args.nmax + 1)))
    doc = {
        "input": args.u,
        "phi": spec.phi,
        "class": "bosonic",
        "nmax": args.nmax,
        "fidelity": state.fidelity(mirror_cat_reference(u, truncation)),
        "amplitudes": entries,
    }
    _emit(doc, args.table)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--phi", required=True, help="exchange phase (radians or pi-expr)")
    parser.add_argument("--class", dest="particle_class", default="bosonic",
                        choices=["bosonic", "fermionic"], help="particle class")
    _add_output(parser)


def _add_output(parser: argparse.ArgumentParser, self_check: bool = True) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", dest="table", action="store_false", default=False,
                       help="JSON output (default)")
    group.add_argument("--table", dest="table", action="store_true", help="aligned text table")
    if self_check:
        parser.add_argument("--self-check", action="store_true",
                            help="verify numerical invariants; exit 3 on failure")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anyonlin",
        description="linear-optical dynamics of one-dimensional anyons")
    sub = parser.add_subparsers(dest="command", required=True)

    p_hom = sub.add_parser("hom", help="two-particle interference at a beam splitter")
    _add_common(p_hom)
    p_hom.add_argument("--theta", default="pi/4", help="beam splitter angle (default pi/4)")
    p_hom.set_defaults(func=_cmd_hom)

    p_braid = sub.add_parser("braid", help="three-mode braiding network")
    _add_common(p_braid)
    p_braid.add_argument("--input", default="|1,1,0>", help="input ket expression")
    p_braid.add_argument("--no-normalize", action="store_true")
    p_braid.set_defaults(func=_cmd_braid)

    p_run = sub.add_parser("run", help="evolve a state through a network file")
    _add_common(p_run)
    p_run.add_argument("--network", required=True, help="network DSL file")
    p_run.add_argument("--input", required=True, help="input ket expression")
    p_run.add_argument("--no-normalize", action="store_true")
    p_run.add_argument("--dump-unitary", action="store_true",
                       help="include the sector matrix of the whole network")
    p_run.set_defaults(func=_cmd_run)

    p_compile = sub.add_parser("compile", help="compile and simulate a dual-rail circuit")
    p_compile.add_argument("--circuit", help="circuit JSON file")
    p_compile.add_argument("--input", help="logical input bitstring")
    p_compile.add_argument("--haar-check", type=int, default=0, metavar="N",
                           help="compile N random single-qubit targets instead")
    p_compile.add_argument("--seed", type=int, default=0, help="seed for --haar-check")
    p_compile.add_argument("--phi", default="", help="exchange phase for --haar-check")
    _add_output(p_compile)
    p_compile.set_defaults(func=_cmd_compile)

    p_cat = sub.add_parser("cat", help="cat state from the mirror at phi = pi")
    p_cat.add_argument("--u", required=True, help="coherent amplitude (complex literal)")
    p_cat.add_argument("--phi", default="pi", help="exchange phase (must be pi)")
    p_cat.add_argument("--nmax", type=int, default=40, help="per-mode Fock cutoff")
    # mirror_cat always checks its fidelity, so cat has no --self-check
    _add_output(p_cat, self_check=False)
    p_cat.set_defaults(func=_cmd_cat)

    # argparse takes a token starting with "-" for an option unless it looks
    # like a plain negative number, so "--theta -pi/2" and "--u -1.2j" would
    # lose their values.  Each subcommand reads every such token that is none
    # of its options as a value; an unknown flag is then left unrecognized and
    # still exits 2.  Set after the options are added, so that none of them
    # counts as a negative number.
    for subparser in sub.choices.values():
        subparser._negative_number_matcher = re.compile("-")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush at
        # interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ArithmeticError as err:
        print(f"anyonlin: self-check failed: {err}", file=sys.stderr)
        return 3
    except (CliError, ValueError) as err:
        print(f"anyonlin: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
