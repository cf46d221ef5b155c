"""Command line interface: observables, critical temperatures, scans, self checks."""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .entanglement import entanglement_critical_temp
from .model import BASIS_LABELS, ChainParams, Temperature, thermal_state
from .numerics import BracketError
from .scan import _TABLE, PRESETS, figure_preset, scan_spec_from_json, verify_suite, write_scan
from .teleportation import (
    ENVELOPE_ARGMAX_TOL,
    ENVELOPE_PEAK_TOL,
    _envelope_agreement,
    fidelity_critical_temp,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3


# The scalar observables of compute: the rows of the scan table that need
# kbT, by option value (singletFraction as singlet-fraction) to table name.
_THERMAL_ROWS = {
    re.sub("[A-Z]", lambda letter: "-" + letter.group().lower(), name): name
    for name, (required, _, _) in _TABLE.items()
    if "kbT" in required
}


def _dump(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_compute(args) -> int:
    params = ChainParams(j=args.j, b=args.b, b1=args.b1)
    temp = Temperature(args.kbt)
    if args.observable == "state":
        if args.format == "csv":
            raise ValueError("the state observable is only available as JSON")
        rho = thermal_state(params, temp)
        _dump(
            {
                "basis": list(BASIS_LABELS),
                "real": rho.real.tolist(),
                "imag": rho.imag.tolist(),
            }
        )
        return EXIT_OK
    names = _THERMAL_ROWS.values() if args.observable is None else [_THERMAL_ROWS[args.observable]]
    values = {name: _TABLE[name][2](params, temp) for name in names}
    if args.format == "csv":
        print("observable,value")
        for name in sorted(values):
            print(f"{name},{values[name]!r}")
    else:
        _dump(values)
    return EXIT_OK


def _cmd_critical(args) -> int:
    params = ChainParams(j=args.j, b=0.0 if args.b is None else args.b, b1=args.b1)
    if args.kind == "entanglement":
        if args.b is not None:
            print(
                "note: the entanglement critical temperature does not depend on --b",
                file=sys.stderr,
            )
        result = entanglement_critical_temp(params)
    else:
        result = fidelity_critical_temp(params)
    payload = result._asdict()
    if not result.exists:
        payload["value"] = None
    if args.format == "csv":
        print("value,exists,residual")
        value = "" if payload["value"] is None else repr(payload["value"])
        print(f"{value},{payload['exists']},{payload['residual']!r}")
    else:
        _dump(payload)
    return EXIT_OK


def _cmd_scan(args) -> int:
    if args.preset:
        specs = figure_preset(args.preset)
        preset_id = args.preset
    else:
        with open(args.spec) as handle:
            specs = (scan_spec_from_json(json.load(handle)),)
        preset_id = None
    table_path, sidecar_path = write_scan(
        specs, args.out, preset_id=preset_id, fmt=args.format
    )
    # A stream, such as /dev/stdout, carries the table alone.
    if sidecar_path is not None:
        print(table_path)
        print(sidecar_path)
    return EXIT_OK


def _cmd_envelope(args) -> int:
    point, reference, argmax_error, peak_error = _envelope_agreement(args.j, args.b1)
    _dump(
        {
            "argmaxB": point.argmax_b,
            "maxT": point.max_kbt,
            "entanglementTc": reference,
            "agree": argmax_error <= ENVELOPE_ARGMAX_TOL and peak_error <= ENVELOPE_PEAK_TOL,
        }
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify_suite(seed=args.seed, draws=args.draws)
    if args.format == "json":
        _dump(report.to_dict())
    else:
        print(report.format_text())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xxchain",
        description=(
            "Thermal entanglement and teleportation quality of a two-spin XX "
            "chain with a magnetic impurity."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="observables of the thermal state")
    compute.add_argument("--j", type=float, required=True, help="exchange coupling")
    compute.add_argument("--b", type=float, required=True, help="uniform field")
    compute.add_argument("--b1", type=float, required=True, help="impurity field")
    compute.add_argument("--kbt", type=float, required=True, help="thermal energy k_B T")
    compute.add_argument(
        "--observable",
        choices=[*_THERMAL_ROWS, "state"],
        help="single observable; default prints all scalar ones",
    )
    compute.add_argument("--format", choices=["json", "csv"], default="json")
    compute.set_defaults(func=_cmd_compute)

    critical = sub.add_parser("critical", help="critical temperatures")
    critical.add_argument("--j", type=float, required=True)
    critical.add_argument("--b1", type=float, required=True)
    critical.add_argument("--b", type=float, default=None, help="uniform field (fidelity kind only)")
    critical.add_argument("--kind", choices=["entanglement", "fidelity"], required=True)
    critical.add_argument("--format", choices=["json", "csv"], default="json")
    critical.set_defaults(func=_cmd_critical)

    scan = sub.add_parser("scan", help="write a parameter scan table")
    target = scan.add_mutually_exclusive_group(required=True)
    target.add_argument("--preset", choices=list(PRESETS), help="built-in figure preset")
    target.add_argument("--spec", help="path to a JSON scan spec")
    scan.add_argument("--out", required=True, help="output table path")
    scan.add_argument("--format", choices=["csv", "json"], default="csv")
    scan.set_defaults(func=_cmd_scan)

    envelope = sub.add_parser(
        "envelope", help="field maximizing the fidelity critical temperature"
    )
    envelope.add_argument("--j", type=float, required=True)
    envelope.add_argument("--b1", type=float, required=True)
    envelope.set_defaults(func=_cmd_envelope)

    verify = sub.add_parser("verify", help="run the randomized self checks")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--draws", type=int, default=120)
    verify.add_argument("--format", choices=["text", "json"], default="text")
    verify.set_defaults(func=_cmd_verify)

    return parser


# argparse reads only "-1" or "-.5" as negative numbers, and takes "-1e-3" or
# "-inf" after a float option (or an abbreviation of --kbt) for an option name;
# main joins such a value to its option, as "--b=-1e-3", which it reads as one.
_FLOAT_OPTION = re.compile(r"--(j|b|b1|k|kb|kbt)")
_NEGATIVE_VALUE = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)


def _joined_values(argv) -> list:
    joined = []
    for token in argv:
        if joined and _FLOAT_OPTION.fullmatch(joined[-1]) and _NEGATIVE_VALUE.match(token):
            token = joined.pop() + "=" + token
        joined.append(token)
    return joined


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # One parser per process: building the tree costs about 15 times a
    # parse_args on it, and parse_args returns a new namespace every call.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(_joined_values(sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args)
        # Flushed here, so that a reader that closed the pipe early is met below.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe early, as head does: end quietly. What is
        # still buffered goes to the null device, so the interpreter's last
        # flush cannot fail on it.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except BracketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
