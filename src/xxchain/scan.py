"""Parameter scans, figure presets, file output and the self-check suite."""

from __future__ import annotations

import itertools
import json
import math
import os
import stat
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .entanglement import (
    _concurrence,
    concurrence_closed_form,
    concurrence_grid,
    concurrence_wootters,
    entanglement_critical_temp,
    entanglement_critical_temp_grid,
)
from .model import (
    _x_state_stack,
    gibbs_oracle_grid,
    gibbs_weights_grid,
    thermal_coefficients,
)
from .numerics import _larger
from .teleportation import (
    ENVELOPE_ARGMAX_TOL,
    ENVELOPE_PEAK_TOL,
    _envelope_agreement,
    _singlet_fraction,
    correlation_tensor,
    fidelity_critical_temp,
    fidelity_critical_temp_grid,
    fidelity_grid,
    singlet_fraction_closed_form,
    singlet_fraction_general,
    singlet_fraction_grid,
    singlet_fraction_oracle,
    teleport_metrics,
)

__all__ = [
    "Axis",
    "CheckResult",
    "OBSERVABLES",
    "PRESETS",
    "SENTINEL",
    "ScanSpec",
    "ScanValidationError",
    "VerifyReport",
    "figure_preset",
    "scan_spec_from_json",
    "verify_suite",
    "write_scan",
]

PARAM_NAMES = ("kbT", "B", "B1", "J")
PRESETS = ("fig1a", "fig1b", "fig2", "fig3")

# Emitted for critical-temperature observables when no crossing exists.
SENTINEL = -1.0

_THERMAL = frozenset({"J", "B", "B1", "kbT"})


# Observable -> (required parameters, array kernel, scalar route). Every
# kernel takes broadcasting arrays J, B, B1 and, if it is required, kbT (B is
# 0 where a spec leaves it out), and raises as its scalar route does at the
# first point that route rejects. The routes take ChainParams, and Temperature
# where kbT is required; a critical temperature's gives the CriticalResult
# whose value, NaN where none exists, the kernel holds.
_TABLE: Dict[str, Tuple[frozenset, Callable[..., np.ndarray], Callable[..., object]]] = {
    "concurrence": (
        _THERMAL,
        concurrence_grid,
        lambda params, temp: concurrence_closed_form(thermal_coefficients(params, temp)),
    ),
    "fidelity": (_THERMAL, fidelity_grid, lambda params, temp: teleport_metrics(params, temp).fidelity),
    "singletFraction": (_THERMAL, singlet_fraction_grid, singlet_fraction_closed_form),
    "criticalTempEntanglement": (
        frozenset({"J", "B1"}),
        entanglement_critical_temp_grid,
        entanglement_critical_temp,
    ),
    "criticalTempFidelity": (
        frozenset({"J", "B", "B1"}),
        fidelity_critical_temp_grid,
        fidelity_critical_temp,
    ),
}
OBSERVABLES = tuple(_TABLE)
# Accepted but unused, mirroring the command line: the entanglement critical
# temperature does not depend on B.
_TOLERATED = {"criticalTempEntanglement": frozenset({"B"})}


class ScanValidationError(ValueError):
    """A scan specification is inconsistent; the message lists every offender."""


@dataclass(frozen=True)
class Axis:
    """One swept parameter: inclusive endpoints, evenly spaced points."""

    name: str
    lo: float
    hi: float
    points: int

    def grid(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)


@dataclass(frozen=True)
class ScanSpec:
    """An observable, fixed parameter values, and one or two axes."""

    observable: str
    fixed: Mapping[str, float]
    axes: Tuple[Axis, ...]


def validate_scan_spec(spec: ScanSpec) -> None:
    problems: List[str] = []
    if spec.observable not in OBSERVABLES:
        problems.append(f"unknown observable {spec.observable!r}")
    if not 1 <= len(spec.axes) <= 2:
        problems.append(f"need 1 or 2 axes, got {len(spec.axes)}")
    axis_names = [ax.name for ax in spec.axes]
    for ax in spec.axes:
        if ax.name not in PARAM_NAMES:
            problems.append(f"unknown axis name {ax.name!r}")
        if ax.points < 2:
            problems.append(f"axis {ax.name!r}: points must be >= 2, got {ax.points}")
        ends = f"[{ax.lo}, {ax.hi}]"
        # np.linspace warns on an infinite end or an overflowing span.
        if not (math.isfinite(ax.lo) and math.isfinite(ax.hi)):
            problems.append(f"axis {ax.name!r}: lo and hi must be finite, got {ends}")
        elif not ax.lo < ax.hi:
            problems.append(f"axis {ax.name!r}: lo must be < hi, got {ends}")
        elif not math.isfinite(ax.hi - ax.lo):
            problems.append(f"axis {ax.name!r}: the span hi - lo overflows, got {ends}")
    if len(set(axis_names)) != len(axis_names):
        problems.append(f"duplicate axis names {axis_names}")
    for name in spec.fixed:
        if name not in PARAM_NAMES:
            problems.append(f"unknown fixed parameter {name!r}")
    overlap = set(axis_names) & set(spec.fixed)
    if overlap:
        problems.append(f"parameters both fixed and swept: {sorted(overlap)}")
    if spec.observable in _TABLE:
        required = _TABLE[spec.observable][0]
        provided = set(axis_names) | set(spec.fixed)
        missing = required - provided
        if missing:
            problems.append(f"missing parameters for {spec.observable}: {sorted(missing)}")
        unused = (
            (provided & set(PARAM_NAMES))
            - required
            - _TOLERATED.get(spec.observable, frozenset())
        )
        if unused:
            problems.append(f"parameters not used by {spec.observable}: {sorted(unused)}")
    if problems:
        raise ScanValidationError("invalid scan spec: " + "; ".join(problems))


def _point_count(value) -> int:
    # int() would truncate 2.9 to 2 and take "3" or true.
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise ValueError(f"points must be an integer, got {value!r}")
    return value


def _number(value, name: str) -> float:
    # float() would take "0.5" and true.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def scan_spec_from_json(data: Mapping) -> ScanSpec:
    """Build and validate a ScanSpec from its JSON form.

    Expected shape: {"observable": str, "fixed": {name: value},
    "axes": [{"name", "lo", "hi", "points"}, ...]}, with the values and
    the axis ends numbers and ``points`` a whole number.
    """
    try:
        axes = tuple(
            Axis(
                name=str(ax["name"]),
                lo=_number(ax["lo"], "lo"),
                hi=_number(ax["hi"], "hi"),
                points=_point_count(ax["points"]),
            )
            for ax in data["axes"]
        )
        fixed = data.get("fixed", {})
        if not isinstance(fixed, Mapping):
            raise TypeError(f"fixed must be an object, got {fixed!r}")
        spec = ScanSpec(
            observable=str(data["observable"]),
            fixed={str(k): _number(v, str(k)) for k, v in fixed.items()},
            axes=axes,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScanValidationError(f"malformed scan spec: {exc}") from exc
    validate_scan_spec(spec)
    return spec


def _evaluate(specs: Sequence[ScanSpec]) -> List[np.ndarray]:
    """Observable values of each spec on its axis mesh, first axis outermost.

    Every spec is validated before any kernel runs. Each maximal run of
    consecutive specs with one observable is one kernel call on their
    concatenated parameter columns. The kernels are elementwise, so every
    value is bit-identical to a call per spec, and the first rejected cell
    in spec order still raises its scalar twin's error. A critical
    temperature, the observables without kbT, reads SENTINEL where none exists.
    """
    for spec in specs:
        validate_scan_spec(spec)
    results: List[np.ndarray] = []
    for observable, group in itertools.groupby(specs, key=lambda s: s.observable):
        required, kernel, _ = _TABLE[observable]
        names = ("J", "B", "B1", "kbT") if "kbT" in required else ("J", "B", "B1")
        shapes = []
        columns: Dict[str, List[np.ndarray]] = {name: [] for name in names}
        for spec in group:
            mesh = np.meshgrid(*(ax.grid() for ax in spec.axes), indexing="ij")
            values = dict(spec.fixed, B=spec.fixed.get("B", 0.0))
            values.update((ax.name, grid) for ax, grid in zip(spec.axes, mesh))
            shapes.append(mesh[0].shape)
            for name in names:
                columns[name].append(np.broadcast_to(values[name], mesh[0].shape).ravel())
        flat = kernel(*(np.concatenate(columns[name]) for name in names))
        if "kbT" not in required:
            flat = np.where(np.isnan(flat), SENTINEL, flat)
        ends = np.cumsum([math.prod(shape) for shape in shapes])
        results += (
            part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)
        )
    return results


def figure_preset(preset_id: str) -> Tuple[ScanSpec, ...]:
    """Scan specs reproducing the library's reference figures.

    fig1a/fig1b: concurrence over temperature against the uniform or the
    impurity field. fig2: fidelity against temperature for four field
    settings. fig3: both critical temperatures against the impurity field,
    the fidelity one for five uniform fields.
    """
    if preset_id == "fig1a":
        return (
            ScanSpec(
                "concurrence",
                {"J": 1.0, "B1": 0.0},
                (Axis("kbT", 0.02, 2.0, 81), Axis("B", -2.0, 2.0, 81)),
            ),
        )
    if preset_id == "fig1b":
        return (
            ScanSpec(
                "concurrence",
                {"J": 1.0, "B": 0.0},
                (Axis("kbT", 0.02, 2.0, 81), Axis("B1", -2.0, 2.0, 81)),
            ),
        )
    if preset_id == "fig2":
        cases = ((-1.0, 2.0), (0.0, 2.0), (-0.5, 0.0), (0.0, 0.0))
        return tuple(
            ScanSpec(
                "fidelity",
                {"J": 1.0, "B": b, "B1": b1},
                (Axis("kbT", 0.02, 3.0, 300),),
            )
            for b, b1 in cases
        )
    if preset_id == "fig3":
        axis = Axis("B1", 0.0, 6.0, 121)
        specs = [ScanSpec("criticalTempEntanglement", {"J": 1.0}, (axis,))]
        for b in (0.0, -1.0, -2.0, -3.0, -4.0):
            specs.append(ScanSpec("criticalTempFidelity", {"J": 1.0, "B": b}, (axis,)))
        return tuple(specs)
    raise ValueError(f"unknown preset {preset_id!r}; choose from {PRESETS}")


def _series_labels(specs: Sequence[ScanSpec], default: str) -> List[str]:
    # Deterministic labels built from whatever distinguishes the specs.
    if len(specs) == 1:
        return [default]
    observables = {s.observable for s in specs}
    keys = sorted({k for s in specs for k in s.fixed})
    varying = [k for k in keys if len({s.fixed.get(k) for s in specs}) > 1]
    labels = []
    for s in specs:
        parts = [s.observable] if len(observables) > 1 else []
        parts += [f"{k}={s.fixed[k]:g}" for k in varying if k in s.fixed]
        labels.append(" ".join(parts) if parts else default)
    return labels


def _spelled(values: np.ndarray, spell: Callable[[float], str]) -> Iterable[str]:
    # repr of each float, and spell where it is not finite; spell must agree
    # with repr on finite floats.
    flat = values.ravel()
    numbers = flat.tolist()
    texts = map(repr, numbers)
    odd = np.flatnonzero(~np.isfinite(flat)).tolist()
    if odd:
        texts = list(texts)
        for index in odd:
            texts[index] = spell(numbers[index])
    return texts


def _axis_texts(
    specs: Sequence[ScanSpec], sep: str, spell: Callable[[float], str]
) -> List[List[List[str]]]:
    """Each spec's axis values as text, each followed by ``sep``.

    Every distinct axis grid is spelled once, as ``_spelled`` spells it,
    and the specs that sweep it share that list. Grids are told apart by
    their bytes, so an axis from -0.0 is not taken for one from 0.0.
    """
    spelled: Dict[bytes, List[str]] = {}
    per_spec = []
    for spec in specs:
        texts = []
        for ax in spec.axes:
            grid = ax.grid()
            key = grid.tobytes()
            if key not in spelled:
                spelled[key] = list(map(str.__add__, _spelled(grid, spell), itertools.repeat(sep)))
            texts.append(spelled[key])
        per_spec.append(texts)
    return per_spec


def _cell_pieces(
    texts: List[List[str]], values: np.ndarray, head: str, spell: Callable[[float], str]
) -> Iterator[str]:
    """Text pieces of each cell, row-major, first axis outermost.

    A cell reads ``head``, each axis value's text from ``_axis_texts``,
    then the value, spelled as ``_spelled`` spells it. The axis texts are
    repeated through ``itertools``, and every step runs in ``map``, ``zip``
    or ``itertools``: joining the pieces is the only per-cell work.
    """
    texts = [list(map(head.__add__, texts[0])), *texts[1:]]
    if len(texts) == 2:
        outer, inner = texts
        repeated = map(itertools.repeat, outer, itertools.repeat(len(inner)))
        texts = [itertools.chain.from_iterable(repeated), inner * len(outer)]
    return itertools.chain.from_iterable(zip(*texts, _spelled(values, spell)))


def write_scan(
    specs: Sequence[ScanSpec],
    out_path,
    preset_id: Optional[str] = None,
    fmt: str = "csv",
) -> Tuple[Path, Optional[Path]]:
    """Run the specs and write one table plus a JSON sidecar.

    A single spec yields columns (axis names..., observable). Several specs
    are stacked with a leading ``series`` label column and a final ``value``
    column; their axes must agree. Floats are written in the shortest
    round-trip form, so reruns are byte-identical. A JSON table holds
    ``{"columns", "rows"}`` in the layout of ``json.dumps(indent=2,
    sort_keys=True)``. Both formats are joined from iterators over the
    value arrays, each distinct axis spelled once per call, with no
    per-cell Python. Returns the table path and the sidecar path
    (``<out>.meta.json``). Where ``out_path`` already exists as anything
    but a regular file, such as a FIFO, a device or a link like
    ``/dev/stdout`` (not followed), the table is written through it alone
    and the sidecar path is None.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    specs = list(specs)
    if not specs:
        raise ValueError("no scan specs given")
    axis_names = [ax.name for ax in specs[0].axes]
    for spec in specs[1:]:
        if [ax.name for ax in spec.axes] != axis_names:
            raise ValueError("specs written together must sweep the same axes")
    labels = _series_labels(specs, default=preset_id or "scan")
    single = len(specs) == 1
    if single:
        header = axis_names + [specs[0].observable]
    else:
        header = ["series"] + axis_names + ["value"]

    series_values = _evaluate(specs)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    regular = not os.path.lexists(out_path) or stat.S_ISREG(out_path.lstat().st_mode)
    # Each cell starts by closing the row before it: a newline, or in the
    # JSON layout, which puts each row item on its own line, a bracket and
    # a comma that the first row drops.
    close = "\n    ],"
    if fmt == "csv":
        spell, quote, sep, lead = repr, str, ",", "\n"
    else:
        spell, quote, sep = json.dumps, json.dumps, ",\n      "
        lead = close + "\n    [\n      "
    heads = [lead + ("" if single else quote(label) + sep) for label in labels]
    cells = "".join(
        itertools.chain.from_iterable(
            _cell_pieces(texts, values, head, spell)
            for texts, values, head in zip(_axis_texts(specs, sep, spell), series_values, heads)
        )
    )
    if fmt == "csv":
        text = ",".join(header) + cells + "\n"
    else:
        rows = "[" + cells[len(close) :] + "\n    ]\n  ]"
        columns = ",\n    ".join(map(json.dumps, header))
        text = '{\n  "columns": [\n    ' + columns + '\n  ],\n  "rows": ' + rows + "\n}\n"
    out_path.write_text(text)
    if not regular:
        return out_path, None

    sidecar = {
        "preset": preset_id,
        "version": __version__,
        "columns": header,
        "sentinel": {
            "value": SENTINEL,
            "meaning": "no critical temperature exists at these parameters",
        },
        "series": [
            {
                "label": label,
                "observable": spec.observable,
                "fixed": dict(sorted(spec.fixed.items())),
                "axes": [
                    {"name": ax.name, "lo": ax.lo, "hi": ax.hi, "points": ax.points}
                    for ax in spec.axes
                ],
            }
            for label, spec in zip(labels, specs)
        ],
    }
    sidecar_path = Path(str(out_path) + ".meta.json")
    sidecar_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return out_path, sidecar_path


@dataclass(frozen=True)
class CheckResult:
    """One check of ``verify_suite``: its verdict, worst value and where that was.

    ``exercised`` counts the cases the check ran on: every draw for the
    per-draw checks, the draws with a fidelity crossing for the ordering
    check, and the four impurity fields for the envelope checks.
    ``worst_at`` holds the parameters of the worst case (``J, B, B1, kbT``
    for a draw, ``J, B1`` for an envelope search), or None when no case
    ran, in which case ``worst`` is 0.
    """

    name: str
    passed: bool
    worst: float
    tolerance: float
    exercised: int
    worst_at: Optional[Dict[str, float]]


@dataclass(frozen=True)
class VerifyReport:
    """Result of the randomized cross-check suite."""

    seed: int
    draws: int
    checks: Tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format_text(self) -> str:
        lines = [f"self-check suite: seed={self.seed} draws={self.draws}"]
        for c in self.checks:
            verdict = "PASS" if c.passed else "FAIL"
            line = (
                f"{verdict} {c.name}: worst={c.worst!r} tolerance={c.tolerance!r} "
                f"exercised={c.exercised}"
            )
            if c.worst_at:
                line += " at " + " ".join(f"{k}={v!r}" for k, v in c.worst_at.items())
            lines.append(line)
        lines.append("all checks passed" if self.passed else "SOME CHECKS FAILED")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "draws": self.draws,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
        }


def _draws(seed: int, count: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The first ``count`` draws ``(j, b, b1, kbt)`` of ``seed``, as arrays.

    A draw takes ``j = uniform(-3, 3)`` until ``|j| >= 0.05``, then
    ``b = uniform(-5, 5)``, ``b1 = uniform(-6, 6)`` and
    ``kbt = uniform(0.05, 10)``, each from the next double ``u`` of
    ``default_rng(seed)`` as ``lo + (hi - lo) * u``, which is how numpy
    evaluates ``uniform``. The doubles are taken as one block; each
    rejected ``j`` shifts every later draw by one double.
    """
    rng = np.random.default_rng(seed)
    doubles = rng.random(4 * count)
    starts = 4 * np.arange(count)
    while True:
        short = (starts[-1] + 4 - doubles.size) if count else 0
        if short > 0:
            doubles = np.concatenate([doubles, rng.random(short)])
        rejected = np.abs(_uniform(doubles[starts], -3.0, 3.0)) < 0.05
        if not rejected.any():
            break
        starts[np.argmax(rejected) :] += 1
    u = doubles[starts[:, None] + np.arange(4)]
    return (
        _uniform(u[:, 0], -3.0, 3.0),
        _uniform(u[:, 1], -5.0, 5.0),
        _uniform(u[:, 2], -6.0, 6.0),
        _uniform(u[:, 3], 0.05, 10.0),
    )


def _uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # What Generator.uniform(lo, hi) returns for the double u it draws.
    return lo + (hi - lo) * u


def _worst(
    name: str, errors: np.ndarray, tolerance: float, cases: Mapping[str, np.ndarray]
) -> CheckResult:
    # The largest error and its case; a NaN error counts as the worst and fails.
    if errors.size == 0:
        return CheckResult(name, True, 0.0, tolerance, 0, None)
    index = int(errors.argmax())
    worst = float(errors[index])
    where = {key: float(values[index]) for key, values in cases.items()}
    return CheckResult(name, worst <= tolerance, worst, tolerance, errors.size, where)


def verify_suite(seed: int = 0, draws: int = 120) -> VerifyReport:
    """Randomized equivalence checks between the closed forms and their oracles.

    Draws parameters from the standard test domain (|J| >= 0.05 in [-3, 3],
    B in [-5, 5], B1 in [-6, 6], kbT in [0.05, 10]) and compares: the
    thermal state against the generic Gibbs route, the concurrence against
    the spin-flip construction, the singlet fraction against both the
    correlation-tensor formula and the largest eigenvalue in the magic
    basis (the check keeps its name ``singlet_fraction_closed_vs_search``),
    the ordering of the two critical temperatures where a fidelity crossing
    exists, and the envelope property at four impurity fields. Fully
    deterministic for a fixed seed.

    All draws are evaluated as arrays. One ``gibbs_weights_grid`` call
    gives the state stack, the concurrence and the singlet fraction, with
    the bits of ``thermal_state_grid``, ``concurrence_grid`` and
    ``singlet_fraction_grid``; the two ``*_critical_temp_grid`` solvers
    give the thresholds. Each oracle runs with one batched call on the
    whole stack of states (``gibbs_oracle_grid``, and ``concurrence_wootters``,
    ``correlation_tensor``, ``singlet_fraction_general`` and
    ``singlet_fraction_oracle``, which accept stacks). Only the four
    envelope searches run one at a time. Every check reports how many
    cases it ran on and its worst case. Raises ``ValueError`` for
    ``seed < 0`` or ``draws < 0``.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if draws < 0:
        raise ValueError(f"draws must be >= 0, got {draws}")
    j, b, b1, kbt = _draws(seed, draws)
    point = {"J": j, "B": b, "B1": b1, "kbT": kbt}
    weights = gibbs_weights_grid(j, b, b1, kbt)
    rho = _x_state_stack(weights)
    closed = _singlet_fraction(weights, _larger)
    state_error = np.abs(rho - gibbs_oracle_grid(j, b, b1, kbt)).max(axis=(-2, -1))
    fidelity_tc = fidelity_critical_temp_grid(j, b, b1)
    crossing = ~np.isnan(fidelity_tc)
    order = fidelity_tc[crossing] - entanglement_critical_temp_grid(j, b, b1)[crossing]
    checks = [
        _worst("state_closed_vs_gibbs", state_error, 1e-10, point),
        _worst(
            "concurrence_closed_vs_spin_flip",
            np.abs(_concurrence(weights, np.sqrt, _larger) - concurrence_wootters(rho)),
            1e-10,
            point,
        ),
        _worst(
            "singlet_fraction_closed_vs_tensor",
            np.abs(closed - singlet_fraction_general(correlation_tensor(rho))),
            1e-10,
            point,
        ),
        _worst(
            "singlet_fraction_closed_vs_search",
            np.abs(closed - singlet_fraction_oracle(rho)),
            1e-10,
            point,
        ),
        _worst(
            "fidelity_tc_below_entanglement_tc",
            order,
            1e-9,
            {key: values[crossing] for key, values in point.items()},
        ),
    ]

    fields = np.array([0.0, 1.0, 2.0, 4.0])
    argmax_error, peak_error = np.array([_envelope_agreement(1.0, b1)[2:] for b1 in fields.tolist()]).T
    envelope = {"J": np.ones_like(fields), "B1": fields}
    checks += [
        _worst("envelope_argmax_at_minus_half_b1", argmax_error, ENVELOPE_ARGMAX_TOL, envelope),
        _worst("envelope_peak_equals_entanglement_tc", peak_error, ENVELOPE_PEAK_TOL, envelope),
    ]
    return VerifyReport(seed=seed, draws=draws, checks=tuple(checks))
