"""Parameter scans, figure presets, file output and the self-check suite."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .entanglement import (
    concurrence_closed_form,
    concurrence_grid,
    concurrence_wootters,
    entanglement_critical_temp,
    entanglement_critical_temp_grid,
)
from .model import ChainParams, Temperature, gibbs_oracle, thermal_coefficients, thermal_state
from .teleportation import (
    correlation_tensor,
    envelope_extremum,
    fidelity_critical_temp,
    fidelity_critical_temp_grid,
    fidelity_grid,
    singlet_fraction_closed_form,
    singlet_fraction_general,
    singlet_fraction_grid,
    singlet_fraction_oracle,
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
    "run_scan",
    "scan_spec_from_json",
    "verify_suite",
    "write_scan",
]

PARAM_NAMES = ("kbT", "B", "B1", "J")
PRESETS = ("fig1a", "fig1b", "fig2", "fig3")

# Emitted for critical-temperature observables when no crossing exists.
SENTINEL = -1.0

_THERMAL = frozenset({"J", "B", "B1", "kbT"})


def _with_sentinel(kernel: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    # Critical-temperature kernels return NaN where no crossing exists.
    def evaluate(*args) -> np.ndarray:
        value = kernel(*args)
        return np.where(np.isnan(value), SENTINEL, value)

    return evaluate


# Observable -> (required parameters, array kernel). Every kernel takes
# broadcasting arrays J, B, B1 and, if it is required, kbT (B is 0 where a
# spec leaves it out), and raises as its scalar twin does at the first
# point that twin rejects.
_TABLE: Dict[str, Tuple[frozenset, Callable[..., np.ndarray]]] = {
    "concurrence": (_THERMAL, concurrence_grid),
    "fidelity": (_THERMAL, fidelity_grid),
    "singletFraction": (_THERMAL, singlet_fraction_grid),
    "criticalTempEntanglement": (
        frozenset({"J", "B1"}),
        _with_sentinel(entanglement_critical_temp_grid),
    ),
    "criticalTempFidelity": (
        frozenset({"J", "B", "B1"}),
        _with_sentinel(fidelity_critical_temp_grid),
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
        if not ax.lo < ax.hi:
            problems.append(f"axis {ax.name!r}: lo must be < hi, got [{ax.lo}, {ax.hi}]")
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
    if spec.fixed.get("J") == 0.0:
        problems.append("J = 0 is outside the closed-form domain")
    if problems:
        raise ScanValidationError("invalid scan spec: " + "; ".join(problems))


def scan_spec_from_json(data: Mapping) -> ScanSpec:
    """Build and validate a ScanSpec from its JSON form.

    Expected shape: {"observable": str, "fixed": {name: value},
    "axes": [{"name", "lo", "hi", "points"}, ...]}.
    """
    try:
        axes = tuple(
            Axis(
                name=str(ax["name"]),
                lo=float(ax["lo"]),
                hi=float(ax["hi"]),
                points=int(ax["points"]),
            )
            for ax in data["axes"]
        )
        spec = ScanSpec(
            observable=str(data["observable"]),
            fixed={str(k): float(v) for k, v in data.get("fixed", {}).items()},
            axes=axes,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScanValidationError(f"malformed scan spec: {exc}") from exc
    validate_scan_spec(spec)
    return spec


def run_scan(spec: ScanSpec) -> List[Tuple[float, ...]]:
    """Rows of (axis values..., observable value), row-major, first axis outermost.

    The observable's kernel evaluates the whole axis grid in one call.
    Critical temperatures are ``SENTINEL`` where no crossing exists.
    """
    validate_scan_spec(spec)
    required, kernel = _TABLE[spec.observable]
    mesh = np.meshgrid(*(ax.grid() for ax in spec.axes), indexing="ij")
    values = dict(spec.fixed, B=spec.fixed.get("B", 0.0))
    values.update((ax.name, grid) for ax, grid in zip(spec.axes, mesh))
    names = ("J", "B", "B1", "kbT") if "kbT" in required else ("J", "B", "B1")
    result = np.broadcast_to(kernel(*(values[name] for name in names)), mesh[0].shape)
    columns = [grid.ravel().tolist() for grid in mesh]
    return list(zip(*columns, result.ravel().tolist()))


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


def _csv_lines(spec: ScanSpec, rows: List[Tuple[float, ...]], prefix: str) -> List[str]:
    # One string per row, in the shortest round-trip form of each float.
    # Each distinct axis value is formatted once per spec, not per cell.
    texts = [{v: repr(v) for v in ax.grid().tolist()} for ax in spec.axes]
    if len(texts) == 1:
        (first,) = texts
        return [f"{prefix}{first[a]},{v!r}" for a, v in rows]
    first, second = texts
    return [f"{prefix}{first[a]},{second[b]},{v!r}" for a, b, v in rows]


def write_scan(
    specs: Sequence[ScanSpec],
    out_path,
    preset_id: Optional[str] = None,
    fmt: str = "csv",
) -> Tuple[Path, Path]:
    """Run the specs and write one table plus a JSON sidecar.

    A single spec yields columns (axis names..., observable). Several specs
    are stacked with a leading ``series`` label column and a final ``value``
    column; their axes must agree. Floats are written in the shortest
    round-trip form, so reruns are byte-identical. Returns the table path
    and the sidecar path (``<out>.meta.json``).
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

    series_rows = [run_scan(spec) for spec in specs]
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        lines = [",".join(header)]
        for label, spec, rows in zip(labels, specs, series_rows):
            lines += _csv_lines(spec, rows, "" if single else label + ",")
        out_path.write_text("\n".join(lines) + "\n")
    else:
        body = {
            "columns": header,
            "rows": [
                list(row) if single else [label, *row]
                for label, rows in zip(labels, series_rows)
                for row in rows
            ],
        }
        out_path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")

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
    name: str
    passed: bool
    worst: float
    tolerance: float


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
            lines.append(f"{verdict} {c.name}: worst={c.worst!r} tolerance={c.tolerance!r}")
        lines.append("all checks passed" if self.passed else "SOME CHECKS FAILED")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "draws": self.draws,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "worst": c.worst,
                    "tolerance": c.tolerance,
                }
                for c in self.checks
            ],
        }


def _draw(rng: np.random.Generator) -> Tuple[ChainParams, Temperature]:
    while True:
        j = float(rng.uniform(-3.0, 3.0))
        if abs(j) >= 0.05:
            break
    params = ChainParams(
        j=j, b=float(rng.uniform(-5.0, 5.0)), b1=float(rng.uniform(-6.0, 6.0))
    )
    return params, Temperature(float(rng.uniform(0.05, 10.0)))


def verify_suite(seed: int = 0, draws: int = 120) -> VerifyReport:
    """Randomized equivalence checks between the closed forms and their oracles.

    Draws parameters from the standard test domain (|J| >= 0.05 in [-3, 3],
    B in [-5, 5], B1 in [-6, 6], kbT in [0.05, 10]) and compares: the
    thermal state against the generic Gibbs route, the concurrence against
    the spin-flip construction, the singlet fraction against both the
    correlation-tensor formula and the direct search, the ordering of the
    two critical temperatures, and the envelope property at four impurity
    fields. Fully deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    samples = [_draw(rng) for _ in range(draws)]

    worst_state = 0.0
    worst_conc = 0.0
    worst_tensor = 0.0
    worst_search = 0.0
    worst_order = -float("inf")
    for params, temp in samples:
        rho = thermal_state(params, temp)
        worst_state = max(worst_state, float(np.max(np.abs(rho - gibbs_oracle(params, temp)))))
        x = thermal_coefficients(params, temp)
        worst_conc = max(
            worst_conc, float(abs(concurrence_closed_form(x) - concurrence_wootters(rho)))
        )
        closed = singlet_fraction_closed_form(params, temp)
        general = singlet_fraction_general(correlation_tensor(rho))
        worst_tensor = max(worst_tensor, abs(closed - general))
        worst_search = max(worst_search, abs(closed - singlet_fraction_oracle(rho)))
        fidelity_tc = fidelity_critical_temp(params)
        if fidelity_tc.exists:
            entanglement_tc = entanglement_critical_temp(params)
            worst_order = max(worst_order, fidelity_tc.value - entanglement_tc.value)

    worst_argmax = 0.0
    worst_peak = 0.0
    for b1 in (0.0, 1.0, 2.0, 4.0):
        point = envelope_extremum(1.0, b1)
        reference = entanglement_critical_temp(ChainParams(1.0, 0.0, b1)).value
        worst_argmax = max(worst_argmax, abs(point.argmax_b + 0.5 * b1))
        worst_peak = max(worst_peak, abs(point.max_kbt - reference))

    checks = (
        CheckResult("state_closed_vs_gibbs", worst_state <= 1e-10, worst_state, 1e-10),
        CheckResult("concurrence_closed_vs_spin_flip", worst_conc <= 1e-10, worst_conc, 1e-10),
        CheckResult("singlet_fraction_closed_vs_tensor", worst_tensor <= 1e-10, worst_tensor, 1e-10),
        CheckResult("singlet_fraction_closed_vs_search", worst_search <= 1e-6, worst_search, 1e-6),
        CheckResult(
            "fidelity_tc_below_entanglement_tc",
            worst_order <= 1e-9,
            worst_order if worst_order > -float("inf") else 0.0,
            1e-9,
        ),
        CheckResult("envelope_argmax_at_minus_half_b1", worst_argmax <= 1e-4, worst_argmax, 1e-4),
        CheckResult("envelope_peak_equals_entanglement_tc", worst_peak <= 1e-6, worst_peak, 1e-6),
    )
    return VerifyReport(seed=seed, draws=draws, checks=checks)
