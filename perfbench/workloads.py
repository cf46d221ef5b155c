"""Workload inputs, request execution and correctness gates.

Shared by the measuring child (``child.py``) and the reference generator
(``make_reference.py``), so a stored reference and a measured run always
execute requests the same way. Library functions are looked up on their
module at call time, never bound here, so the per-layer tracer sees every
call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import math
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

PRESETS = ("fig1a", "fig1b", "fig2", "fig3")
VERIFY_DRAWS = 120
VERIFY_CHECKS = (
    "state_closed_vs_gibbs",
    "concurrence_closed_vs_spin_flip",
    "singlet_fraction_closed_vs_tensor",
    "singlet_fraction_closed_vs_search",
    "fidelity_tc_below_entanglement_tc",
    "envelope_argmax_at_minus_half_b1",
    "envelope_peak_equals_entanglement_tc",
)

# Tolerances of the gates. Closed forms and critical temperatures follow the
# preset-equivalence rule of the roadmap (1e-12 and 1e-10 relative, with the
# same absolute floor for values near zero). The envelope search contracts
# to 1e-6 in the field and its peak is a cusp, so both envelope outputs are
# only defined to that width.
TOL_CLOSED = 1e-12
TOL_CRITICAL = 1e-10
TOL_ENVELOPE = 1e-6
SENTINEL = -1.0

# Requests of one pointwise pass, by kind. No traffic data exists for this
# library, so only one share is measured: of uniform draws from the verify
# domain, 44.05 % have a fidelity crossing (|B + B1/2| < eta), and the
# "crossing" and "nocross" counts keep that split. Points exactly on that
# boundary, kbT = 0 points (the ground_state route) and the three CLI
# commands have no natural share; each has a small fixed count, chosen
# only so that its route runs on every pass while the closed-form routes
# take most of the pass time.
PASS_KINDS = {
    "crossing": 857,
    "nocross": 1088,
    "boundary": 20,
    "ground": 20,
    "cli_compute": 5,
    "cli_critical": 5,
    "cli_envelope": 5,
}
BLOCK = sum(PASS_KINDS.values())
# The warm-up request's point (J, B, B1, kbT): it has a crossing and is in
# no sub-pool.
WARMUP_POINT = (1.0, 0.25, 0.5, 1.5)


class Api:
    """The xxchain modules, imported from the checkout under test."""

    def __init__(self):
        import xxchain
        import xxchain.cli
        import xxchain.entanglement
        import xxchain.model
        import xxchain.numerics
        import xxchain.scan
        import xxchain.teleportation

        self.package = xxchain
        self.model = xxchain.model
        self.entanglement = xxchain.entanglement
        self.teleportation = xxchain.teleportation
        self.numerics = xxchain.numerics
        self.scan = xxchain.scan
        self.cli = xxchain.cli


def close(value, ref, tol) -> bool:
    """Relative agreement with an absolute floor of the same size."""
    if ref is None or value is None:
        return value is ref
    if ref == SENTINEL or value == SENTINEL:
        return value == ref
    return math.isclose(value, ref, rel_tol=tol, abs_tol=tol)


# ---------------------------------------------------------------- figures


def figure_reference():
    """Reference cells per preset: (label, axis values, value, tolerance) rows."""
    reference = {}
    for preset in PRESETS:
        meta = json.loads((DATA / f"{preset}.csv.meta.json").read_text())
        with gzip.open(DATA / f"{preset}.csv.gz", "rt") as handle:
            text = handle.read()
        tolerances = []
        for series in meta["series"]:
            cells = math.prod(axis["points"] for axis in series["axes"])
            critical = series["observable"].startswith("criticalTemp")
            tolerances += [TOL_CRITICAL if critical else TOL_CLOSED] * cells
        rows = _parse_table(text, labelled=len(meta["series"]) > 1)
        if len(rows) != len(tolerances):
            raise ValueError(f"reference {preset}: {len(rows)} rows, sidecar says {len(tolerances)}")
        reference[preset] = (text, [row + (tol,) for row, tol in zip(rows, tolerances)])
    return reference


def _parse_table(text: str, labelled: bool):
    rows = []
    for line in text.splitlines()[1:]:
        cells = line.split(",")
        label = cells.pop(0) if labelled else None
        numbers = tuple(float(c) for c in cells)
        rows.append((label, numbers[:-1], numbers[-1]))
    return rows


def figure_failures(text: str, reference) -> int:
    """Cells of a written preset table that do not match the reference."""
    ref_text, ref_rows = reference
    if text == ref_text:
        return 0
    try:
        rows = _parse_table(text, labelled=ref_rows[0][0] is not None)
    except (ValueError, IndexError):
        return len(ref_rows)
    if len(rows) != len(ref_rows):
        return len(ref_rows)
    failed = 0
    for (label, axes, value), (ref_label, ref_axes, ref_value, tol) in zip(rows, ref_rows):
        if label != ref_label or axes != ref_axes or not close(value, ref_value, tol):
            failed += 1
    return failed


# ---------------------------------------------------------------- verify


def verify_failures(report) -> int:
    """Draws of a verify pass counted failed: all of them unless all 7 checks pass."""
    names = tuple(check.name for check in report.checks)
    if names == VERIFY_CHECKS and all(check.passed for check in report.checks):
        return 0
    return report.draws


# ---------------------------------------------------------------- pointwise


def load_pool():
    with gzip.open(DATA / "pointwise_pool.json.gz", "rt") as handle:
        return json.load(handle)["kinds"]


def cli_argv(kind: str, point):
    j, b, b1, kbt = (repr(float(v)) for v in point)
    if kind == "cli_compute":
        return ["compute", "--j", j, "--b", b, "--b1", b1, "--kbt", kbt]
    if kind == "cli_critical":
        return ["critical", "--kind", "fidelity", "--j", j, "--b", b, "--b1", b1]
    return ["envelope", "--j", j, "--b1", b1]


def make_request(api, kind: str, point):
    """The inputs of one request, built before any timing starts."""
    if kind.startswith("cli_"):
        return kind, cli_argv(kind, point)
    j, b, b1, kbt = point
    return kind, (api.model.ChainParams(j=j, b=b, b1=b1), api.model.Temperature(kbt))


def make_pass(api, pool, seed: int):
    """The BLOCK requests of a pointwise pass, drawn by seed.

    Each sub-pool of the stored pool holds twice its kind's count; a pass
    draws half of it without replacement, so no point repeats within a
    pass, and every request is a new object. The seed also sets the order.
    Returns the requests and, aligned with them, the pool entries holding
    their reference outputs.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    slots = []
    for kind, count in PASS_KINDS.items():
        for index in rng.choice(len(pool[kind]), size=count, replace=False):
            slots.append((kind, pool[kind][int(index)]))
    slots = [slots[int(i)] for i in rng.permutation(len(slots))]
    requests = [make_request(api, kind, entry["in"]) for kind, entry in slots]
    return requests, [entry for _, entry in slots]


def execute(api, request):
    """Run one request; the raw results are summarized outside the timed region."""
    kind, payload = request
    if kind.startswith("cli_"):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = api.cli.main(payload)
        return code, buffer.getvalue()
    params, temp = payload
    rho = api.model.thermal_state(params, temp)
    if kind == "ground":
        concurrence = api.entanglement.concurrence_wootters(rho)
        metrics = None
    else:
        concurrence = api.entanglement.concurrence_closed_form(
            api.model.thermal_coefficients(params, temp)
        )
        metrics = api.teleportation.teleport_metrics(params, temp)
    return (
        rho,
        concurrence,
        metrics,
        api.entanglement.entanglement_critical_temp(params),
        api.teleportation.fidelity_critical_temp(params),
    )


def summarize(kind: str, raw) -> dict:
    """Plain JSON-able outputs of one request, as stored in the reference."""
    if kind.startswith("cli_"):
        code, text = raw
        out = {"exit": code}
        out.update(json.loads(text))
        return out
    rho, concurrence, metrics, entanglement_tc, fidelity_tc = raw
    x_pattern = {(i, i) for i in range(4)} | {(0, 3), (3, 0), (1, 2), (2, 1)}
    off_x = max(abs(complex(rho[i, k])) for i in range(4) for k in range(4) if (i, k) not in x_pattern)
    out = {
        "rho": [float(rho[i, i].real) for i in range(4)] + [float(rho[1, 2].real)],
        "rhoOffX": float(off_x),
        "concurrence": float(concurrence),
        "entanglementTc": entanglement_tc.value,
        "fidelityTc": fidelity_tc.value if fidelity_tc.exists else None,
    }
    if metrics is not None:
        out["singletFraction"] = metrics.singlet_fraction
        out["fidelity"] = metrics.fidelity
    return out


_CLI_TOLERANCE = {
    "concurrence": TOL_CLOSED,
    "singletFraction": TOL_CLOSED,
    "fidelity": TOL_CLOSED,
    "value": TOL_CRITICAL,
    "entanglementTc": TOL_CRITICAL,
    "argmaxB": TOL_ENVELOPE,
    "maxT": TOL_ENVELOPE,
}
# Solver diagnostics may legitimately change with the solver; the gate
# checks the answer, not how it was reached.
_CLI_IGNORED = frozenset({"residual", "iterations", "note"})


def request_ok(kind: str, out: dict, ref: dict) -> bool:
    """Does one request's summarized output match its stored reference?"""
    if kind.startswith("cli_"):
        keys = set(ref) - _CLI_IGNORED
        if set(out) - _CLI_IGNORED != keys:
            return False
        for key in keys:
            tol = _CLI_TOLERANCE.get(key)
            if tol is None:
                if out[key] != ref[key]:
                    return False
            elif not close(out[key], ref[key], tol):
                return False
        return True
    if set(out) != set(ref) or out["rhoOffX"] > TOL_CLOSED:
        return False
    if not all(close(a, b, TOL_CLOSED) for a, b in zip(out["rho"], ref["rho"])):
        return False
    for key in ("concurrence", "singletFraction", "fidelity"):
        if key in ref and not close(out[key], ref[key], TOL_CLOSED):
            return False
    return close(out["entanglementTc"], ref["entanglementTc"], TOL_CRITICAL) and close(
        out["fidelityTc"], ref["fidelityTc"], TOL_CRITICAL
    )
