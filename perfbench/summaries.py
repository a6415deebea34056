"""Correctness checks on qpwave outputs: the summary tolerance contract and
the per-step certificates.

The contract: every field of a summary, ``timings`` excluded, matches the
reference value to 1e-9 relative or 1e-12 absolute, whichever is looser.
Strings, booleans, ``None`` and the structure itself must match exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

RTOL = 1e-9
ATOL = 1e-12
SYMPLECTIC_TOL = 1e-12
IGNORED_KEYS = frozenset({"timings"})


@dataclass
class Comparison:
    """Outcome of comparing a summary against its reference.

    ``worst_ratio`` is the largest |new - ref| / max(RTOL |ref|, ATOL) over all
    numeric fields (inf for a structural or exact-field mismatch); a
    comparison passes iff it is <= 1.
    """

    worst_path: str = ""
    worst_ratio: float = 0.0
    fields: int = 0
    mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.worst_ratio <= 1.0

    def describe(self) -> str:
        where = self.worst_path or "<none>"
        return f"worst field {where}: {self.worst_ratio:.3g} of tolerance ({self.fields} fields)"


def strip_timings(value):
    """Copy of a summary with every ``timings`` key removed, at any depth."""
    if isinstance(value, dict):
        return {k: strip_timings(v) for k, v in value.items() if k not in IGNORED_KEYS}
    if isinstance(value, list):
        return [strip_timings(v) for v in value]
    return value


def canonical(value) -> str:
    """Exact text form of a stripped summary, for bit-identity checks."""
    return json.dumps(strip_timings(value), sort_keys=True, allow_nan=True)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number_ratio(ref: float, new: float) -> float:
    if math.isnan(ref) or math.isnan(new):
        return 0.0 if math.isnan(ref) and math.isnan(new) else math.inf
    if math.isinf(ref) or math.isinf(new):
        return 0.0 if ref == new else math.inf
    return abs(new - ref) / max(RTOL * abs(ref), ATOL)


def compare_summaries(ref, new) -> Comparison:
    """Apply the tolerance contract to two JSON-like trees."""
    out = Comparison()

    def note(path: str, ratio: float, why: str | None = None):
        out.fields += 1
        if ratio > out.worst_ratio or not out.worst_path:
            out.worst_ratio, out.worst_path = ratio, path
        if ratio > 1.0:
            out.mismatches.append(f"{path}: {why or f'{ratio:.3g} of tolerance'}")

    def walk(a, b, path: str):
        if isinstance(a, dict) and isinstance(b, dict):
            for k in sorted(set(a) | set(b)):
                if k in IGNORED_KEYS:
                    continue
                sub = f"{path}.{k}" if path else str(k)
                if k not in a or k not in b:
                    note(sub, math.inf, "missing in " + ("new" if k in a else "reference"))
                else:
                    walk(a[k], b[k], sub)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                note(path, math.inf, f"length {len(b)} != reference {len(a)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{i}]")
        elif _is_number(a) and _is_number(b):
            note(path, _number_ratio(float(a), float(b)))
        else:
            note(path, 0.0 if (type(a) is type(b) and a == b) else math.inf,
                 f"{b!r} != reference {a!r}")

    walk(ref, new, "")
    return out


def certificate_failures(summary: dict, residual_tol: float) -> list:
    """Names of the certificates a converged summary fails, one per miss."""
    misses = []
    for rec in summary.get("steps", []):
        m = rec.get("m")
        cd = rec.get("consistency_defect")
        if cd is None or not cd <= residual_tol:
            misses.append(f"step {m}: consistency_defect {cd} > residual_tol {residual_tol}")
        if not rec["symplectic_defect"] <= SYMPLECTIC_TOL:
            misses.append(f"step {m}: symplectic_defect {rec['symplectic_defect']} "
                          f"> {SYMPLECTIC_TOL}")
        if not rec["P_norm"] <= rec["P_bound"]:
            misses.append(f"step {m}: P_norm {rec['P_norm']} > P_bound {rec['P_bound']}")
        if rec["series_truncation_spec_ok"] is not True:
            misses.append(f"step {m}: series_truncation_spec_ok is false")
    verify = summary.get("verify")
    if verify is not None and verify["conjugacy"]["within_tolerance"] is not True:
        misses.append("verify: conjugacy not within tolerance")
    return misses
