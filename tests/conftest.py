import dataclasses

import pytest

from qpwave import kam


@pytest.fixture
def fail_certificate(monkeypatch):
    """Returns a function that makes one per-step certificate fail in every
    following KamEngine.step: the solve's homological_residual, the flow's
    symplectic_defect or P_norm, or the remainder push's
    series_truncation_spec_ok."""

    def inject(gate: str):
        if gate == "homological_residual":
            monkeypatch.setattr(kam, "homological_residual", lambda *a, **k: 1e-9)
        elif gate in ("symplectic_defect", "P_norm"):
            flow_transform = kam.flow_transform
            failed = {"symplectic_defect": 1e-9, "P_norm": 1.0}[gate]
            monkeypatch.setattr(kam, "flow_transform", lambda *a, **k: dataclasses.replace(
                flow_transform(*a, **k), **{gate: failed}))
        else:
            push_remainder = kam.push_remainder

            def failing_push(*a, **k):
                pieces, diag = push_remainder(*a, **k)
                return pieces, dataclasses.replace(diag, spec_truncation_ok=False)

            monkeypatch.setattr(kam, "push_remainder", failing_push)

    return inject
