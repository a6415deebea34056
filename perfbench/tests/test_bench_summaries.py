import math

from summaries import canonical, certificate_failures, compare_summaries, strip_timings


def test_looser_of_relative_and_absolute():
    # large values: 1e-9 relative is the looser bound
    assert compare_summaries({"x": 1e6}, {"x": 1e6 + 9e-4}).ok
    assert not compare_summaries({"x": 1e6}, {"x": 1e6 + 2e-3}).ok
    # tiny values: 1e-12 absolute is the looser bound
    assert compare_summaries({"x": 1e-15}, {"x": 9e-13}).ok
    assert not compare_summaries({"x": 1e-15}, {"x": 2e-12}).ok
    # ints and floats compare as numbers
    assert compare_summaries({"x": 3}, {"x": 3.0}).ok


def test_timings_are_ignored_at_any_depth():
    ref = {"a": 1.0, "timings": {"total": 1.0}, "steps": [{"timings": 5.0, "b": 2.0}]}
    new = {"a": 1.0, "timings": {"total": 99.0, "extra": 1}, "steps": [{"b": 2.0}]}
    assert compare_summaries(ref, new).ok
    assert strip_timings(ref) == {"a": 1.0, "steps": [{"b": 2.0}]}
    assert canonical(ref) == canonical(new)


def test_nested_lists_and_lengths():
    ref = {"m": [[1.0, 2.0], [3.0, {"k": 4.0}]]}
    assert compare_summaries(ref, {"m": [[1.0, 2.0], [3.0, {"k": 4.0}]]}).ok
    cmp = compare_summaries(ref, {"m": [[1.0, 2.0], [3.0, {"k": 4.1}]]})
    assert not cmp.ok and cmp.worst_path == "m[1][1].k"
    cmp = compare_summaries(ref, {"m": [[1.0, 2.0]]})
    assert not cmp.ok and cmp.worst_path == "m" and math.isinf(cmp.worst_ratio)


def test_none_strings_and_bools_compare_exactly():
    assert compare_summaries({"consistency_defect": None}, {"consistency_defect": None}).ok
    assert not compare_summaries({"consistency_defect": None}, {"consistency_defect": 0.0}).ok
    assert not compare_summaries({"consistency_defect": 1e-16}, {"consistency_defect": None}).ok
    assert not compare_summaries({"ok": True}, {"ok": 1}).ok
    assert not compare_summaries({"status": "converged"}, {"status": "resonant_tau"}).ok
    assert not compare_summaries({"a": 1}, {"a": 1, "b": 2}).ok


def test_worst_field_is_reported():
    ref = {"a": 1.0, "b": [1.0, 2.0], "c": {"d": 10.0}}
    new = {"a": 1.0 + 5e-10, "b": [1.0, 2.0 + 1.8e-9], "c": {"d": 10.0}}
    cmp = compare_summaries(ref, new)
    assert cmp.ok
    assert cmp.worst_path == "b[1]"
    assert math.isclose(cmp.worst_ratio, 0.9, rel_tol=1e-3)
    assert cmp.fields == 4
    assert "b[1]" in cmp.describe()


def _step(**over):
    rec = {"m": 0, "consistency_defect": 1e-16, "symplectic_defect": 4e-16,
           "P_norm": 0.01, "P_bound": 0.03, "series_truncation_spec_ok": True}
    rec.update(over)
    return rec


def test_certificates():
    good = {"steps": [_step(), _step(m=1)],
            "verify": {"conjugacy": {"within_tolerance": True}}}
    assert certificate_failures(good, 1e-10) == []
    bad = {"steps": [_step(consistency_defect=None), _step(m=1, P_norm=0.05),
                     _step(m=2, symplectic_defect=1e-11),
                     _step(m=3, series_truncation_spec_ok=False)],
           "verify": {"conjugacy": {"within_tolerance": False}}}
    misses = certificate_failures(bad, 1e-10)
    assert len(misses) == 5
    assert any("step 0: consistency_defect None" in m for m in misses)
    assert any("step 1: P_norm" in m for m in misses)
    assert certificate_failures({"steps": [_step(consistency_defect=2e-10)]}, 1e-10)
