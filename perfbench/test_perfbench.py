"""The benchmark's own test: a short run of every workload, and planted faults.

    python3 -m pytest perfbench -q

The short run executes each distinct query of a workload once (no copies)
and checks it.  The planted-fault tests feed the checks an output with one
generator dropped, or one Hilbert coefficient changed, and expect a report.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# The two command-line faults the cli workload keeps until they are mended.
KNOWN_FAULTS = {"hilbert x1 --expand-to -5", "closure x1,,x2"}


def distinct(queries):
    seen = {}
    for q in queries:
        seen.setdefault(q.label, q)
    return list(seen.values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_short_run_passes_its_checks(name):
    queries = distinct(workloads.build(name, seed=7))
    outputs, latencies, _ = run.timed_phase(queries, 1, run.call_with_budget)
    failed, wrong, notes = run.check_outputs(queries, outputs)
    assert wrong == 0, notes
    expected_failures = KNOWN_FAULTS if name == "cli" else set()
    assert failed == len(expected_failures), notes
    assert {n.split(": ")[1] for n in notes} == expected_failures
    assert len(latencies) == len(queries)


def test_query_lists_repeat_for_a_seed_and_keep_their_size():
    for name in workloads.WORKLOADS:
        first = [q.label for q in workloads.build(name, 3)]
        assert first == [q.label for q in workloads.build(name, 3)]
        other = [q.label for q in workloads.build(name, 4)]
        assert len(first) == len(other) >= 100


def _query(name, prefix):
    return next(q for q in workloads.build(name, 1) if q.label.startswith(prefix))


def _verdict(query, output):
    faulty = workloads.Query(query.label, lambda: output, query.normal, query.check)
    return run.check_outputs([faulty], [faulty.call()])


def test_dropped_generator_is_reported():
    query = _query("closure", "w_closure (4,3,2,2,1,1)")
    ideal = query.call()
    lib = workloads.library()
    gens = sorted(ideal.gens, key=lambda m: m.exponents)
    assert _verdict(query, ideal)[:2] == (0, 0)
    dropped = lib.MonomialIdeal(ideal.nvars, gens[1:])
    assert _verdict(query, dropped)[:2] == (0, 1)


def test_changed_hilbert_coefficient_is_reported():
    lib = workloads.library()
    for prefix in ("hilbert_series (5, 4, 3, 2, 1)", "hilbert_series np-f"):
        query = _query("series", prefix)
        series = query.call()
        assert _verdict(query, series)[:2] == (0, 0)
        numerator = dict(series.numerator)
        top = max(numerator)
        numerator[top] += 1
        changed = lib.HilbertSeries(series.weights, numerator, series.terms)
        assert _verdict(query, changed)[:2] == (0, 1)


def test_checks_reject_wrong_answers_directly():
    w = (3, 2, 1)
    gens = sorted(checks.closure_gens([(1, 1, 2)], w))
    with pytest.raises(checks.CheckFailure):
        checks.check_closure(gens[1:], [(1, 1, 2)], w)
    with pytest.raises(checks.CheckFailure):
        checks.check_stability(False, gens, w)
    not_principal = [checks.parse_monomial(t, 3)
                     for t in "x^2, x*y, x*z, y^3, y^2*z, y*z^2, z^4".split(",")]
    with pytest.raises(checks.CheckFailure):
        checks.check_weight_vector((3, 2, 1), not_principal, 3, 4)
    with pytest.raises(checks.CheckFailure):
        checks.check_weight_vector(None, checks.closure_gens([(0, 2, 1)], (3, 2, 1)), 3, 4)
    with pytest.raises(checks.CheckFailure):
        checks.check_standard_power_closure(checks.degree_d_monomials(4, 3)[1:], 4, 3)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closure", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
