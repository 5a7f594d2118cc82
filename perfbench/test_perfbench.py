"""Checks of the benchmark itself; run with ``python3 -m pytest perfbench``.

The heavy fixture runs each workload three times (one untraced pass and
two traced passes in different orders), about two minutes in all.
"""

from __future__ import annotations

import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run as bench
from layers import COUNTED, TIMED, Tracer, metric_names
from workloads import WORKLOADS

sys.path.insert(0, str(bench.SRC))

COUNT_KEYS = [k for k in metric_names() if not k.endswith((".s", ".self_s"))]


def _attributes():
    """Identity of every attribute of every loaded pvkit module and of the
    classes the tracer patches."""
    owners = [m for name, m in sys.modules.items()
              if name == "pvkit" or name.startswith("pvkit.")]
    for targets in COUNTED.values():
        owners += [getattr(sys.modules[m], c) for m, c, _ in targets]
    return {(id(o), attr): value for o in owners
            for attr, value in list(vars(o).items())}


def _handlers():
    return (signal.getsignal(signal.SIGALRM), signal.getsignal(signal.SIGPROF))


def _timers_stopped():
    return (signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
            and signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0))


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def passes(request):
    report, items = bench.setup(request.param)
    start = bench.perf_counter()
    plain = bench.run_pass(report, items, random.Random(1), start)
    traced = []
    for seed in (1, 2):
        tracer = Tracer()
        with tracer:
            results = bench.run_pass(report, items, random.Random(seed),
                                     start, tracer)
        traced.append((results, tracer.totals()))
    return plain, traced


def test_traced_reports_are_byte_identical(passes):
    plain, traced = passes
    untraced = {r.label: r for r in plain}
    for r in traced[0][0]:
        assert r.status == "ok", (r.label, r.detail)
        assert untraced[r.label].status == "ok", (r.label, r.detail)
        assert r.text == untraced[r.label].text, r.label


def test_two_traced_runs_count_alike(passes):
    _, ((_, first), (_, second)) = passes
    assert {k: first[k] for k in COUNT_KEYS} == {k: second[k]
                                                 for k in COUNT_KEYS}
    assert first["cli.run.calls"] == len(passes[0])


def test_tracer_restores_every_attribute_even_after_a_timeout():
    report, items = bench.setup("lattice-scan")
    before = _attributes()
    handlers = _handlers()
    inp, req = items[0]
    tracer = Tracer()
    with tracer:
        assert _attributes() != before
        result = bench.run_input(report, inp, req, cap=0.2)
    assert result.status == "timeout"
    assert result.seconds == bench.INPUT_CAP_S
    assert _timers_stopped()
    assert _handlers() == handlers
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    for targets in TIMED.values():
        for module, attr in targets:
            assert not hasattr(getattr(sys.modules[module], attr),
                               "__wrapped__")


def test_self_time_subtracts_children_and_nesting_is_timed_once():
    tracer = Tracer()
    tracer.spans = [
        ("cli.run", 0.0, 10.0, -1, "r"),
        ("engine.build_pv", 1.0, 7.0, 0, "r"),
        ("engine.build_pv", 2.0, 4.0, 1, "r"),
        ("solve.solve_mult", 4.0, 5.0, 1, "r"),
        ("solve.solve_mult", 8.0, 9.0, 0, "r"),
    ]
    t = tracer.totals()
    assert t["cli.run.self_s"] == 10.0 - 6.0 - 1.0
    assert t["engine.build_pv.calls"] == 2
    assert t["engine.build_pv.s"] == 6.0
    assert t["engine.build_pv.self_s"] == (6.0 - 3.0) + 2.0
    assert t["solve.solve_mult.calls.other"] == 2


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(Path(bench.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_times_are_scaled_by_their_own_or_else_the_round_speed_factor():
    results = [bench.Result("a", 3.0, "ok", speed=1.5),
               bench.Result("b", 1.0, "ok")]
    slow = bench.Round([(0.2, None), (0.3, 3.0)], results,
                       [2 * reference.NOMINAL_S] * 3, 5.0)
    assert slow.times() == [2.0, 0.5]
    metrics = bench.end_to_end([slow])
    assert metrics["pass_s"] == 2.5
    assert metrics["setup_s"] == 0.1
    assert metrics["input_max_s"] == 2.0
    assert metrics["input_p50_s"] == 1.25


def test_the_timer_takes_slices_and_their_time_is_left_out():
    report, items = bench.setup("lattice-scan")
    slices = []
    inp, req = items[0]
    result = bench.run_input(report, inp, req, slices=slices)
    assert result.status == "ok"
    assert len(slices) >= 10
    assert _timers_stopped()
