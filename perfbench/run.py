"""Layered benchmark of pvkit: whole requests untraced, layers traced.

    python3 perfbench/run.py --workload lattice-scan --seed 1 --seconds 30 --trace 0

One client in one process and one thread sends each request after the
previous one has completed (a closed loop).  A request goes in-process
through ``pvkit.cli.report.run`` and ``render_json``, as the ``pvkit`` CLI
would send it.  A pass runs every input of the workload once, in an order
shuffled by ``--seed``.  Passes repeat while another one is expected to
end within ``--seconds``, judging by the median of those done; there is
always at least one.
Every answer is compared with the hand-derived table in ``workloads.py``.

The host's speed drifts by 10-25 % over minutes, so a raw time says as
much about the host as about the program.  Two things take the host out:

* Times are the CPU time of the benchmark's one thread
  (``CLOCK_THREAD_CPUTIME_ID``; the process-wide clock turns coarse while
  ``ITIMER_PROF`` runs).  The program is single-threaded and does no I/O,
  so on a quiet host this equals wall time; unlike wall time it leaves
  out the time the scheduler gave to other processes.
* While a set-up or a request runs, a timer interrupts it every
  ``TICK_S`` of CPU time to time one slice of fixed reference work
  (``reference.py``, which never calls ``pvkit``).  The speed factor of a
  set-up or a request is the mean time of the slices run inside it over
  the slice's nominal time; one too short to hold a slice takes the factor
  of its round (the set-ups before a pass plus the pass).  Every reported
  time is the measured time, less the slices run inside it, divided by
  its speed factor, and so reads as seconds on a host where the slice
  takes ``reference.NOMINAL_S``.  The raw times and the speed factors are
  printed above the result line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones plus the tracing overhead; it also writes the per-layer totals and
every span under ``.perfbench/`` in the checkout.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import signal
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, thread_time

import reference
from layers import Tracer, metric_units
from workloads import WORKLOADS, check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# an input that runs longer is stopped, recorded as a timeout and charged
# this much; the slowest input takes about 5 s on a 2-core machine
INPUT_CAP_S = 20.0
# inputs are no longer started once a run has taken this long, so that a
# run ends within 180 s even if every input hangs; they count as timeouts
RUN_LIMIT_S = 150.0
# set-ups before every pass; spreading them over the run lets their median
# ride out the machine's swings in speed, which last seconds to minutes
SETUPS_PER_PASS = 8
# CPU time between two reference slices; a slice takes about 0.5 ms, so
# the slices cost about 5 % of the run.  The host's speed swings within a
# second, so a short request needs many slices to gauge it.
TICK_S = 0.01

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "input_p50_s": "s",
                    "input_max_s": "s", "ok_frac": "frac",
                    "peak_rss_mb": "MB"}


class InputTimeout(BaseException):
    """Raised by the interval timer; a BaseException, so that no
    ``except Exception`` in the program can swallow it."""


def _on_alarm(signum, frame):
    raise InputTimeout


class sampling:
    """For the length of a block, times one reference slice every
    ``TICK_S`` of the process's CPU time (``ITIMER_PROF``) and, given a
    cap, raises ``InputTimeout`` once that much wall time has passed
    (``ITIMER_REAL``).  ``inside`` is then the CPU time of the block's
    slices and ``speed`` their speed factor."""

    def __init__(self, slices: list, cap: float | None = None):
        self.slices, self.cap = slices, cap
        self.inside = 0.0
        self.speed = None
        self.saved = None

    def _sample(self, signum, frame):
        self.slices.append(reference.time_slice())

    def __enter__(self):
        self.first = len(self.slices)
        self.saved = (signal.signal(signal.SIGPROF, self._sample),
                      signal.signal(signal.SIGALRM, _on_alarm))
        if self.cap is not None:
            signal.setitimer(signal.ITIMER_REAL, self.cap)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    def stop(self):
        """Stop both timers; safe to call again, should the cap's
        exception have hit ``__exit__`` itself."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self.saved is not None:
            signal.signal(signal.SIGPROF, self.saved[0])
            signal.signal(signal.SIGALRM, self.saved[1])
            self.saved = None
        self.inside = sum(self.slices[self.first:])
        self.speed = speed_factor(self.slices[self.first:])


def speed_factor(slices) -> float | None:
    """How many times slower than nominal the slices ran; None without
    slices."""
    if not slices:
        return None
    return statistics.fmean(slices) / reference.NOMINAL_S


@dataclass
class Result:
    label: str
    seconds: float
    status: str          # ok, mismatch, error or timeout
    detail: str | None = None
    text: str | None = None   # the rendered JSON report
    speed: float | None = None   # speed factor of the slices inside it


def setup(workload: str):
    """Import ``pvkit`` afresh and build the workload's requests; the
    first returned value is only ever ``pvkit.cli.report``."""
    for name in [n for n in sys.modules
                 if n == "pvkit" or n.startswith("pvkit.")]:
        del sys.modules[name]
    report = importlib.import_module("pvkit.cli.report")
    items = [(inp, report.Request(command=inp.command, **inp.request))
             for inp in WORKLOADS[workload]]
    return report, items


def run_input(report, inp, req, cap: float = INPUT_CAP_S,
              slices: list | None = None) -> Result:
    """Send one request, timing the CPU time of ``run`` plus
    ``render_json`` less the reference slices run inside it, which go to
    ``slices``."""
    sampler = sampling([] if slices is None else slices, cap)
    try:
        with sampler:
            start = thread_time()
            rep, code = report.run(req)
            text = report.render_json(rep)
            took = thread_time() - start
    except InputTimeout:
        sampler.stop()
        return Result(inp.label, INPUT_CAP_S, "timeout", f"over {cap:.0f} s")
    except Exception as err:  # an input that crashes fails; the run goes on
        return Result(inp.label, thread_time() - start - sampler.inside,
                      "error", repr(err), speed=sampler.speed)
    problem = check(inp, rep, code)
    return Result(inp.label, took - sampler.inside,
                  "ok" if problem is None else "mismatch", problem, text,
                  sampler.speed)


def run_pass(report, items, rng, run_start, tracer=None, tag="",
             slices=None) -> list:
    """Every input once, in shuffled order."""
    results = []
    for inp, req in rng.sample(items, len(items)):
        left = RUN_LIMIT_S - (perf_counter() - run_start)
        if left <= 0:
            results.append(Result(inp.label, INPUT_CAP_S, "timeout",
                                  "run time limit reached"))
            continue
        if tracer is not None:
            tracer.request = f"{tag}{inp.label}"
        results.append(run_input(report, inp, req, min(INPUT_CAP_S, left),
                                 slices))
    return results


def pass_seconds(results) -> float:
    return sum(r.seconds for r in results)


@dataclass
class Round:
    """The set-ups and the pass that follows them, with the reference
    slices timed during both."""

    setups: list     # (CPU time less its slices, speed factor) per set-up
    results: list
    slices: list     # CPU time of each reference slice
    wall: float      # wall time of the whole round

    def scaled(self, seconds: float, speed: float | None) -> float:
        """A time over its own speed factor, or the round's if it has none."""
        return seconds / (speed or speed_factor(self.slices))

    def times(self) -> list:
        return [self.scaled(r.seconds, r.speed) for r in self.results]

    def pass_s(self) -> float:
        return sum(self.times())


def _median_of(dicts) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def end_to_end(rounds) -> dict:
    """The end-to-end metrics, every time scaled by its speed factor."""
    times = [t for rd in rounds for t in rd.times()]
    setups = [rd.scaled(*s) for rd in rounds for s in rd.setups]
    ok = sum(r.status == "ok" for rd in rounds for r in rd.results)
    return {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(rd.pass_s() for rd in rounds),
        "input_p50_s": statistics.median(times),
        "input_max_s": statistics.median(max(rd.times()) for rd in rounds),
        "ok_frac": ok / len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def measure(workload: str, seed: int, seconds: float, traced: bool):
    """Run rounds for ``seconds``; returns (every round, metrics)."""
    rng = random.Random(seed)
    run_start = perf_counter()
    plain, tracers, traced_rounds = [], [], []
    while True:
        number = len(plain) + len(traced_rounds) + 1
        want_traced = traced and len(traced_rounds) < len(plain)
        done = traced_rounds if want_traced else plain
        if done and not _fits(done, perf_counter() - run_start, seconds):
            break
        round_start = perf_counter()
        # one slice up front, so that a round always has a speed factor
        setups, slices = [], [reference.time_slice()]
        for _ in range(SETUPS_PER_PASS):
            with sampling(slices) as sampler:
                start = thread_time()
                report, items = setup(workload)
                took = thread_time() - start
            setups.append((took - sampler.inside, sampler.speed))
        # free the module graphs of the replaced imports, so that they
        # neither count in peak_rss_mb nor leave collection work to a pass
        gc.collect()
        if want_traced:
            tracer = Tracer()
            with tracer:
                results = run_pass(report, items, rng, run_start, tracer,
                                   f"p{number}/", slices)
            tracers.append(tracer)
        else:
            results = run_pass(report, items, rng, run_start, slices=slices)
        rd = Round(setups, results, slices, perf_counter() - round_start)
        (traced_rounds if want_traced else plain).append(rd)
        _print_round(number, rd, "traced" if want_traced else "untraced")
    if not traced:
        return plain, end_to_end(plain)
    layers = _median_of([t.totals() for t in tracers])
    layers["trace.overhead_frac"] = (
        statistics.median(rd.pass_s() for rd in traced_rounds)
        / statistics.median(rd.pass_s() for rd in plain) - 1)
    _write_trace(workload, tracers, layers)
    return plain + traced_rounds, layers


def _fits(done, elapsed, seconds) -> bool:
    """Whether one more round like those done is expected to end in time."""
    return elapsed + statistics.median(rd.wall for rd in done) <= seconds


def _print_round(number, rd, kind):
    print(f"pass {number} ({kind}): {pass_seconds(rd.results):.3f} s CPU, "
          f"speed factor {speed_factor(rd.slices):.3f} over "
          f"{len(rd.slices)} slices, {rd.pass_s():.3f} s scaled")
    for r, scaled in zip(rd.results, rd.times()):
        note = "" if r.status == "ok" else f"  {r.status}: {r.detail}"
        speed = "-" if r.speed is None else f"{r.speed:.3f}"
        print(f"  {r.seconds:8.3f} s CPU  x {speed:>5}  {scaled:8.3f} s  "
              f"{r.label}{note}")


def _write_trace(workload, tracers, layers):
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"layers-{workload}.json", "w") as fh:
        json.dump(layers, fh, indent=2, sort_keys=True)
    with open(OUT / f"spans-{workload}.jsonl", "w") as fh:
        for tracer in tracers:
            tracer.write_spans(fh)


def _summary(rounds):
    totals = sorted(rd.pass_s() for rd in rounds)
    if len(totals) >= 2:
        q1, _, q3 = statistics.quantiles(totals, n=4, method="inclusive")
        spread = f", quartiles {q1:.3f} .. {q3:.3f} s"
    else:
        spread = ""
    print(f"pass_s (scaled) median {statistics.median(totals):.3f} s over "
          f"{len(totals)} passes{spread}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pvkit" / "__init__.py").is_file():
        print(f"no pvkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    rounds, metrics = measure(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    flat = [r for rd in rounds for r in rd.results]
    if not args.trace:
        _summary(rounds)
    units = END_TO_END_UNITS if not args.trace else metric_units()
    failed = sum(r.status != "ok" for r in flat)
    print(json.dumps({
        "correct": not any(r.status in ("mismatch", "error") for r in flat),
        "attempted": len(flat),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
