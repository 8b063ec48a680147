"""Timed calls with a work budget, passes over rounds of items, and judging.

Kept apart from run.py, which pins BLAS threads in the environment when
imported, so that tests can import this without that side effect.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import signal
import statistics
import time

from workloads import NONCONVERGENCE

BUDGET = "budget"
DEADLINE = "deadline"
KNOWN_FAILURES = (NONCONVERGENCE, BUDGET, DEADLINE)
EIGH_BUDGET = 10_000  # symmetric eigendecompositions one call may make
PASS_CAP_S = 90  # a pass starts no call after this much busy time, so that a
                 # much slower commit still ends within 180 s
REFERENCE_S = 0.004  # about reference_time() on the host of the record.json baseline
REFERENCE_REPEATS = 3  # reference times taken before each call
SPEED_WINDOW_S = 2.0   # a call's scale uses the reference times this close to it
SAMPLE_EVERY_S = 0.1   # CPU seconds between reference times taken inside a call


def reference_time() -> float:
    """Time a fixed piece of the two kinds of work idemnorm does: integer
    and bit arithmetic in Python, and small symmetric eigenproblems in
    LAPACK.  On a shared host its time follows the speed the host gives this
    process, which drifted by 20% and more over minutes while the baseline
    was measured."""
    import numpy as np  # late: run.py imports this module before set-up is timed

    eigh = getattr(np.linalg.eigh, "__wrapped__", np.linalg.eigh)  # past eigh_budget
    matrix = np.add.outer(np.arange(24.0), np.arange(24.0)) / 576
    start = time.perf_counter()
    bits = 0
    for a in range(6000):
        bits ^= 1 << ((a + ((a * 2654435761) & 1023)) % 64)
    for _ in range(15):
        eigh(matrix)
    return time.perf_counter() - start


class Sampler:
    """Takes a reference time inside a call every SAMPLE_EVERY_S of CPU
    time, from a SIGPROF handler, and adds up the time the samples took so
    that it can be taken off the call's time."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0

    def __call__(self, signum, frame) -> None:
        start = time.perf_counter()
        self.times.append(reference_time())
        self.spent += time.perf_counter() - start


def host_scale(references: list[float]) -> float:
    """Factor that turns a time measured next to these reference times into
    a time at the reference speed REFERENCE_S."""
    return REFERENCE_S / statistics.median(references)


class CallDeadline(BaseException):
    """Raised by SIGALRM inside a call that overran its deadline.  Derived
    from BaseException so that no `except Exception` in the library can
    swallow it."""


class CallBudget(BaseException):
    """Raised inside a call that asked for more than EIGH_BUDGET symmetric
    eigendecompositions."""


def _on_alarm(signum, frame):
    raise CallDeadline


@contextlib.contextmanager
def eigh_budget(limit: int):
    """Count numpy.linalg.eigh calls and raise CallBudget at call limit + 1.

    One eigendecomposition is one step of the gamma2 solver (a projection
    onto the PSD cone), so this cuts the solver's slow tail after a fixed
    amount of work: which calls are cut depends on the inputs alone, never on
    the speed of the host, unlike a deadline in seconds."""
    import numpy.linalg

    original = numpy.linalg.eigh
    left = limit

    def counted(*args, **kwargs):
        nonlocal left
        left -= 1
        if left < 0:
            raise CallBudget
        return original(*args, **kwargs)

    counted.__wrapped__ = original
    numpy.linalg.eigh = counted
    try:
        yield
    finally:
        numpy.linalg.eigh = original


def timed_call(fn, deadline_s: float, sampler: Sampler | None = None):
    """Run fn() with a deadline and EIGH_BUDGET, and with the sampler, if
    given, installed as the SIGPROF handler.  Returns (result, seconds), the
    seconds without the sampler's; the result is CallDeadline or CallBudget
    for a cut call and the exception object for an error."""
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        if sampler is not None:
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            with eigh_budget(EIGH_BUDGET):
                result = fn()
        except (CallDeadline, CallBudget) as cut:
            result = type(cut)
        except Exception as exc:  # recorded, and counted as a failed call
            result = exc
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CallDeadline:  # the alarm fired just as the call returned
        result = CallDeadline
    elapsed = time.perf_counter() - start
    return result, elapsed - (sampler.spent if sampler is not None else 0.0)


class _Discard(io.TextIOBase):
    def write(self, text: str) -> int:
        return len(text)


def quiet():
    """Swallow what the library prints (report paths, timings on stderr)."""
    stack = contextlib.ExitStack()
    stack.enter_context(contextlib.redirect_stdout(_Discard()))
    stack.enter_context(contextlib.redirect_stderr(_Discard()))
    return stack


def run_pass(rounds, count: int, deadline_s: float, tracer=None) -> tuple[list, float]:
    """Call the first `count` rounds of items, one call after another.
    Returns the records and the busy time (the sum of call durations).

    A record is (item, result, seconds, scale): `scale` times `seconds` is
    the call's time at the reference speed.  REFERENCE_REPEATS reference
    times are taken before each call and after the last one, and one more
    every SAMPLE_EVERY_S inside the call (see Sampler).  A call's scale comes
    from the median of those taken inside it and of those taken less than
    SPEED_WINDOW_S before it started or after it ended.  On a shared host one
    reference time varied by 20% from one sample to the next, too much to
    correct one call by the few samples next to it; but the host's speed
    also drifted by 10% and more from one second to the next, which a median
    over a whole run misses.

    The deadline, a safety net that no call reaches today, holds at the
    reference speed: each call gets `deadline_s` over the scale of the
    reference times just taken.  Once the busy time reaches PASS_CAP_S no
    further call starts.

    With a tracer, each item is called twice in a row, first
    untraced and then with the tracer installed, so that both calls meet the
    same load on the host.  The records then alternate untraced and traced,
    and the busy time counts the untraced calls only.  No reference times
    are taken inside calls then, so that none lands in a span."""
    calls = []
    references = []
    busy = 0.0

    def measure_host() -> list[float]:
        times = [reference_time() for _ in range(REFERENCE_REPEATS)]
        references.append((time.perf_counter(), times))
        return times

    def call(item, traced: bool) -> float:
        scale = host_scale(measure_host())
        sampler = Sampler() if tracer is None else None
        if sampler is not None:
            signal.signal(signal.SIGPROF, sampler)
        start = time.perf_counter()
        with tracer if traced else contextlib.nullcontext():
            result, elapsed = timed_call(item.run, deadline_s / scale, sampler)
        inside = sampler.times if sampler is not None else []
        calls.append((item, result, elapsed, start, time.perf_counter(), inside))
        return elapsed

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    previous_prof = signal.getsignal(signal.SIGPROF)
    try:
        with quiet():
            for items in itertools.islice(rounds, count):
                for item in items:
                    if busy >= PASS_CAP_S:
                        break
                    busy += call(item, False)
                    if tracer is not None:
                        call(item, True)
            measure_host()
    finally:
        signal.signal(signal.SIGALRM, previous)
        signal.signal(signal.SIGPROF, previous_prof)
    records = []
    for item, result, elapsed, start, end, inside in calls:
        near = [t for at, ts in references
                if start - SPEED_WINDOW_S < at < end + SPEED_WINDOW_S for t in ts]
        records.append((item, result, elapsed, host_scale(near + inside)))
    return records, busy


def judge(records) -> list[str]:
    """One status per record: OK, one of KNOWN_FAILURES, or what failed."""
    out = []
    for item, result, *_ in records:
        if result is CallDeadline:
            out.append(DEADLINE)
        elif result is CallBudget:
            out.append(BUDGET)
        elif isinstance(result, Exception):
            out.append(f"raised: {result!r}")
        else:
            out.append(item.check(result))
    return out


def tail(durations: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.  With too
    few samples for that to lie above the median, the highest with one
    sample beyond it: the second-highest, which one stray call cannot move."""
    ordered = sorted(durations)
    n = len(ordered)
    if n < 2:
        return ordered[-1], f"max of {n} call"
    if n - 11 <= n // 2:
        return ordered[-2], f"second-highest of {n} calls"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} calls"
