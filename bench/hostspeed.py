"""How fast the host is running right now, from a fixed reference computation.

On the 2-CPU shared machine this benchmark was written on, every process
slowed down and sped up together by up to 2x within seconds, as other
tenants came and went; one solve's wall time swung by 40% between runs. The
reference computation below never calls mfgspectral, so a change to the
package does not move it. Timed densely, it measures the host's speed over
the same stretch of time as the runs: interleaving it with the solver at
sub-second steps cut the quartile spread of 30 s averages from 0.18 to 0.03,
whereas timing it only between 10 s solves did not help at all. So a short
stint of it runs inside every solve, about every ``INTERVAL_S`` seconds
(through a wrapper on ``pdhg.step_z``, recorded as a ``bench.reference``
span); set-up and export samples alternate with it (:func:`interleave`).
Reported times are wall times, less those stints, each stretch scaled by
``REFERENCE_S`` over the reference times measured around it.
"""

from __future__ import annotations

import time

import numpy as np

from mfgspectral import pdhg

SPAN = "bench.reference"
INTERVAL_S = 0.5
GAP = 3
# One reference_work() on that machine when it was quiet: an Intel Xeon
# vCPU, Python 3.11, numpy 2.4 with OpenBLAS.
REFERENCE_S = 0.009

_SMALL = np.linspace(0.0, 1.0, 50)
_TABLE = np.linspace(0.0, 1.0, 400 * 28 * 2).reshape(400, 28, 2)
_COEF = np.linspace(-1.0, 1.0, 28 * 20).reshape(28, 20)


def reference_work() -> float:
    """Fixed work shaped like the solver's mix, without calling mfgspectral.

    Calls on a 50-point array from a Python loop (like the 1d path), then
    the coupling contraction and trigonometry on a table shaped like one
    time slice of the 2d ``grad_all`` result.
    """
    total = 0.0
    for i in range(500):
        total += float(np.sum(np.sin(_SMALL * i)))
    for _ in range(5):
        total += float(np.einsum("qkd,ki->qd", _TABLE, _COEF).sum())
        total += float(np.cos(_TABLE).sum())
    return total


def time_reference(repeats=1) -> float:
    """Mean seconds of ``repeats`` reference computations."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        reference_work()
    return (time.perf_counter() - t0) / repeats


def interleave(task, seconds):
    """Repeat ``task`` for about ``seconds``, at least once, timing the host.

    ``task()`` returns the seconds it measured. ``GAP`` reference
    computations run before the first task and after each, since one alone
    is too short to read the host's speed; every sample is returned as
    ``(seconds, scale)``, scaled by the reference timings on either side.
    """
    before = time_reference(GAP)
    samples = []
    started = time.perf_counter()
    while not samples or time.perf_counter() - started < seconds:
        measured = task()
        after = time_reference(GAP)
        samples.append((measured, REFERENCE_S / (0.5 * (before + after))))
        before = after
    return samples


def install_sampler(tracer):
    """Run one reference stint inside the solve every ``INTERVAL_S`` seconds.

    Install after the layer wrappers, so that a stint is a child of the
    solve span and never inside a layer's span.
    """
    last = [time.perf_counter()]

    def sampling(step_z):
        def sampled(*args, **kwargs):
            if time.perf_counter() - last[0] >= INTERVAL_S:
                with tracer.span(SPAN):
                    reference_work()
                last[0] = time.perf_counter()
            return step_z(*args, **kwargs)

        return sampled

    tracer.replace(pdhg, "step_z", sampling)
