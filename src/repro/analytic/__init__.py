"""Closed-form (simulation-free) evaluation of deterministic cells.

For noise-free configurations the DES is a deterministic
composition of LogGP-class costs, so its timeline — and therefore the
paper's four metrics — can be computed directly from ``NetworkParams`` +
``PtpBenchmarkConfig`` in microseconds.  :func:`evaluate_analytic`
produces a ``PtpResult`` marked ``source="analytic"``;
:func:`analytic_supported` says whether a configuration qualifies (and
why not).  Cross-validation against the simulator lives in
``tests/test_analytic.py`` and is gated at :data:`ANALYTIC_RTOL`.
"""

from .model import (ANALYTIC_RTOL, analytic_supported, evaluate_analytic,
                    evaluate_timeline)

__all__ = [
    "ANALYTIC_RTOL",
    "analytic_supported",
    "evaluate_analytic",
    "evaluate_timeline",
]
