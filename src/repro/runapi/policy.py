"""Per-call execution policy for ``run()``.

A :class:`RunPolicy` carries how one run should execute beyond its
cycle budget: today that is the wall-clock budget.  ``RunPolicy()`` is
a no-op, so callers pass one only when they bound a run::

    sim.run(until=200_000, policy=RunPolicy(wall_timeout_s=30.0))

Fast-forward mode and the watchdog window are configured on the
simulation itself (``CoSimulation(fast_forward=..., deadlock_window=...)``).
Policies are frozen (hashable, safe to share across calls and lanes).
"""

from __future__ import annotations

from dataclasses import dataclass

#: historical default cycle budget of ``CoSimulation.run``
DEFAULT_UNTIL = 50_000_000


@dataclass(frozen=True)
class RunPolicy:
    """How one ``run()`` call should execute: ``wall_timeout_s``
    overrides the ambient :func:`repro.cosim.environment.run_timeout`
    budget for the duration of the call only."""

    wall_timeout_s: float | None = None

    def budget(self, until: int | None) -> int:
        """The effective cycle budget for a run: the explicit
        ``until``, else the historical 50M-cycle ceiling."""
        return DEFAULT_UNTIL if until is None else until
