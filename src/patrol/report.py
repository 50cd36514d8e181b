"""Solver output summary shared by all solve entry points."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .evaluate import LatencyReport, max_weighted_latency, validate_speed
from .instance import Instance
from .rationals import format_fraction, to_float
from .schedule import Schedule


@dataclass(frozen=True)
class SolveReport:
    """A solved instance: the schedule plus measured quality numbers.

    measured_latency is the evaluator's max weighted latency under the
    instance's original weights; ratio is measured / lower_bound with
    the 0/0 case read as 1.
    """

    schedule: Schedule
    L_accepted: Fraction
    lower_bound: Fraction
    latency: LatencyReport
    algo: str
    k: int

    @property
    def measured_latency(self) -> Fraction:
        return self.latency.max_weighted

    @property
    def ratio(self) -> Optional[Fraction]:
        if self.lower_bound > 0:
            return self.measured_latency / self.lower_bound
        return Fraction(1) if self.measured_latency == 0 else None

    def to_json_dict(self, seconds: float) -> dict:
        ratio = self.ratio
        return {
            "algo": self.algo,
            "k": self.k,
            "L_accepted": format_fraction(self.L_accepted),
            "lower_bound": format_fraction(self.lower_bound),
            "measured": format_fraction(self.measured_latency),
            "ratio": None if ratio is None else to_float(ratio),
            "latency": self.latency.to_json_dict(),
            "seconds": seconds,
        }


def build_report(
    schedule: Schedule,
    instance: Instance,
    algo: str,
    k: int,
    L_accepted: Fraction,
    lower_bound: Fraction,
) -> SolveReport:
    """Measure a schedule with the exact evaluator and wrap it up.

    Every solver output must pass speed validation; a violation here is
    a solver bug, not an input problem.  validate_speed and
    max_weighted_latency share the schedule's evaluation through the
    metric's memo, so each track's loop is read once for both, and a
    solver that has checked its schedule's visits already reuses them.
    """
    violations = validate_speed(schedule, instance.metric)
    if violations:
        raise AssertionError(f"solver produced an invalid schedule: {violations[0]}")
    return SolveReport(
        schedule=schedule,
        L_accepted=L_accepted,
        lower_bound=lower_bound,
        latency=max_weighted_latency(schedule, instance),
        algo=algo,
        k=k,
    )
