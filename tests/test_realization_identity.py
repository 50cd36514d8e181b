"""The integer realization, reversal and lower bound of the line-weighted
solve against frozen copies of their Fraction originals.

The originals replayed an accepted DP state into (time, coordinate)
Fractions (_realize_track), mirrored them into the periodic schedule
(cyclify) and bounded the latency with one min_interval_cover per weight
class (line_lower_bound).  The program now runs all three on ints in one
time unit; the schedules it writes and the bound it reports must be the
originals' to the byte.
"""

import random
from fractions import Fraction

from patrol import time_window
from patrol.generate import generate_instance
from patrol.instance import line_instance, weight_classes
from patrol.line_uniform import min_interval_cover
from patrol.schedule import CoordPos, RobotTrack, Schedule, dump_schedule, stationary_track
from patrol.time_window import (
    AtomicRep,
    StandardSchedule,
    _candidates,
    canonical_path_order,
    cyclify,
    line_lower_bound,
    solve_line_weighted,
)

# --- the frozen Fraction originals ----------------------------------------------


def reference_realize_track(slots, coords, L):
    """Waypoints (time, coordinate) over [0, span*L] for one robot."""
    duration = L * len(slots)
    visit_idx = [i for i, rep in enumerate(slots) if rep.visits]
    if not visit_idx:
        return ((Fraction(0), min(coords)),)
    if L == 0:
        return ((Fraction(0), coords[slots[visit_idx[0]].start]),)
    waypoints = []

    def put(t, x):
        if waypoints:
            t_prev, x_prev = waypoints[-1]
            if t == t_prev:
                if x != x_prev:
                    raise AssertionError("conflicting waypoint at one time")
                return
            if t < t_prev:
                raise AssertionError("realized motion went back in time")
        waypoints.append((t, x))

    put(Fraction(0), coords[slots[visit_idx[0]].start])
    for where, idx in enumerate(visit_idx):
        rep = slots[idx]
        t = idx * L
        put(t, coords[rep.start])
        order = canonical_path_order(coords, rep.start, rep.end, rep.left, rep.right)
        x = coords[order[0]]
        for target in order[1:]:
            cx = coords[target]
            if cx != x:
                t += abs(cx - x)
                put(t, cx)
                x = cx
        if where + 1 < len(visit_idx):
            depart_target = coords[slots[visit_idx[where + 1]].start]
            arrive = visit_idx[where + 1] * L
            dist = abs(depart_target - x)
            if dist > 0:
                put(arrive - dist, x)
                put(arrive, depart_target)
                x = depart_target
    if waypoints[-1][0] > duration:
        raise AssertionError("realized motion overruns the schedule duration")
    return tuple(waypoints)


def reference_cyclify(std):
    """The standard schedule, then its time reversal, period 2D."""
    D = std.duration
    tracks = []
    for wps in std.robot_waypoints:
        if D == 0 or len(wps) == 1:
            tracks.append(stationary_track(CoordPos(wps[0][1])))
            continue
        pts = list(wps)
        for t, x in reversed(wps):
            mirrored = 2 * D - t
            if mirrored <= pts[-1][0]:  # seam waypoint already present
                continue
            if mirrored >= 2 * D:  # the wrap leg reproduces the first leg
                continue
            pts.append((mirrored, x))
        tracks.append(RobotTrack(2 * D, tuple((t, CoordPos(x)) for t, x in pts)))
    return Schedule(tuple(tracks))


def reference_realize(node, instance, L):
    pool = time_window._summary_pool(instance).pool
    slots = node.slots()
    return StandardSchedule(L, node.level, tuple(
        reference_realize_track([pool[slot[r]] for slot in slots], instance.metric.coords, L)
        for r in range(len(node.ids))))


def reference_line_lower_bound(instance, k):
    if instance.n <= k:
        return Fraction(0)
    coords = instance.metric.coords
    groups = [members for _, members in weight_classes(instance).classes]
    groups.append(tuple(instance.sites))
    best = Fraction(0)
    for members in groups:
        pts = sorted(coords[s] for s in members)
        val = min_interval_cover(pts, k).max_length * min(instance.weights[s] for s in members)
        best = max(best, val)
    return best


# --- instances --------------------------------------------------------------------


def fractional_instances(seed, count, n_max, wmax):
    """Line instances on a small grid (coincident coordinates are common):
    one denominator per instance of 1, 2, 3, 7 or 100, or each coordinate
    its own of 2, 3, 7 and 100."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, n_max)
        if rng.random() < 0.5:
            den = rng.choice((1, 2, 3, 7, 100))
            coords = [Fraction(rng.randint(0, 9), den) for _ in range(n)]
        else:
            coords = [Fraction(rng.randint(-9, 9), rng.choice((2, 3, 7, 100))) for _ in range(n)]
        yield line_instance(coords, [rng.randint(1, wmax) for _ in range(n)])


def sweep_cases():
    """(instance, k): generated line-weighted instances for k = 1..3 and
    fractional ones."""
    cases = [(generate_instance("line-weighted", n, seed, wmax=wmax), k)
             for k, n_max in ((1, 6), (2, 4), (3, 3))
             for wmax in (1, 2, 4) for n in range(1, n_max + 1) for seed in (1, 2)]
    cases += [(inst, 1) for inst in fractional_instances(5, 40, 5, 4)]
    cases += [(inst, 2) for inst in fractional_instances(6, 30, 3, 4)]
    cases += [(inst, 3) for inst in fractional_instances(7, 10, 3, 2)]
    return cases


# --- tests --------------------------------------------------------------------------


def test_realization_and_reversal_match_fraction_reference():
    """At the accepted window and the two candidates above it, the
    realized schedule (_realize, cyclify) writes the original's bytes, and
    at the accepted one so does the schedule the solve returns."""
    seen = {"stationary": 0, "m=0": 0, "q>1": 0, "coincident": 0, "mixed dens": 0}
    for inst, k in sweep_cases():
        coords = inst.metric.coords
        if max(coords) == min(coords):
            continue
        report = solve_line_weighted(inst, k)
        windows = [Fraction(*pair) for pair in _candidates(inst, k) if pair[0] > 0]
        at = windows.index(report.L_accepted)
        for L in windows[at:at + 3]:
            node = time_window._levels(inst, k, L)[-1][0]
            want = reference_cyclify(reference_realize(node, inst, L))
            std = time_window._realize(node, inst, L)
            assert std == reference_realize(node, inst, L), (inst, k, L)
            assert dump_schedule(cyclify(std)) == dump_schedule(want), (inst, k, L)
            if L == report.L_accepted:
                assert dump_schedule(report.schedule) == dump_schedule(want), (inst, k)
            seen["stationary"] += any(len(t.waypoints) == 1 for t in want.robots)
            seen["m=0"] += node.level == 0
            seen["q>1"] += L.denominator > 1
            seen["coincident"] += len(set(coords)) < inst.n
            seen["mixed dens"] += len({c.denominator for c in coords}) > 2
    assert all(count > 20 for count in seen.values()), seen


def test_cyclify_matches_reference_on_hand_schedules():
    """Reversal of hand-built standard schedules: stationary robots, a
    zero duration, a waypoint at the duration (the seam) and times over
    denominators the window does not share."""
    L = Fraction(7, 3)
    stds = [
        StandardSchedule(L, 1, (((Fraction(0), Fraction(5)),),)),
        StandardSchedule(Fraction(0), 2, (((Fraction(0), Fraction(1, 2)),),
                                          ((Fraction(0), Fraction(3)),))),
        StandardSchedule(L, 1, (
            ((Fraction(0), Fraction(1)), (Fraction(1, 5), Fraction(6, 5)),
             (2 * L, Fraction(6, 5))),
            ((Fraction(0), Fraction(2, 7)), (Fraction(3, 2), Fraction(2, 7)),
             (Fraction(4), Fraction(-1, 2)))))
    ]
    for std in stds:
        assert dump_schedule(cyclify(std)) == dump_schedule(reference_cyclify(std))


def test_realize_track_at_a_window_of_one_unit():
    """At L * D = 1 the robot still travels between its visiting windows,
    here to a site whose index is past the duration."""
    slots = [AtomicRep(0, 0, 0, 0, 0, 2, 1), AtomicRep(3, 3, 3, 3, 0, 2, 1)]
    coords = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    got = time_window._realize_track(slots, coords, Fraction(1))
    assert got == reference_realize_track(slots, coords, Fraction(1)) and len(got) == 2


def test_line_lower_bound_matches_interval_cover_reference():
    """The integer bound equals the min_interval_cover bound on random line
    instances: n <= k, coincident coordinates, one weight class,
    fractional coordinates over mixed denominators and classes whose
    weights differ in denominator, where the smallest weight is found on
    ints."""
    rng = random.Random(26)
    kinds = {"n<=k": 0, "coincident": 0, "one class": 0, "fractional": 0, "class dens": 0}
    for trial in range(300):
        n = rng.randint(1, 9)
        k = rng.randint(1, 4)
        grid = rng.choice((3, 20, 1000))
        coords = [Fraction(rng.randint(-grid, grid), rng.choice((1, 2, 3, 7, 100)))
                  for _ in range(n)]
        weights = ([rng.choice((1, "1/2", "3/4", 5))] * n if trial % 3 == 0
                   else [rng.choice((1, "1/2", "3/4", 5, "7/3")) for _ in range(n)])
        inst = line_instance(coords, weights)
        got = line_lower_bound(inst, k)
        assert got == reference_line_lower_bound(inst, k), (coords, weights, k)
        kinds["n<=k"] += n <= k
        kinds["coincident"] += len(set(coords)) < n
        kinds["one class"] += len(weight_classes(inst).classes) == 1 and n > k
        kinds["fractional"] += any(c.denominator > 1 for c in coords) and n > k
        kinds["class dens"] += n > k and any(
            len({inst.weights[s].denominator for s in members}) > 1
            for _, members in weight_classes(inst).classes)
    assert all(count > 20 for count in kinds.values()), kinds
