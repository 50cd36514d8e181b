import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd

from patrol import time_window
from patrol.evaluate import max_weighted_latency, validate_speed
from patrol.generate import generate_instance
from patrol.instance import Instance, line_instance, round_weights_dyadic
from patrol.line_uniform import solve_line_uniform
from patrol.schedule import dump_schedule
from patrol.time_window import (
    AtomicRep,
    _decide,
    _levels,
    candidate_window_lengths,
    concat,
    construct_schedule,
    cyclify,
    enumerate_atomics,
    solve_line_weighted,
    type_two,
    validate_standard,
)
from conftest import node_reps, realize_node
from scenarios import cooperative_line_instance
from test_time_window_integer import rank_cases

TWO_THIRDS = Fraction(2, 3)


def atomic(s, e, l, r):
    return AtomicRep(s, e, l, r, 0, 2, 1)


# --- atomic enumeration -----------------------------------------------------


def test_enumerate_single_site():
    inst = line_instance([4], [1])
    reps = enumerate_atomics(inst, Fraction(1, 100))
    assert atomic(0, 0, 0, 0) in reps
    assert type_two() in reps


def test_enumerate_two_sites_threshold():
    D = Fraction(6)
    inst = line_instance([0, D], [1, 1])
    wide = enumerate_atomics(inst, 3 * D)
    assert atomic(0, 1, 0, 1) in wide
    tight = enumerate_atomics(inst, 3 * D - 1)
    assert atomic(0, 1, 0, 1) not in tight


def test_enumerate_tiny_window_only_single_site_tuples():
    inst = line_instance([0, 5, 9], [1, 1, 1])
    reps = enumerate_atomics(inst, Fraction(1, 2))
    for rep in reps:
        if rep.visits:
            assert rep.start == rep.end == rep.left == rep.right


def test_enumerate_count_bound():
    inst = line_instance([0, 1, 2], [1, 1, 1])
    reps = enumerate_atomics(inst, Fraction(100))
    assert len(reps) <= 3**4 + 1


def test_canonical_path_shorter_order():
    inst = line_instance([0, 1, 5], [1, 1, 1])
    # start 1, end 1, extremes 0 and 5: left-first = 1+5+4, right-first = 4+5+1;
    # an atomic fits when 3 * tour <= L
    assert atomic(1, 1, 0, 2) in enumerate_atomics(inst, Fraction(30))
    assert atomic(1, 1, 0, 2) not in enumerate_atomics(inst, Fraction(30) - Fraction(1, 10**9))


# --- concatenation rules ----------------------------------------------------


def test_concat_travel_travel():
    inst = line_instance([0, 1], [1, 1])
    got = concat(type_two(), type_two(), Fraction(5), inst.metric.coords)
    assert got == AtomicRep(None, None, None, None, 0, 6, 2)


def test_concat_visit_then_visit_feasibility():
    D = Fraction(9)
    inst = line_instance([0, D], [1, 1])
    a, b = atomic(0, 0, 0, 0), atomic(1, 1, 1, 1)
    # travel budget is t_after + t_before = 2L/3
    assert concat(a, b, Fraction(27, 2), inst.metric.coords) is not None
    assert concat(a, b, Fraction(27, 2) - 1, inst.metric.coords) is None
    joined = concat(a, b, Fraction(27, 2), inst.metric.coords)
    assert (joined.start, joined.end) == (0, 1)
    assert (joined.left, joined.right) == (0, 1)
    assert joined.t_after == TWO_THIRDS


def test_concat_visit_then_travel():
    inst = line_instance([0, 1], [1, 1])
    got = concat(atomic(0, 0, 0, 0), type_two(), Fraction(3), inst.metric.coords)
    assert got.start == got.end == 0
    assert got.t_before == 0
    assert got.t_after == TWO_THIRDS + 1  # 5L/3 of travel after the visit


def test_concat_travel_then_visit():
    inst = line_instance([0, 1], [1, 1])
    got = concat(type_two(), atomic(1, 1, 1, 1), Fraction(3), inst.metric.coords)
    assert got.t_before == 1  # one whole window of lead travel
    assert got.t_after == TWO_THIRDS


def test_concat_associativity_on_triples():
    inst = line_instance([0, 2, 5], [1, 1, 1])
    coords = inst.metric.coords
    checked = 0
    for L in (Fraction(2), Fraction(9), Fraction(15)):
        atoms = enumerate_atomics(inst, L)
        for a, b, c in product(atoms, repeat=3):
            ab = concat(a, b, L, coords)
            bc = concat(b, c, L, coords)
            left = concat(ab, c, L, coords) if ab is not None else None
            right = concat(a, bc, L, coords) if bc is not None else None
            assert (left is None) == (right is None)
            if left is not None:
                assert left == right
            checked += 1
    assert checked > 500


# --- the decision procedure -------------------------------------------------


def test_construct_single_site_any_window():
    inst = line_instance([7], [1])
    assert construct_schedule(inst, 1, Fraction(1, 7)) is not None


def test_construct_two_site_threshold():
    D = Fraction(5)
    inst = line_instance([0, D], [1, 1])
    cands = candidate_window_lengths(inst, 1)
    answers = [(L, construct_schedule(inst, 1, L) is not None) for L in cands]
    yes_values = [L for L, ok in answers if ok]
    assert min(yes_values) == 3 * D


def brute_force_standard_exists(inst, k, L):
    """Directly search all per-robot atomic sequences of length 2^m,
    with a local left-to-right summary combiner (no doubling, no dedup,
    no pruning), checking coverage on every aligned block."""
    classes, rounded = round_weights_dyadic(inst)
    coords = inst.metric.coords
    slots = 2**classes.m
    atoms = enumerate_atomics(inst, L)

    def combine(a, b):
        if a.end is not None and b.start is not None:
            if abs(coords[a.end] - coords[b.start]) > (a.t_after + b.t_before) * L:
                return None
        lo = min((x for x in (a.left, b.left) if x is not None),
                 key=lambda i: coords[i], default=None)
        hi = max((x for x in (a.right, b.right) if x is not None),
                 key=lambda i: coords[i], default=None)
        tb = a.t_before if a.visits else (a.t_after + b.t_before if b.visits else Fraction(0))
        ta = b.t_after if b.visits else a.t_after + b.t_after
        return AtomicRep(
            a.start if a.start is not None else b.start,
            b.end if b.end is not None else a.end,
            lo, hi, int(3 * tb), int(3 * ta), a.span + b.span,
        )

    def summary(seq):
        cur = seq[0]
        for nxt in seq[1:]:
            cur = combine(cur, nxt)
            if cur is None:
                return None
        return cur

    feasible_seqs = [seq for seq in product(atoms, repeat=slots) if summary(seq)]

    def block_covered(combo, members, lo, hi):
        for s in members:
            c = coords[s]
            hit = False
            for seq in combo:
                rep = summary(seq[lo:hi])
                if rep is not None and rep.visits and coords[rep.left] <= c <= coords[rep.right]:
                    hit = True
                    break
            if not hit:
                return False
        return True

    for combo in product(feasible_seqs, repeat=k):
        if all(
            block_covered(combo, members, b * 2**j, (b + 1) * 2**j)
            for j, members in classes.classes
            for b in range(slots // 2**j)
        ):
            return True
    return False


def test_construct_matches_brute_force_tiny():
    rng = random.Random(89)
    for _ in range(12):
        n = rng.randint(1, 2)
        coords = sorted(rng.randint(0, 6) for _ in range(n))
        weights = [rng.choice([1, 2]) for _ in range(n)]
        inst = line_instance(coords, weights)
        k = rng.randint(1, 2)
        cands = [c for c in candidate_window_lengths(inst, k) if c > 0][:8]
        for L in cands:
            fast = construct_schedule(inst, k, L) is not None
            slow = brute_force_standard_exists(inst, k, L)
            assert fast == slow, (coords, weights, k, L)


def test_yes_monotone_along_candidates():
    rng = random.Random(97)
    done = 0
    while done < 50:
        n = rng.randint(1, 3)
        coords = sorted(Fraction(rng.randint(0, 40), 2) for _ in range(n))
        weights = [rng.choice([1, 2]) for _ in range(n)]
        inst = line_instance(coords, weights)
        k = rng.randint(1, 2)
        cands = [c for c in candidate_window_lengths(inst, k) if c > 0]
        answers = [construct_schedule(inst, k, L) is not None for L in cands]
        if True in answers:
            first = answers.index(True)
            assert all(answers[first:]), (coords, weights, k)
        done += 1


def test_candidate_lists():
    single = line_instance([3], [1])
    assert candidate_window_lengths(single, 1) == [0]
    D = Fraction(4)
    two = line_instance([0, D], [1, 1])
    assert 3 * D in candidate_window_lengths(two, 1)
    weighted = line_instance([0, D], [1, "0.5"])
    cands = candidate_window_lengths(weighted, 1)
    for hops in (0, 1):
        assert D / (TWO_THIRDS + hops) in cands


def test_states_realize_and_match_hulls():
    inst = line_instance([0, 2, 5], [1, "0.5", 1])
    k = 1
    cands = [c for c in candidate_window_lengths(inst, k) if c > 0]
    L = cands[len(cands) // 2]
    levels = _levels(inst, k, L)
    coords = inst.metric.coords
    rng = random.Random(3)
    for level in levels:
        for node in level:
            if rng.random() > 0.3 or not node_reps(node, inst)[0].visits:
                continue
            std = realize_node(node, inst, L)
            for rep, wps in zip(node_reps(node, inst), std.robot_waypoints):
                xs = [x for _, x in wps]
                assert xs[0] == coords[rep.start]
                assert min(xs) == coords[rep.left]
                assert max(xs) == coords[rep.right]
                speeds_ok = all(
                    abs(x1 - x0) <= t1 - t0
                    for (t0, x0), (t1, x1) in zip(wps, wps[1:])
                )
                assert speeds_ok


def test_state_count_bound():
    inst = line_instance([0, 1, 3], [1, "0.5", "0.25"])
    n = inst.n
    for L in [Fraction(3), Fraction(9), Fraction(18)]:
        levels = _levels(inst, 1, L)
        for h, level in enumerate(levels):
            reps = {node_reps(node, inst)[0] for node in level}
            assert len(reps) <= n**4 * 4**h * 4


# --- tables shared by the probes of one instance -----------------------------


def solved(inst, k):
    rep = solve_line_weighted(inst, k)
    return rep.L_accepted, rep.lower_bound, rep.measured_latency, dump_schedule(rep.schedule)


def test_instances_sharing_a_metric_solve_like_fresh_ones():
    """The atomic table, the summary pool and its weight-class masks live
    on the Instance: a second weight vector over the same metric must not
    see the first one's masks."""
    for k, coords in ((1, [0, 2, Fraction(7, 2), 6]), (2, [0, 2, Fraction(7, 2)])):
        first = line_instance(coords, [1] * len(coords))
        solved(first, k)
        for weights in ([1, 4, 1, 2], [4, 1, 2, 1], [1, 1, 1, 1]):
            weights = weights[:len(coords)]
            shared = Instance(metric=first.metric, weights=tuple(map(Fraction, weights)),
                              kind="line")
            assert solved(shared, k) == solved(line_instance(coords, weights), k), (k, weights)
            assert shared._memo["summaries"] is not first._memo["summaries"]


def test_probes_in_any_order_match_fresh_instances():
    """construct_schedule at shuffled windows on one instance gives the
    answers and levels (their reps, in order) of a fresh instance per
    window."""
    rng = random.Random(7)
    probes = 0
    for k, n_max, wmax in ((1, 5, 4), (2, 3, 2)):
        for _ in range(6):
            n = rng.randint(2, n_max)
            coords = [Fraction(rng.randint(0, 9), rng.choice((1, 3, 7))) for _ in range(n)]
            weights = [rng.randint(1, wmax) for _ in range(n)]
            inst = line_instance(coords, weights)
            cands = [c for c in candidate_window_lengths(inst, k) if c > 0]
            probed = rng.sample(cands, min(8, len(cands)))
            for L in probed:
                levels = _levels(inst, k, L)
                fresh = line_instance(coords, weights)
                want_levels = _levels(fresh, k, L)
                answer = construct_schedule(inst, k, L)
                want = construct_schedule(line_instance(coords, weights), k, L)
                assert answer == want, (coords, weights, k, L)
                assert [[node_reps(node, inst) for node in lv] for lv in levels] == [
                    [node_reps(node, fresh) for node in lv] for lv in want_levels
                ]
                probes += 1
    assert probes > 60


def test_one_solve_joins_each_pair_once(monkeypatch):
    """The join table outlives a probe: over all probes of a solve, no
    pair of summaries goes through _junction twice."""
    junction = time_window._junction
    joined = Counter()

    def spy(a, b, *scaled):
        joined[a, b] += 1
        return junction(a, b, *scaled)

    monkeypatch.setattr(time_window, "_junction", spy)
    for k, n in ((1, 5), (2, 4)):
        for seed in range(1, 5):
            joined.clear()
            solve_line_weighted(generate_instance("line-weighted", n, seed, wmax=2), k)
            assert max(joined.values(), default=1) == 1, (k, n, seed)


def test_each_probed_window_builds_its_lower_levels_once(monkeypatch):
    """Each probed window is one pass over its levels: a solve filters the
    atoms once per decision probe and offers each level above 0 its
    partners once per probe, and construct_schedule does each once at an
    accepting window.  At the accepted window _best finishes the top-level
    pass its decision stopped, so at m = 0, where the top level is level 0,
    the atoms are not filtered again, and at m > 0 the top level's
    partners are not offered again."""
    calls = Counter()

    def counted(name, original):
        def spy(*args):
            calls[name] += 1
            return original(*args)
        return spy

    monkeypatch.setattr(time_window, "_atom_ids", counted("atoms", time_window._atom_ids))
    monkeypatch.setattr(time_window, "_partners", counted("partners", time_window._partners))
    monkeypatch.setattr(time_window, "_decide", counted("probes", _decide))
    cases = Counter()
    for inst, k in rank_cases():
        if len(set(inst.metric.coords)) == 1:
            continue  # solved without a window search
        m = round_weights_dyadic(inst)[0].m
        calls.clear()
        L = solve_line_weighted(inst, k).L_accepted
        assert calls["atoms"] == calls["probes"], (inst, k)
        assert calls["partners"] == calls["probes"] * m, (inst, k)
        calls.clear()
        assert construct_schedule(inst, k, L) is not None
        assert calls == Counter(atoms=1, probes=1, partners=m), (inst, k)
        cases[m == 0] += 1
    assert cases[False] > 20 and cases[True] > 5, cases


def tight_joins(inst, L, levels):
    """Joins on consecutive levels' state pairs whose junction compare
    holds with equality at L."""
    pool = time_window._summary_pool(inst)
    scale, per_third = 3 * L.denominator, L.numerator * pool.D
    tight = 0
    for prev in levels[:-1]:
        for left, right in product(prev, repeat=2):
            for pair in zip(left.ids, right.ids):
                if pair in pool.joins:
                    _, gap, slack3 = pool.joins[pair]
                    tight += gap > 0 and scale * gap == slack3 * per_third
    return tight


def test_junction_candidates_after_other_windows_match_fresh_instances():
    """At a junction candidate L* = 3g / (D (2 + 3h)), where a pair's
    compare can hold with equality, and at the candidate just below it,
    the levels read from a join table filled at other windows are those
    of a fresh instance."""
    tight = probes = 0
    for k, n, wmax in ((1, 5, 4), (1, 4, 8), (2, 3, 4)):
        for seed in range(1, 5):
            inst = generate_instance("line-weighted", n, seed, wmax=wmax)
            pool = time_window._summary_pool(inst)
            D, X = pool.D, pool.X
            budgets = range(2**round_weights_dyadic(inst)[0].m + 1)
            junctions = {Fraction(3 * (b - a), D * (2 + 3 * h))
                         for a in X for b in X if a < b for h in budgets}
            cands = [c for c in candidate_window_lengths(inst, k) if c > 0]
            solve_line_weighted(inst, k)
            for i, L_star in enumerate(cands[1:], start=1):
                if L_star not in junctions:
                    continue
                for L in (L_star, cands[i - 1]):
                    levels = _levels(inst, k, L)
                    fresh = generate_instance("line-weighted", n, seed, wmax=wmax)
                    want = _levels(fresh, k, L)
                    assert [[node_reps(node, inst) for node in lv] for lv in levels] == [
                        [node_reps(node, fresh) for node in lv] for lv in want
                    ], (k, n, seed, L)
                    probes += 1
                tight += tight_joins(inst, L_star, _levels(inst, k, L_star))
    assert probes > 300 and tight > 0, (probes, tight)


def test_candidate_order_when_candidates_share_a_float():
    """Distinct candidates whose doubles are equal are ordered exactly, and
    candidates past the double range are still sorted."""
    big = 10**18
    inst = line_instance([0, Fraction(big, big + 1), Fraction(big + 1, big + 3), 1],
                         [1, 2, 1, 4])
    cands = candidate_window_lengths(inst, 1)
    assert len({float(c) for c in cands}) < len(cands) == len(set(cands))
    assert cands == sorted(cands)
    huge = candidate_window_lengths(line_instance([0, 10**400, 3 * 10**400], [1, 2, 1]), 1)
    assert huge == sorted(huge) and huge[-1] > 10**400


def test_candidate_windows_are_the_int_pairs_as_fractions():
    """candidate_window_lengths is _candidates' (numerator, denominator)
    pairs, each in lowest terms, as Fractions: on the float-tie and the
    overflow instances above and on a seeded sweep."""
    big = 10**18
    instances = [
        line_instance([0, Fraction(big, big + 1), Fraction(big + 1, big + 3), 1], [1, 2, 1, 4]),
        line_instance([0, 10**400, 3 * 10**400], [1, 2, 1]),
    ]
    rng = random.Random(25)
    instances += [generate_instance("line-weighted", rng.randint(2, 6), seed, wmax=4)
                  for seed in range(1, 30)]
    for inst in instances:
        for k in (1, 2):
            pairs = time_window._candidates(inst, k)
            assert all(type(n) is int and type(d) is int and d > 0 and gcd(n, d) == 1
                       for n, d in pairs)
            assert candidate_window_lengths(inst, k) == [Fraction(n, d) for n, d in pairs]


def test_line_weighted_solve_reads_visits_once(monkeypatch):
    """One visit pass per line-weighted solve: the visit-window check and
    the latency report share it through the metric's memo, so the solve
    builds one visit lookup (evaluate._sites_near), and measuring the
    returned schedule again builds none.  The report's latencies equal an
    evaluation of that schedule on a fresh instance."""
    import patrol.evaluate

    calls = []
    original = patrol.evaluate._sites_near

    def spy(loops, metric, unit):
        calls.append(unit)
        return original(loops, metric, unit)

    monkeypatch.setattr(patrol.evaluate, "_sites_near", spy)
    for k, n, seed in [(1, 5, 1), (1, 6, 2), (2, 4, 3), (2, 5, 1), (3, 4, 2)]:
        inst = generate_instance("line-weighted", n, seed, wmax=4)
        calls.clear()
        report = solve_line_weighted(inst, k)
        assert max_weighted_latency(report.schedule, inst) == report.latency
        assert len(calls) == 1, (k, n, seed)
        fresh = max_weighted_latency(report.schedule, generate_instance("line-weighted", n, seed,
                                                                        wmax=4))
        assert report.latency == fresh and report.measured_latency == fresh.max_weighted


# --- full solver, cyclification ---------------------------------------------


def test_cyclify_stationary():
    inst = line_instance([5], [2])
    rep = solve_line_weighted(inst, 1)
    assert rep.measured_latency == 0


def test_cyclify_seam_continuity_and_gap_bound():
    rng = random.Random(101)
    for _ in range(12):
        n = rng.randint(2, 3)
        coords = sorted(rng.randint(0, 12) for _ in range(n))
        weights = [rng.choice([1, 2, 4]) for _ in range(n)]
        inst = line_instance(coords, weights)
        k = rng.randint(1, 2)
        cands = [c for c in candidate_window_lengths(inst, k) if c > 0]
        std = None
        for L in cands:
            std = construct_schedule(inst, k, L)
            if std is not None:
                break
        assert std is not None
        assert validate_standard(std, inst)
        sched = cyclify(std)
        assert validate_speed(sched, inst.metric) == []
        classes, rounded = round_weights_dyadic(inst)
        lat = max_weighted_latency(sched, inst)
        for s in inst.sites:
            assert lat.latency_of(s) <= 2 * std.window / rounded[s]


def test_solve_reference_four_site_instance():
    inst = cooperative_line_instance()
    rep = solve_line_weighted(inst, 2)
    assert 10 <= rep.measured_latency <= 120  # within 12x of the known optimum
    assert validate_speed(rep.schedule, inst.metric) == []


def test_solve_single_site():
    rep = solve_line_weighted(line_instance([9], [5]), 1)
    assert rep.measured_latency == 0


def test_solve_with_empty_intermediate_class():
    # weights {1, 4} scale to {1/4, 1}: exponents 2 and 0, nothing at 1
    inst = line_instance([0, 6], [1, 4])
    rep = solve_line_weighted(inst, 1)
    assert validate_speed(rep.schedule, inst.metric) == []
    classes, _ = round_weights_dyadic(inst)
    assert [j for j, _ in classes.classes] == [0, 2]
    assert rep.measured_latency > 0


def test_solve_uniform_sandwich():
    rng = random.Random(103)
    for _ in range(6):
        n = rng.randint(2, 4)
        coords = sorted(rng.randint(0, 10) for _ in range(n))
        inst = line_instance(coords, [1] * n)
        k = rng.randint(1, 2)
        exact = solve_line_uniform(inst, k).measured_latency
        approx = solve_line_weighted(inst, k).measured_latency
        assert exact <= approx <= 12 * exact or exact == approx == 0
