"""Acceptance gate: nine checks, one printed verdict line each.

Expected values are frozen from independent oracles (graph walks, wave
replays, closed-form folds), never from the simulator itself. Run with -s
to see the verdict lines for passing checks too.
"""

import io
import random
import time
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from aodvsim.engine import Engine, run
from aodvsim.metrics import CSV_COLUMNS, rows_to_csv
from aodvsim.protocol import RreqId
from aodvsim.scenario import builtin
from aodvsim.suppression import (
    Connectivity,
    ConnectivityState,
    CounterBased,
    ExpandingRing,
    Probabilistic,
)
from aodvsim.suppression import Flood

from oracles import bfs_distances, flood_replay

TOL_INDEX = 1e-9
TOL_EMA = 1e-12


def verdict(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS - {detail}")


# 1. Ten warm-up rounds reproduce the per-link statistics exactly.
def test_criterion_1_connectivity_table_reproduction():
    t0 = time.perf_counter()
    eng = Engine(builtin("fig1-tables", rounds=10))
    eng.run()
    elapsed = time.perf_counter() - t0

    expected = {
        "S": {"N1": 1.0, "N4": 0.6, "N7": 0.0},
        "N7": {"N13": 0.0, "N8": 0.0},
        "N4": {"N5": 0.7, "N13": 0.0},
    }
    for node, row in expected.items():
        for neighbor, want in row.items():
            got = eng.connectivity_index(node, "D", neighbor)
            assert got is not None, f"{node} has no record for {neighbor}"
            assert abs(got - want) <= TOL_INDEX, \
                f"{node}->{neighbor}: {got} != {want}"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    verdict(1, f"10-round link indices exact to {TOL_INDEX:g}, "
               f"{elapsed * 1000:.0f} ms")


# 2. Round 11 prunes the five dead-end links and still finds D via N1.
def test_criterion_2_round_11_pruning():
    base = Engine(builtin("fig1-tables", rounds=10))
    base.run()
    # t_max clipped past the round-11 reply so the fresh route is inspectable
    sc11 = replace(builtin("fig1-tables", rounds=11), t_max=1020)
    eng = Engine(sc11)
    rep11 = eng.run()

    ids = sc11.node_ids()
    pruned = [("S", "N7"), ("N4", "N13"), ("N7", "N13"),
              ("N7", "N8"), ("N13", "N7")]
    for a, b in pruned:
        before = base.metrics.per_link_rreq_tx.get((ids[a], ids[b]), 0)
        after = rep11.per_link_rreq_tx.get((ids[a], ids[b]), 0)
        assert after - before == 0, f"round 11 used pruned link {a}->{b}"

    last = rep11.discoveries[-1]
    assert last.round_index == 10 and last.ok
    route = eng.route_of("S", "D")
    assert route is not None and route.next_hop == ids["N1"]
    assert route.hop_count == 4

    flood11 = run(replace(builtin("fig1-tables", rounds=11),
                          strategy=Flood(), t_max=1020))
    savings = flood11.rreq_tx - rep11.rreq_tx
    assert savings >= 5, f"savings {savings} < 5"
    verdict(2, f"five pruned links idle in round 11, route via N1, "
               f"savings {savings} transmissions")


# 3. One flood on the reference network costs exactly 15 transmissions.
def test_criterion_3_flood_baseline():
    sc = builtin("fig1")
    rep = run(sc)
    edges = [(a, b) for a, b, _ in sc.links_by_id()]
    oracle_tx, oracle_redundant, reached = flood_replay(
        sc.node_count, edges, sc.node_ids()["S"], sc.node_ids()["D"], ttl=sc.node_count)

    assert oracle_tx == 15          # deg(S) + sum over relays of (deg - 1)
    assert rep.rreq_tx == 15
    assert reached and rep.discoveries_ok == 1
    n13 = sc.node_ids()["N13"]
    assert rep.per_node_redundant_rx.get(n13, 0) >= 1
    # golden total from the replay oracle: one extra copy each at
    # N3, N5, N7, N13 and D
    assert sum(oracle_redundant.values()) == 5
    assert rep.redundant_rreq_rx == 5
    assert rep.per_node_redundant_rx == oracle_redundant
    verdict(3, "flood costs exactly 15 RREQ sends, 5 redundant receptions, "
               "one redundant at N13")


# 4. Flood success agrees with BFS reachability on 250 random graphs.
def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    runs = 0
    for size in range(3, 13):
        for seed in range(25):
            sc = builtin(f"random-{size}", seed=seed)
            rep = run(sc)
            edges = [(a, b) for a, b, _ in sc.links_by_id()]
            dist = bfs_distances(sc.node_count, edges, 0).get(size - 1)
            reachable = dist is not None and dist <= sc.node_count
            assert (rep.discoveries_ok == 1) == reachable, \
                f"random-{size} seed {seed}: engine and BFS disagree"
            runs += 1
    elapsed = time.perf_counter() - t0
    assert runs >= 200
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    verdict(4, f"{runs} seeded graphs, 100% agreement, {elapsed:.2f} s")


# 5. Suppression strategies with vacuous settings degenerate to flood.
def test_criterion_5_degeneration_suite():
    baseline = run(builtin("fig1")).counter_tuple()
    vacuous = [
        Probabilistic(p=1.0),
        CounterBased(max_copies=10 ** 9),
        Connectivity(threshold=-1.0),
    ]
    for strategy in vacuous:
        got = run(replace(builtin("fig1"), strategy=strategy)).counter_tuple()
        assert got == baseline, f"{strategy.label} diverged from flood"
    verdict(5, "p=1, c=1e9 and threshold=-1 all counter-identical to flood")


# 6. EMA index decays geometrically and never leaves [0, 1].
@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99),
       st.integers(min_value=0, max_value=50))
def test_criterion_6_ema_decay(alpha, k):
    s = ConnectivityState(Connectivity(mode="ema", alpha=alpha))
    for i in range(k):
        rid = RreqId(0, i)
        s.open_attempt(9, 1, rid)
        s.resolve_attempt(9, 1, rid, success=False)
    index = s.peek(9, 1).index if k else 1.0
    assert abs(index - (1.0 - alpha) ** k) <= TOL_EMA


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99),
       st.lists(st.booleans(), max_size=50))
def test_criterion_6_ema_bounds(alpha, outcomes):
    s = ConnectivityState(Connectivity(mode="ema", alpha=alpha))
    for i, ok in enumerate(outcomes):
        rid = RreqId(0, i)
        s.open_attempt(9, 1, rid)
        s.resolve_attempt(9, 1, rid, success=ok)
        assert 0.0 <= s.peek(9, 1).index <= 1.0


def test_criterion_6_verdict():
    rng = random.Random(606)
    for _ in range(200):
        alpha = rng.uniform(0.01, 0.99)
        k = rng.randint(0, 50)
        s = ConnectivityState(Connectivity(mode="ema", alpha=alpha))
        for i in range(k):
            rid = RreqId(0, i)
            s.open_attempt(9, 1, rid)
            s.resolve_attempt(9, 1, rid, success=False)
            assert 0.0 <= s.peek(9, 1).index <= 1.0
        index = s.peek(9, 1).index if k else 1.0
        assert abs(index - (1.0 - alpha) ** k) <= TOL_EMA
    verdict(6, f"geometric decay within {TOL_EMA:g}, bounds hold")


# 7. Raw-mode index equals successes/attempts refolded from the log.
@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["success", "failure", "open"]), max_size=40))
def test_criterion_7_raw_refold(script):
    s = ConnectivityState(Connectivity(mode="raw"))
    folded, opened, successes = 1.0, 0, 0
    for i, action in enumerate(script):
        rid = RreqId(0, i)
        s.open_attempt(9, 1, rid)
        opened += 1
        if action != "open":
            if action == "success":
                successes += 1
            s.resolve_attempt(9, 1, rid, success=action == "success")
            folded = successes / opened
    if script:
        rec = s.peek(9, 1)
        assert rec.attempts == opened
        assert rec.successes == successes
        assert rec.index == folded      # same division, bit-for-bit


def test_criterion_7_verdict():
    rng = random.Random(707)
    for _ in range(200):
        script = rng.choices(["success", "failure", "open"],
                             k=rng.randint(1, 40))
        s = ConnectivityState(Connectivity(mode="raw"))
        folded, opened, successes = 1.0, 0, 0
        for i, action in enumerate(script):
            rid = RreqId(0, i)
            s.open_attempt(9, 1, rid)
            opened += 1
            if action != "open":
                if action == "success":
                    successes += 1
                s.resolve_attempt(9, 1, rid, success=action == "success")
                folded = successes / opened
        rec = s.peek(9, 1)
        assert (rec.attempts, rec.successes) == (opened, successes)
        assert rec.index == folded
    verdict(7, "raw index refolds exactly from the attempt log")


# 8. Same seed, same bytes: CSV rows and traces are reproducible.
def test_criterion_8_deterministic_output():
    names = ["fig1", "fig1-tables", "ring-demo", "random-7"]
    for name in names:
        outputs = []
        for _ in range(2):
            sc = builtin(name, seed=13)
            buf = io.StringIO()
            rep = run(sc, trace=buf)
            row = rows_to_csv(
                [rep.csv_row(sc.name, sc.strategy.label, sc.seed)],
                CSV_COLUMNS)
            outputs.append((row, buf.getvalue()))
        assert outputs[0] == outputs[1], f"{name} not reproducible"
    verdict(8, f"byte-identical CSV and trace for {', '.join(names)}")


# 9. Expanding ring walks 1,3,5,7 and beats repeated full floods.
def test_criterion_9_expanding_ring_schedule():
    sc = builtin("ring-demo")
    ring = sc.strategy
    assert isinstance(ring, ExpandingRing)
    schedule = [ring.attempt_ttl(i, sc.node_count)
                for i in range(5)]
    assert schedule == [1, 3, 5, 7, sc.node_count]

    buf = io.StringIO()
    rep = run(sc, trace=buf)
    assert rep.discoveries_ok == 1
    attempts = rep.discoveries[0].attempts

    # executed TTLs, read off R1's receptions of S's requests
    executed = []
    for line in buf.getvalue().splitlines():
        tick, node, kind, detail = line.split("\t")
        if node == "R1" and kind == "deliver" and "RREQ[0:" in detail:
            executed.append(int(detail.rsplit("ttl=", 1)[1]))
    assert executed == schedule[:attempts] == [1, 3, 5, 7]

    edges = [(a, b) for a, b, _ in sc.links_by_id()]
    full_flood_tx, _, _ = flood_replay(
        sc.node_count, edges, sc.node_ids()["S"], sc.node_ids()["D"], ttl=sc.node_count)
    assert full_flood_tx == 6
    assert rep.rreq_tx < attempts * full_flood_tx, \
        f"{rep.rreq_tx} not below {attempts} x {full_flood_tx}"
    verdict(9, f"TTLs {executed}, {rep.rreq_tx} sends vs "
               f"{attempts * full_flood_tx} for repeated floods")
