"""Acceptance gate: the ten headline checks for this artifact, each with
its stated tolerance. Every test prints one criterion line so a plain
`pytest -v -s tests/test_acceptance.py` reads as a checklist.

Heavyweight checks (criteria 8 and 9) run real tuning workloads; the
whole file stays well inside a 30-minute desktop budget.
"""

import math
import os
import random
from collections import deque

import pytest

from conftest import make_static_scenario
from olsrtune.analysis import (
    efficiency,
    friedman_ranks,
    gap_energy,
    gap_pdr,
    kruskal_wallis,
    ks_normality,
    wilcoxon_signed_rank,
)
from olsrtune.evo import (
    FitnessContext,
    GaSettings,
    arithmetic_crossover,
    blend,
    calibrate_context,
    diagonal_init,
    evolve,
    fitness,
    mutate,
)
from olsrtune.olsr import (
    Neighbor,
    OlsrNodeState,
    decode_genome,
    default_param_space,
    rfc_default,
    select_mprs,
)
from olsrtune.scenario import CbrFlow, FlowTemplate, GridSpec, generate_grid_scenario
from olsrtune.sim import (
    default_nic,
    frame_cost,
    routing_snapshot,
    run_simulation,
)

NIC = default_nic()
SPACE = default_param_space()
RFC = rfc_default()

# the published best configuration under study, in gene order
BEST_GENES = (14.890, 7.416, 28.158, 5, 20.825, 10.814, 70.959, 90.000)


def ok(n, name):
    print(f"criterion {n} ({name}): PASS")


def test_criterion_01_fitness_reproduction():
    ctx = FitnessContext(e_rfc=9104.19, pdr_rfc=87.12)
    assert fitness(6305.58, 75.14, ctx) == pytest.approx(0.6482, abs=1e-4)
    assert fitness(6551.89, 74.74, ctx) == pytest.approx(0.6730, abs=1e-4)
    ok(1, "fitness reproduction")


def test_criterion_02_gap_reproduction():
    e_rfc, pdr_rfc = 9104.19, 87.12
    energy_cells = [(6305.58, 30.74), (6551.89, 28.03), (6446.80, 29.19)]
    for energy, want_pct in energy_cells:
        assert 100.0 * gap_energy(energy, e_rfc) == pytest.approx(want_pct, abs=0.01)
    pdr_cells = [(75.14, -11.98), (74.74, -12.38), (75.20, -11.92)]
    for pdr, want_pct in pdr_cells:
        displayed = -100.0 * gap_pdr(pdr, pdr_rfc)
        assert displayed == pytest.approx(want_pct, abs=0.01)
    ok(2, "gap reproduction")


def test_criterion_03_efficiency_reproduction():
    # 5.80/8 = 0.725 sits exactly on the inclusive tolerance edge; pad the
    # bound by 1e-12 so binary representation error cannot flip the verdict
    for s_m, m, want in [(5.80, 8, 0.72), (11.81, 16, 0.74), (19.10, 24, 0.80)]:
        assert abs(efficiency(s_m, m) - want) <= 0.005 + 1e-12
    ok(3, "efficiency reproduction")


def test_criterion_04_energy_model_oracle():
    # hand-derived: mA x V = mW; mW x bits/bandwidth = mJ, so with the
    # default radio send(b) = 2200 b / 6e6 and recv(b) = 1300 b / 6e6
    rel = 1e-9
    for bits in (0, 4096, 6_000_000):
        want_send = 2200.0 * bits / 6e6
        want_recv = 1300.0 * bits / 6e6
        send, recv, _airtime = frame_cost(NIC, bits, 6e6)
        assert send == pytest.approx(want_send, rel=rel, abs=1e-15)
        assert recv == pytest.approx(want_recv, rel=rel, abs=1e-15)
        for r in (0, 1, 3):
            want = want_send + r * want_recv
            assert send + r * recv == pytest.approx(want, rel=rel, abs=1e-15)
    ok(4, "energy model oracle")


def test_criterion_05_route_oracle():
    # 200 random static topologies; after 3 x neighb_hold_time of
    # protocol traffic every routing table must equal BFS distances
    rng = random.Random(123)
    radio = 100.0
    warmup = 3 * RFC.neighb_hold_time
    for case in range(200):
        n = rng.randint(2, 15)
        pos = {i: (rng.uniform(0, 300), rng.uniform(0, 300)) for i in range(n)}
        scn = make_static_scenario(pos, duration=warmup, radio_range=radio)
        tables = routing_snapshot(scn, RFC, NIC, seed=case)

        adj = {i: set() for i in range(n)}
        for i in range(n):
            for j in range(i + 1, n):
                dx = pos[i][0] - pos[j][0]
                dy = pos[i][1] - pos[j][1]
                if dx * dx + dy * dy <= radio * radio:
                    adj[i].add(j)
                    adj[j].add(i)
        for u in range(n):
            dist = {u: 0}
            frontier = deque([u])
            while frontier:
                v = frontier.popleft()
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        frontier.append(w)
            want = {v: d for v, d in dist.items() if v != u}
            got = {v: hops for v, (_nh, hops) in tables[u].items()}
            assert got == want, f"case {case}, node {u}"
    ok(5, "OLSR route oracle")


def test_criterion_06_mpr_coverage_property():
    rng = random.Random(777)
    for case in range(500):
        one_hop = list(range(1, rng.randint(2, 21)))
        wills = {n: rng.randint(0, 7) for n in one_hop}
        two_hop_nodes = list(range(100, 100 + rng.randint(0, 40)))
        cover = {n: set() for n in one_hop}
        for t in two_hop_nodes:
            for p in rng.sample(one_hop, k=min(len(one_hop), rng.randint(1, 3))):
                cover[p].add(t)
        neighbors = {}
        for n, ts in cover.items():
            # sprinkle self/one-hop ids in: select_mprs must ignore them
            adv = ts | ({0, n} if rng.random() < 0.3 else set())
            neighbors[n] = Neighbor(True, 1e9, wills[n], adv=frozenset(adv))
        state = OlsrNodeState(node_id=0, neighbors=neighbors)

        mprs = select_mprs(state)

        # brute-force validator over the raw inputs
        coverable = {t for p in one_hop if wills[p] != 0 for t in cover[p]}
        covered = {t for m in mprs for t in cover[m]}
        assert coverable <= covered, f"case {case}: uncovered {coverable - covered}"
        assert all(wills[m] != 0 for m in mprs), f"case {case}: willingness-0 MPR"
        always = {n for n in one_hop if wills[n] == 7}
        assert always <= mprs, f"case {case}: missing willingness-7 neighbor"
    ok(6, "MPR coverage property")


def test_criterion_07_operator_properties():
    rng = random.Random(4242)

    # (a) crossover conserves per-gene sums before clamping
    for _ in range(2000):
        p = tuple(rng.uniform(lo, hi) for lo, hi in SPACE.bounds)
        q = tuple(rng.uniform(lo, hi) for lo, hi in SPACE.bounds)
        c1, c2 = blend(p, q, rng.random())
        for a, b, x, y in zip(p, q, c1, c2):
            assert abs((x + y) - (a + b)) <= 1e-9 * max(1.0, abs(a + b))

    # (b) diagonal init lands each individual in its own band
    for pop in (4, 24, 50):
        for ind in diagonal_init(SPACE, pop, rng):
            band = ind.id[1]
            for k in range(SPACE.n_genes):
                lo, hi = SPACE.bounds[k]
                assert lo <= ind.genes[k] <= hi
                if k in SPACE.integer_genes:
                    continue
                span = hi - lo
                offset = (ind.genes[k] - SPACE.rfc[k]) % span
                assert band / pop * span - 1e-9 <= offset <= (band + 1) / pop * span + 1e-9

    # (c) closure: 10,000 random operator applications never leave bounds
    pool = [ind.genes for ind in diagonal_init(SPACE, 24, rng)]
    violations = 0
    for _ in range(10_000):
        if rng.random() < 0.5:
            a, b = rng.sample(pool, 2)
            out = arithmetic_crossover(a, b, 0.5 + 0.5 * rng.random(), SPACE)
        else:
            out = (mutate(rng.choice(pool), rng, SPACE),)
        for genes in out:
            for k, g in enumerate(genes):
                lo, hi = SPACE.bounds[k]
                if not (lo <= g <= hi):
                    violations += 1
            if genes[3] != int(genes[3]):
                violations += 1
        pool[rng.randrange(len(pool))] = out[0]
    assert violations == 0
    ok(7, "operator properties")


def _u2_scenario(seed):
    """240000 m^2 street grid with 20-40 vehicles, unseen per seed."""
    spec = GridSpec(
        area=(600.0, 400.0),
        streets=(4, 4),
        vehicle_count=20 + (seed % 3) * 10,
        speed=(2.0, 6.0),
        pause_time=4.0,
        duration=90.0,
    )
    template = FlowTemplate(packet_size=512, rate=1.0, start=30.0, duration=25.0)
    return generate_grid_scenario(spec, 10, template, seed=seed, radio_range=500.0)


def _tuning_scenario():
    """Control-dominated workload the search runs against."""
    spec = GridSpec(
        area=(600.0, 400.0),
        streets=(4, 4),
        vehicle_count=20,
        speed=(2.0, 6.0),
        pause_time=4.0,
        duration=90.0,
    )
    template = FlowTemplate(packet_size=64, rate=0.2, start=45.0, duration=40.0)
    return generate_grid_scenario(spec, 20, template, seed=3, radio_range=500.0)


def test_criterion_08_directional_energy_claim():
    best = decode_genome(BEST_GENES, SPACE)

    # (a) the published configuration beats the defaults on both E_total
    # and NRL in every one of 12 unseen medium-size scenarios
    for seed in range(12):
        scn = _u2_scenario(seed)
        m_best = run_simulation(scn, best, NIC, seed)
        m_rfc = run_simulation(scn, RFC, NIC, seed)
        assert m_best.energy.e_total < m_rfc.energy.e_total, f"energy, seed {seed}"
        assert m_best.nrl is not None and m_rfc.nrl is not None
        assert m_best.nrl < m_rfc.nrl, f"NRL, seed {seed}"

    # (b) a full tuning run finds a configuration saving >= 15% energy
    # while keeping PDR within the 15% admission bound
    scn = _tuning_scenario()
    settings = GaSettings(
        pop_size=24, generations=50, p_c=0.7, p_m=0.25, workers=1, master_seed=7
    )
    ctx = calibrate_context(scn, NIC, settings.master_seed)
    found, _history = evolve(settings, SPACE, scn, NIC, ctx)
    assert not found.fitness.penalized
    assert found.fitness.pdr >= ctx.admission * ctx.pdr_rfc
    assert gap_energy(found.fitness.energy, ctx.e_rfc) >= 0.15
    ok(8, "directional energy claim")


def _determinism_scenario():
    return make_static_scenario(
        {0: (0.0, 0.0), 1: (80.0, 0.0), 2: (160.0, 0.0)},
        duration=40.0,
        radio_range=100.0,
        flows=(CbrFlow(source=0, destination=2, packet_size=128, rate=1.0,
                       start=15.0, duration=10.0),),
    )


def test_criterion_09_parallel_determinism():
    scn = _determinism_scenario()
    results = {}
    for workers in (1, 8):
        settings = GaSettings(pop_size=8, generations=2, workers=workers, master_seed=5)
        best, history = evolve(settings, SPACE, scn, NIC)
        results[workers] = (best.genes, best.fitness, history)
    assert results[1] == results[8]
    ok(9, "parallel determinism")


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 8,
    reason=f"host has {os.cpu_count()} CPU core(s); the speedup half of "
    "criterion 9 is only meaningful on >= 8 cores",
)
def test_criterion_09_parallel_scaling():
    import time

    scn = _determinism_scenario()
    pad = 0.1  # >= 100 ms per evaluation
    times = {}
    for workers in (1, 8):
        settings = GaSettings(pop_size=24, generations=2, workers=workers, master_seed=5)
        t0 = time.perf_counter()
        evolve(settings, SPACE, scn, NIC, eval_pad_s=pad)
        times[workers] = time.perf_counter() - t0
    s8 = times[1] / times[8]
    assert s8 >= 5.0, f"S_8 = {s8:.2f}"
    ok(9, f"parallel scaling, S_8 = {s8:.2f}")


def test_criterion_10_statistics_oracles():
    tol = 1e-6

    res = friedman_ranks([[1, 2, 3], [3, 2, 1]])
    assert abs(res.statistic - 0.0) <= tol
    assert res.auxiliary["avg_ranks"] == pytest.approx((2.0, 2.0, 2.0), abs=tol)

    res = wilcoxon_signed_rank([2, 1, 4], [1, 3, 1])  # diffs +1, -2, +3
    assert abs(res.auxiliary["w_plus"] - 4.0) <= tol
    assert abs(res.auxiliary["w_minus"] - 2.0) <= tol
    res = wilcoxon_signed_rank([2, 3, 4, 5, 6], [1, 2, 3, 4, 5])
    assert abs(res.auxiliary["w_plus"] - 15.0) <= tol

    assert abs(kruskal_wallis([[1, 2], [3, 4]]).statistic - 2.4) <= tol
    assert abs(kruskal_wallis([[10, 30], [20, 40]]).statistic - 0.6) <= tol

    # two-point sample: D = Phi(1/sqrt(2)) - 1/2 = erf(1/2)/2
    res = ks_normality([-1.0, 1.0])
    assert abs(res.statistic - 0.5 * math.erf(0.5)) <= tol
    ok(10, "statistics oracles")
