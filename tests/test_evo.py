"""Fitness function, operators, and the evolutionary loop."""

import gc
import hashlib
import math
import multiprocessing
import random
import weakref

import pytest

from conftest import make_static_scenario, line_positions
from olsrtune import evo
from olsrtune.errors import ConfigurationError, DomainError
from olsrtune.evo import (
    MUTATION_MOVES,
    WORST_FITNESS,
    FitnessContext,
    GaSettings,
    Individual,
    arithmetic_crossover,
    blend,
    calibrate_context,
    diagonal_init,
    eval_seed,
    evolve,
    fitness,
    mutate,
    parameter_setting_grid,
    penalized_fitness,
    score,
    tournament_select,
)
from olsrtune.olsr import decode_genome, default_param_space, rfc_default
from olsrtune.scenario import CbrFlow
from olsrtune.sim import default_nic

SPACE = default_param_space()
CTX = FitnessContext(e_rfc=9104.19, pdr_rfc=87.12)


def tiny_scenario():
    return make_static_scenario(
        line_positions(3),
        duration=40.0,
        radio_range=120.0,
        flows=(CbrFlow(source=0, destination=2, packet_size=128, rate=1.0,
                       start=15.0, duration=10.0),),
    )


class TestFitness:
    def test_reference_config_scores_near_one_minus_pdr_term(self):
        f = fitness(CTX.e_rfc, CTX.pdr_rfc, CTX)
        assert f == pytest.approx(0.1 + 0.9 - 0.1 * 87.12 / 100.0)

    def test_weights_validated(self):
        with pytest.raises(ConfigurationError):
            FitnessContext(e_rfc=0.0, pdr_rfc=50.0)

    def test_penalty_only_below_admission(self):
        threshold = CTX.admission * CTX.pdr_rfc
        f, pen = score(5000.0, threshold, CTX)
        assert not pen
        f2, pen2 = score(5000.0, threshold - 0.01, CTX)
        assert pen2
        assert f2 > fitness(5000.0, threshold - 0.01, CTX)

    def test_penalized_value(self):
        # hand-computed: fitness + 0.85 * pdr-shortfall-fraction * energy-ratio
        e, pdr = 5000.0, 40.0
        expected = (
            0.1 + 0.9 * e / CTX.e_rfc - 0.1 * pdr / 100.0
            + 0.85 * (CTX.pdr_rfc - pdr) / CTX.pdr_rfc * e / CTX.e_rfc
        )
        assert penalized_fitness(e, pdr, CTX) == pytest.approx(expected, rel=1e-12)

    def test_worst_sentinel_matches_reference_energy_zero_pdr(self):
        # delta + w1 + admission: the score of burning the full reference
        # energy while delivering nothing, for any context
        assert WORST_FITNESS == pytest.approx(penalized_fitness(CTX.e_rfc, 0.0, CTX))
        other = FitnessContext(e_rfc=123.0, pdr_rfc=55.0)
        assert WORST_FITNESS == pytest.approx(penalized_fitness(other.e_rfc, 0.0, other))


class TestDiagonalInit:
    def test_band_membership(self):
        rng = random.Random(0)
        pop = 24
        for ind in diagonal_init(SPACE, pop, rng):
            g, p = ind.genes, ind.id[1]
            for k in range(SPACE.n_genes):
                lo, hi = SPACE.bounds[k]
                span = hi - lo
                assert lo <= g[k] <= hi
                if k in SPACE.integer_genes:
                    continue  # rounded separately
                # unwrapped offset from the default must fall in band p
                offset = (g[k] - SPACE.rfc[k]) % span
                assert p / pop * span - 1e-9 <= offset <= (p + 1) / pop * span + 1e-9

    def test_willingness_integral(self):
        rng = random.Random(1)
        for ind in diagonal_init(SPACE, 10, rng):
            assert ind.genes[3] == int(ind.genes[3])
            assert 0 <= ind.genes[3] <= 7

    def test_deterministic(self):
        a = diagonal_init(SPACE, 8, random.Random(42))
        b = diagonal_init(SPACE, 8, random.Random(42))
        assert [i.genes for i in a] == [i.genes for i in b]
        assert all(SPACE.clip(i.genes) == i.genes for i in a)


class TestCrossover:
    def test_blend_conserves_sums(self):
        rng = random.Random(3)
        for _ in range(200):
            p = tuple(rng.uniform(0, 100) for _ in range(8))
            q = tuple(rng.uniform(0, 100) for _ in range(8))
            sigma = rng.random()
            c1, c2 = blend(p, q, sigma)
            for a, b, x, y in zip(p, q, c1, c2):
                assert x + y == pytest.approx(a + b, rel=1e-9)

    def test_sigma_one_copies_parents(self):
        p = SPACE.rfc
        q = tuple(lo for lo, _hi in SPACE.bounds)
        c1, c2 = arithmetic_crossover(p, q, 1.0, SPACE)
        assert c1 == tuple(map(float, p))
        assert c2 == tuple(map(float, q))

    def test_children_in_bounds(self):
        rng = random.Random(4)
        for _ in range(200):
            p = tuple(rng.uniform(lo, hi) for lo, hi in SPACE.bounds)
            q = tuple(rng.uniform(lo, hi) for lo, hi in SPACE.bounds)
            for child in arithmetic_crossover(p, q, 0.5 + 0.5 * rng.random(), SPACE):
                for k, g in enumerate(child):
                    lo, hi = SPACE.bounds[k]
                    assert lo <= g <= hi
                assert child[3] == int(child[3])
                assert SPACE.clip(child) == child

    def test_bad_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            arithmetic_crossover(SPACE.rfc, SPACE.rfc, 1.5, SPACE)


class TestMutate:
    def test_closure_under_many_applications(self):
        rng = random.Random(5)
        genes = tuple(map(float, SPACE.rfc))
        for _ in range(10_000):
            genes = mutate(genes, rng, SPACE)
            for k, g in enumerate(genes):
                lo, hi = SPACE.bounds[k]
                assert lo <= g <= hi
            assert genes[3] == int(genes[3])
            assert SPACE.clip(genes) == genes

    def test_decodes_to_valid_config(self):
        rng = random.Random(6)
        genes = tuple(map(float, SPACE.rfc))
        for _ in range(500):
            genes = mutate(genes, rng, SPACE)
            decode_genome(genes, SPACE)  # must not raise

    def test_deterministic(self):
        a = mutate(SPACE.rfc, random.Random(7), SPACE)
        b = mutate(SPACE.rfc, random.Random(7), SPACE)
        assert a == b

    def test_catalog_size(self):
        assert MUTATION_MOVES == 22

    def test_catalogue_digest(self):
        # pins each move's action, genes and rng draws, and the order of
        # the rows: sha256 of 5,000 chained mutations
        rng = random.Random(14)
        genes = tuple(map(float, SPACE.rfc))
        digest = hashlib.sha256()
        for _ in range(5_000):
            genes = mutate(genes, rng, SPACE)
            digest.update(repr(genes).encode())
        assert digest.hexdigest() == (
            "0b402675db253e5fdd57321c77120777d62ad8a9595548e43906b6d851038b14"
        )


class TestTournament:
    def pop(self, fs):
        return [
            Individual(genes=SPACE.rfc, id=(0, i),
                       fitness=_rec(f))
            for i, f in enumerate(fs)
        ]

    def test_picks_better_of_two(self):
        population = self.pop([0.9, 0.1])
        rng = random.Random(0)
        for _ in range(50):
            assert tournament_select(population, rng).id[1] == 1

    def test_tie_goes_to_lower_index(self):
        population = self.pop([0.5, 0.5])
        rng = random.Random(0)
        for _ in range(50):
            assert tournament_select(population, rng).id[1] == 0

    def test_small_population_rejected(self):
        with pytest.raises(DomainError):
            tournament_select(self.pop([0.5]), random.Random(0))


def _rec(f):
    from olsrtune.evo import FitnessRecord

    return FitnessRecord(f=f, penalized=False, energy=1.0, pdr=100.0)


class TestSettings:
    def test_odd_population_rejected(self):
        with pytest.raises(ConfigurationError):
            GaSettings(pop_size=7)

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            GaSettings(p_c=1.2)

    def test_elitism_bound(self):
        with pytest.raises(ConfigurationError):
            GaSettings(pop_size=4, elitism=4)


class TestEvalSeed:
    def test_pure_function_of_coordinates(self):
        assert eval_seed(1, 2, 3) == eval_seed(1, 2, 3)
        assert eval_seed(1, 2, 3) != eval_seed(1, 3, 2)
        assert eval_seed(1, 2, 3) != eval_seed(2, 2, 3)


class TestEvolve:
    def settings(self, **kw):
        base = dict(pop_size=4, generations=2, p_c=0.7, p_m=0.25, master_seed=11)
        base.update(kw)
        return GaSettings(**base)

    def test_calibration(self):
        scn = tiny_scenario()
        ctx = calibrate_context(scn, default_nic(), 11)
        assert ctx.e_rfc > 0
        assert 0 < ctx.pdr_rfc <= 100

    def test_deterministic_repeat(self):
        scn = tiny_scenario()
        best1, hist1 = evolve(self.settings(), SPACE, scn, default_nic())
        best2, hist2 = evolve(self.settings(), SPACE, scn, default_nic())
        assert best1.genes == best2.genes
        assert hist1 == hist2

    def test_history_shape_and_monotone_best(self):
        scn = tiny_scenario()
        _best, hist = evolve(self.settings(generations=3), SPACE, scn, default_nic())
        assert len(hist) == 4
        assert [h.generation for h in hist] == [0, 1, 2, 3]
        # elitism keeps the per-generation best from regressing
        bests = [h.best_f for h in hist]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bests, bests[1:]))

    def test_zero_generations_returns_initial_best(self):
        scn = tiny_scenario()
        best, hist = evolve(self.settings(generations=0), SPACE, scn, default_nic())
        assert len(hist) == 1
        assert best.id[0] == 0

    def test_in_process_evolve_frees_scenario(self):
        scn = tiny_scenario()
        ref = weakref.ref(scn)
        evolve(self.settings(generations=1), SPACE, scn, default_nic())
        del scn
        gc.collect()
        assert ref() is None

    def test_rfc_config_not_worse_than_sentinel(self):
        scn = tiny_scenario()
        best, _hist = evolve(self.settings(), SPACE, scn, default_nic())
        assert best.fitness.f < WORST_FITNESS

    def test_failed_evaluation_gets_sentinel(self):
        ctx = FitnessContext(e_rfc=100.0, pdr_rfc=90.0)
        from olsrtune.evo import evaluate

        bad = Individual(genes=(math.nan,) * 8, id=(0, 0))
        rec = evaluate(bad, tiny_scenario(), default_nic(), ctx, 1, SPACE)
        assert rec.f == WORST_FITNESS
        assert rec.penalized

    def test_package_error_in_simulation_gets_sentinel(self, monkeypatch):
        def fail(*_args, **_kwargs):
            raise DomainError("injected")

        monkeypatch.setattr(evo, "run_simulation", fail)
        ctx = FitnessContext(e_rfc=100.0, pdr_rfc=90.0)
        best, hist = evolve(self.settings(generations=1), SPACE, tiny_scenario(),
                            default_nic(), ctx)
        assert best.fitness.f == WORST_FITNESS
        assert [h.penalized_count for h in hist] == [4, 4]

    @pytest.mark.parametrize("workers", [
        1,
        pytest.param(2, marks=pytest.mark.skipif(
            multiprocessing.get_start_method() != "fork",
            reason="only forked pool workers see the patched run_simulation")),
    ])
    def test_bug_in_simulation_aborts_evolve(self, monkeypatch, workers):
        # the pool forks after the patch, so its workers raise too
        def bug(*_args, **_kwargs):
            raise TypeError("injected")

        monkeypatch.setattr(evo, "run_simulation", bug)
        ctx = FitnessContext(e_rfc=100.0, pdr_rfc=90.0)
        with pytest.raises(TypeError, match="injected"):
            evolve(self.settings(workers=workers), SPACE, tiny_scenario(), default_nic(), ctx)


class TestParameterGrid:
    def test_grid_shape_and_determinism(self):
        scn = tiny_scenario()
        rows = parameter_setting_grid(
            [0.5, 0.9], [0.25], 2,
            GaSettings(pop_size=4, generations=1, master_seed=3),
            SPACE, scn, default_nic(),
        )
        assert [(r["p_c"], r["p_m"]) for r in rows] == [(0.5, 0.25), (0.9, 0.25)]
        again = parameter_setting_grid(
            [0.5, 0.9], [0.25], 2,
            GaSettings(pop_size=4, generations=1, master_seed=3),
            SPACE, scn, default_nic(),
        )
        assert rows == again

    def test_illegal_cell_rejected_before_any_run(self, monkeypatch):
        def no_run(*_args):
            raise AssertionError("ran before every cell was checked")

        monkeypatch.setattr(evo, "calibrate_context", no_run)
        monkeypatch.setattr(evo, "evolve", no_run)
        with pytest.raises(ConfigurationError):
            parameter_setting_grid([0.5, 2.0], [0.25], 1,
                                   GaSettings(pop_size=4, generations=1),
                                   SPACE, tiny_scenario(), default_nic())

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            parameter_setting_grid([], [0.25], 1,
                                   GaSettings(pop_size=4, generations=1),
                                   SPACE, tiny_scenario(), default_nic())


def test_rfc_default_decodes_from_space_reference():
    assert decode_genome(SPACE.rfc, SPACE) == rfc_default()
