"""Master-slave parallel genetic algorithm over the OLSR parameter space.

The master owns all evolutionary state and randomness; fitness
evaluations (one simulation each) are farmed out to a fixed pool of
worker processes with a synchronous barrier per generation. Evaluation
seeds depend only on (master_seed, generation, index), so results are
bit-identical for any worker count. Every operator returns genes through
ParamSpace.clip, the one rule for a legal genome.

Fitness rewards energy savings relative to the standard-defaults
reference run and mildly rewards delivery; configurations whose PDR
falls below 85% of the reference get an additive penalty. Lower is
better throughout. An evaluation that fails with a package error
(OlsrTuneError) gets the WORST_FITNESS sentinel; any other exception is
a bug and aborts the run.
"""

from __future__ import annotations

import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .errors import ConfigurationError, DomainError, OlsrTuneError
from .olsr import ParamSpace, decode_genome, rfc_default
from .scenario import Scenario
from .seeding import derive_rng, derive_seed
from .sim import NicProfile, run_simulation

__all__ = [
    "Individual",
    "FitnessRecord",
    "FitnessContext",
    "GaSettings",
    "GenerationStats",
    "WORST_FITNESS",
    "fitness",
    "penalized_fitness",
    "score",
    "calibrate_context",
    "evaluate",
    "eval_seed",
    "diagonal_init",
    "arithmetic_crossover",
    "blend",
    "mutate",
    "MUTATION_MOVES",
    "tournament_select",
    "evolve",
    "parameter_setting_grid",
    "GRID_COLUMNS",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FitnessContext:
    """Reference values of the fitness function; its weights are fixed."""

    e_rfc: float
    pdr_rfc: float
    w1: ClassVar[float] = 0.9
    w2: ClassVar[float] = -0.1
    delta: ClassVar[float] = 0.1
    pdr_max: ClassVar[float] = 100.0
    admission: ClassVar[float] = 0.85  # PDR floor as a fraction of the reference

    def __post_init__(self):
        if self.e_rfc <= 0:
            raise ConfigurationError("e_rfc must be positive")
        if not 0 < self.pdr_rfc <= 100:
            raise ConfigurationError("pdr_rfc must be in (0, 100]")


# sentinel for an evaluation that raised OlsrTuneError: the penalized score
# of burning the reference energy while delivering nothing. A run with
# E > E_ref and a low PDR scores higher.
WORST_FITNESS = FitnessContext.delta + FitnessContext.w1 + FitnessContext.admission


def fitness(energy: float, pdr: float, ctx: FitnessContext) -> float:
    """Unpenalized fitness: delta + w1*E/E_ref + w2*PDR/PDR_max."""
    return ctx.delta + ctx.w1 * energy / ctx.e_rfc + ctx.w2 * pdr / ctx.pdr_max


def penalized_fitness(energy: float, pdr: float, ctx: FitnessContext) -> float:
    """Fitness plus the low-PDR penalty (use when pdr < admission * ref)."""
    penalty = ctx.admission * (ctx.pdr_rfc - pdr) / ctx.pdr_rfc * energy / ctx.e_rfc
    return fitness(energy, pdr, ctx) + penalty


def score(energy: float, pdr: float, ctx: FitnessContext) -> tuple:
    """(f, penalized) applying the admission threshold."""
    if pdr < ctx.admission * ctx.pdr_rfc:
        return penalized_fitness(energy, pdr, ctx), True
    return fitness(energy, pdr, ctx), False


@dataclass(frozen=True)
class FitnessRecord:
    f: float
    penalized: bool
    energy: float  # millijoules
    pdr: float  # percent


@dataclass(frozen=True)
class Individual:
    genes: tuple
    id: tuple  # (generation, index)
    fitness: FitnessRecord | None = None


@dataclass(frozen=True)
class GaSettings:
    pop_size: int = 24
    p_c: float = 0.7
    p_m: float = 0.25
    generations: int = 100
    workers: int = 1
    master_seed: int = 1
    elitism: int = 1

    def __post_init__(self):
        if self.pop_size < 2 or self.pop_size % 2:
            raise ConfigurationError("pop_size must be even and >= 2")
        if not (0 <= self.p_c <= 1 and 0 <= self.p_m <= 1):
            raise ConfigurationError("p_c and p_m must be in [0, 1]")
        if self.generations < 0:
            raise ConfigurationError("generations must be >= 0")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if not 0 <= self.elitism < self.pop_size:
            raise ConfigurationError("elitism must be in [0, pop_size)")


def eval_seed(master_seed: int, generation: int, index: int) -> int:
    """Simulation seed for individual (generation, index): independent of
    worker count and scheduling by construction."""
    return derive_seed(master_seed, "eval", generation, index)


def calibrate_context(
    scenario: Scenario, nic: NicProfile, master_seed: int
) -> FitnessContext:
    """Measure the reference energy and PDR with one standard-defaults run
    seeded by the master seed."""
    m = run_simulation(scenario, rfc_default(), nic, master_seed)
    if m.pdr is None or m.pdr <= 0:
        raise DomainError("reference run delivered nothing; scenario unusable for tuning")
    return FitnessContext(e_rfc=m.energy.e_total, pdr_rfc=m.pdr)


def evaluate(
    ind: Individual,
    scenario: Scenario,
    nic: NicProfile,
    ctx: FitnessContext,
    master_seed: int,
    space: ParamSpace,
) -> FitnessRecord:
    """Decode, simulate with the seed eval_seed(master_seed, *ind.id), and
    score.

    A package error (OlsrTuneError, e.g. a genome that does not decode or
    a run that sends no data) gives the worst-fitness sentinel and is
    logged. Any other exception propagates and aborts the run.
    """
    seed = eval_seed(master_seed, *ind.id)
    try:
        config = decode_genome(ind.genes, space)
        metrics = run_simulation(scenario, config, nic, seed)
        if metrics.pdr is None:
            raise DomainError("no data traffic in evaluation run")
    except OlsrTuneError:
        log.exception("evaluation failed for individual %s", ind.id)
        return FitnessRecord(f=WORST_FITNESS, penalized=True, energy=math.inf, pdr=0.0)
    energy = metrics.energy.e_total
    f, penalized = score(energy, metrics.pdr, ctx)
    return FitnessRecord(f=f, penalized=penalized, energy=energy, pdr=metrics.pdr)


def _wrap(value: float, lo: float, hi: float) -> float:
    span = hi - lo
    return lo + ((value - lo) % span)


def diagonal_init(space: ParamSpace, pop_size: int, rng) -> list:
    """Seed individual p inside the p-th diagonal band of the space.

    Each gene starts from the standard default plus an offset covering
    ((p + beta)/pop_size) of the gene's span, wrapped back into range, so
    the initial population spreads across the whole space instead of
    clustering around the defaults.
    """
    if pop_size < 1:
        raise ConfigurationError("pop_size must be >= 1")
    population = []
    for p in range(pop_size):
        genes = []
        for i in range(space.n_genes):
            lo, hi = space.bounds[i]
            beta = rng.random()
            alpha = ((p + beta) / pop_size) * (hi - lo)
            genes.append(_wrap(space.rfc[i] + alpha, lo, hi))
        population.append(Individual(genes=space.clip(genes), id=(0, p)))
    return population


def blend(parent_p, parent_q, sigma: float) -> tuple:
    """Raw arithmetic blend, no rounding or clamping: children conserve
    per-gene sums for every sigma."""
    c1 = tuple(sigma * p + (1 - sigma) * q for p, q in zip(parent_p, parent_q))
    c2 = tuple((1 - sigma) * p + sigma * q for p, q in zip(parent_p, parent_q))
    return c1, c2


def arithmetic_crossover(parent_p, parent_q, sigma: float, space: ParamSpace) -> tuple:
    """Weighted recombination; the caller passes the fitter parent first
    so sigma >= 0.5 biases both children toward it."""
    if not 0 <= sigma <= 1:
        raise ConfigurationError("sigma must be in [0, 1]")
    c1, c2 = blend(parent_p, parent_q, sigma)
    return space.clip(c1), space.clip(c2)


# The mutation catalogue over the genome (hello, refresh, tc, willingness,
# neighb, mid, top, dup), one (action, genes) row per movement:
#   resample  draw each listed gene uniformly in its range, in list order
#   triple    genes (src, dst): dst = 3 * src, a standard ratio
#   scale     multiply the gene by a uniform factor in [0.5, 2]
#   step      move the gene by +1 or -1
#   reset     set one uniformly chosen listed gene to its default
_ALL_GENES = tuple(range(ParamSpace.n_genes))
_MOVES = (
    *(("resample", (k,)) for k in _ALL_GENES),
    ("resample", (0, 4)),  # hello + neighb
    ("resample", (2, 6)),  # tc + top
    ("resample", (2, 5)),  # tc + mid
    ("resample", (1, 0)),  # refresh + hello
    ("triple", (0, 4)),  # neighb = 3 * hello
    ("triple", (2, 6)),  # top = 3 * tc
    ("triple", (2, 5)),  # mid = 3 * tc
    ("scale", (0,)),
    ("scale", (2,)),
    ("step", (3,)),  # willingness
    ("resample", (4, 5, 6, 7)),  # the four hold times
    ("resample", (0, 1, 2)),  # the three intervals
    ("reset", _ALL_GENES),
    ("resample", _ALL_GENES),
)
MUTATION_MOVES = len(_MOVES)


def mutate(genes, rng, space: ParamSpace) -> tuple:
    """Apply one uniformly chosen movement of the _MOVES catalogue."""
    out = list(genes)
    action, idxs = rng.choice(_MOVES)
    if action == "resample":
        for k in idxs:
            lo, hi = space.bounds[k]
            out[k] = lo + rng.random() * (hi - lo)
    elif action == "triple":
        out[idxs[1]] = 3.0 * out[idxs[0]]
    elif action == "scale":
        out[idxs[0]] *= rng.uniform(0.5, 2.0)
    elif action == "step":
        out[idxs[0]] += 1.0 if rng.random() < 0.5 else -1.0
    else:  # reset
        k = rng.choice(idxs)
        out[k] = space.rfc[k]
    return space.clip(out)


def _rank_key(ind: Individual) -> tuple:
    return (ind.fitness.f, ind.id[1])


def tournament_select(population, rng) -> Individual:
    """Binary tournament, minimizing fitness; ties go to the lower index."""
    n = len(population)
    if n < 2:
        raise DomainError("population too small for a tournament")
    i = rng.randrange(n)
    j = rng.randrange(n - 1)
    if j >= i:
        j += 1
    a, b = population[i], population[j]
    return a if _rank_key(a) <= _rank_key(b) else b


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_f: float
    avg_f: float
    best_energy: float
    best_pdr: float
    penalized_count: int


# the constant evaluation payload (scenario, nic, ctx, space, master_seed,
# pad_s): set once per pool worker by the pool initializer, or in the
# master for an in-process run, and read by _evaluate
_payload = None


def _set_payload(payload):
    global _payload
    _payload = payload


def _evaluate(genes, ind_id) -> FitnessRecord:
    """The worker entry: evaluate one individual against the payload."""
    scenario, nic, ctx, space, master_seed, pad_s = _payload
    if pad_s > 0:
        time.sleep(pad_s)  # emulates a heavier simulator for scaling runs
    return evaluate(Individual(genes=genes, id=ind_id), scenario, nic, ctx, master_seed, space)


def _gen_stats(generation: int, population) -> GenerationStats:
    best = min(population, key=_rank_key)
    avg = float(np.mean([ind.fitness.f for ind in population]))
    return GenerationStats(
        generation=generation,
        best_f=best.fitness.f,
        avg_f=avg,
        best_energy=best.fitness.energy,
        best_pdr=best.fitness.pdr,
        penalized_count=sum(1 for ind in population if ind.fitness.penalized),
    )


def evolve(
    settings: GaSettings,
    space: ParamSpace,
    scenario: Scenario,
    nic: NicProfile,
    ctx: FitnessContext | None = None,
    eval_pad_s: float = 0.0,
) -> tuple:
    """Run the generational GA; returns (best Individual, history).

    If `ctx` is None the reference values are calibrated with one
    standard-defaults run seeded by the master seed. History holds one
    GenerationStats per generation including the initial population.
    `eval_pad_s` pads every evaluation (benchmark workloads only); it
    never changes the results.
    """
    if ctx is None:
        ctx = calibrate_context(scenario, nic, settings.master_seed)
    rng = derive_rng(settings.master_seed, "ga")
    payload = (scenario, nic, ctx, space, settings.master_seed, eval_pad_s)
    pool = None
    if settings.workers > 1:
        pool = ProcessPoolExecutor(settings.workers, initializer=_set_payload, initargs=(payload,))
        run_map = pool.map
    else:
        _set_payload(payload)
        run_map = map

    def evaluated(population) -> list:
        genes, ids = [ind.genes for ind in population], [ind.id for ind in population]
        records = run_map(_evaluate, genes, ids)
        return [replace(ind, fitness=rec) for ind, rec in zip(population, records)]

    try:
        population = evaluated(diagonal_init(space, settings.pop_size, rng))
        history = [_gen_stats(0, population)]
        best = min(population, key=_rank_key)

        for g in range(1, settings.generations + 1):
            offspring = []
            while len(offspring) < settings.pop_size:
                a = tournament_select(population, rng)
                b = tournament_select(population, rng)
                if _rank_key(b) < _rank_key(a):
                    a, b = b, a
                if rng.random() < settings.p_c:
                    sigma = 0.5 + 0.5 * rng.random()
                    g1, g2 = arithmetic_crossover(a.genes, b.genes, sigma, space)
                else:
                    g1, g2 = a.genes, b.genes
                for genes in (g1, g2):
                    if rng.random() < settings.p_m:
                        genes = mutate(genes, rng, space)
                    offspring.append(Individual(genes=genes, id=(g, len(offspring))))
            offspring = evaluated(offspring)

            # the elites replace the worst offspring; elitism 0 keeps all
            elite = sorted(population, key=_rank_key)[: settings.elitism]
            worst = sorted(offspring, key=_rank_key)[len(offspring) - settings.elitism :]
            worst_ids = {ind.id for ind in worst}
            population = [ind for ind in offspring if ind.id not in worst_ids] + elite

            gen_best = min(population, key=_rank_key)
            if gen_best.fitness.f < best.fitness.f:
                best = gen_best
            history.append(_gen_stats(g, population))
        return best, history
    finally:
        _set_payload(None)
        if pool is not None:
            pool.shutdown()


GRID_COLUMNS = (
    "p_c", "p_m", "avg_f", "stdev_f", "best_f", "avg_energy", "avg_pdr", "gap_energy", "gap_pdr"
)


def parameter_setting_grid(
    pc_values,
    pm_values,
    repetitions: int,
    base: GaSettings,
    space: ParamSpace,
    scenario: Scenario,
    nic: NicProfile,
    ctx: FitnessContext | None = None,
) -> list:
    """Run `evolve` for every (p_c, p_m) combination, `repetitions` times
    each with distinct derived seeds; one summary row per combination,
    keyed by GRID_COLUMNS."""
    from .analysis import gap_energy, gap_pdr

    if not pc_values or not pm_values or repetitions < 1:
        raise ConfigurationError("grid needs candidates and repetitions >= 1")
    if ctx is None:
        ctx = calibrate_context(scenario, nic, base.master_seed)
    rows = []
    for p_c in pc_values:
        for p_m in pm_values:
            finals = []
            energies = []
            pdrs = []
            for rep in range(repetitions):
                seed = derive_seed(base.master_seed, "grid", p_c, p_m, rep)
                settings = replace(base, p_c=p_c, p_m=p_m, master_seed=seed)
                best, _history = evolve(settings, space, scenario, nic, ctx)
                finals.append(best.fitness.f)
                energies.append(best.fitness.energy)
                pdrs.append(best.fitness.pdr)
            avg_e = float(np.mean(energies))
            avg_pdr = float(np.mean(pdrs))
            values = (
                p_c,
                p_m,
                float(np.mean(finals)),
                float(np.std(finals, ddof=1)) if repetitions > 1 else 0.0,
                float(min(finals)),
                avg_e,
                avg_pdr,
                gap_energy(avg_e, ctx.e_rfc),
                gap_pdr(avg_pdr, ctx.pdr_rfc),
            )
            rows.append(dict(zip(GRID_COLUMNS, values)))
    return rows
