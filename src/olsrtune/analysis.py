"""Post-run analytics: gap metrics, parallel speedup, rank statistics.

Gap metrics compare a tuned configuration against the standard-defaults
reference run; compare_against_reference and validation_report run the
simulations they summarize. validation_report takes (class label,
Scenario) pairs; `olsrtune validate` labels each scenario by its area.
Speedup/efficiency summarize scaling benchmarks. The nonparametric
tests (Friedman, Wilcoxon signed-rank, Kruskal-Wallis,
Kolmogorov-Smirnov normality check) are the ones a multi-run comparison
of stochastic optimizer results calls for; each imports SciPy itself.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import sim
from .errors import DomainError, OlsrTuneError
from .olsr import OlsrConfig, rfc_default
from .scenario import Scenario

__all__ = [
    "BenchResult",
    "RankTestResult",
    "gap_energy",
    "gap_pdr",
    "compare_against_reference",
    "speedup",
    "efficiency",
    "bench_result",
    "friedman_ranks",
    "wilcoxon_signed_rank",
    "kruskal_wallis",
    "ks_normality",
    "ValidationReport",
    "validation_report",
    "REPORT_COLUMNS",
    "report_text",
]

log = logging.getLogger(__name__)


def gap_energy(energy: float, e_rfc: float) -> float:
    """Fractional energy saving vs the reference; positive = savings."""
    if e_rfc <= 0:
        raise DomainError("reference energy must be positive")
    return (e_rfc - energy) / e_rfc


def gap_pdr(pdr: float, pdr_rfc: float) -> float:
    """PDR gap in fractional points, (reference - observed)/100; positive
    means delivery loss. Reports negate it for display."""
    return (pdr_rfc - pdr) / 100.0


def compare_against_reference(
    scenario: Scenario, config: OlsrConfig, nic: sim.NicProfile, seed: int
) -> tuple:
    """Run `config` and the standard defaults with the same seed; returns
    (metrics for config, reference metrics, (energy gap, pdr gap)), both
    gaps as fractions (gap_energy, gap_pdr)."""
    m_cfg = sim.run_simulation(scenario, config, nic, seed)
    m_rfc = sim.run_simulation(scenario, rfc_default(), nic, seed)
    gaps = (
        gap_energy(m_cfg.energy.e_total, m_rfc.energy.e_total),
        gap_pdr(m_cfg.pdr, m_rfc.pdr),
    )
    return m_cfg, m_rfc, gaps


def speedup(mean_t1: float, mean_tm: float) -> float:
    if mean_t1 <= 0 or mean_tm <= 0:
        raise DomainError("execution times must be positive")
    return mean_t1 / mean_tm


def efficiency(s_m: float, m: int) -> float:
    if m < 1:
        raise DomainError("worker count must be >= 1")
    return s_m / m


@dataclass(frozen=True)
class BenchResult:
    """Scaling benchmark summary over worker counts."""

    worker_counts: tuple
    mean_times: tuple  # seconds, aligned with worker_counts
    speedups: tuple
    efficiencies: tuple


def bench_result(times: dict) -> BenchResult:
    """Summarize {worker count -> list of wall times}; the smallest count
    (normally 1) is the sequential baseline. Raises DomainError if there
    are no worker counts or a count has no samples."""
    if not times:
        raise DomainError("no benchmark samples")
    for m, samples in times.items():
        if len(samples) == 0:
            raise DomainError(f"no benchmark samples for {m} workers")
    counts = tuple(sorted(times))
    means = tuple(float(np.mean(times[m])) for m in counts)
    base = means[0] * counts[0]  # time of one worker doing all the work
    sp = tuple(speedup(base, t) for t in means)
    eff = tuple(efficiency(s, m) for s, m in zip(sp, counts))
    return BenchResult(worker_counts=counts, mean_times=means, speedups=sp, efficiencies=eff)


@dataclass(frozen=True)
class RankTestResult:
    test: str
    statistic: float
    auxiliary: dict
    p_value: float | None


def _finite_floats(values) -> list:
    """The values as floats; NaN or an infinity raises DomainError, since
    ranking it gives a result that depends on the SciPy release."""
    xs = list(map(float, values))
    if not all(math.isfinite(v) for v in xs):
        raise DomainError("non-finite value in sample")
    return xs


def friedman_ranks(matrix) -> RankTestResult:
    """Friedman test over a subjects x treatments matrix.

    Each row is ranked ascending (ties get average ranks); the classic
    chi-square statistic is computed from the per-treatment rank sums.
    Raises DomainError for no subjects, fewer than 2 treatments, a ragged
    matrix, or a non-finite value.
    """
    from scipy import stats as sps

    rows = [_finite_floats(row) for row in matrix]
    if not rows:
        raise DomainError("no subjects")
    k = len(rows[0])
    if k < 2:
        raise DomainError("need at least 2 treatments")
    if any(len(r) != k for r in rows):
        raise DomainError("ragged matrix")
    n = len(rows)
    ranks = np.vstack([sps.rankdata(r) for r in rows])
    rank_sums = ranks.sum(axis=0)
    stat = 12.0 / (n * k * (k + 1)) * float(np.sum(rank_sums**2)) - 3.0 * n * (k + 1)
    p = float(sps.chi2.sf(stat, k - 1)) if stat >= 0 else 1.0
    return RankTestResult(
        test="friedman",
        statistic=float(stat),
        auxiliary={
            "avg_ranks": tuple(float(v) for v in rank_sums / n),
            "subjects": n,
            "treatments": k,
        },
        p_value=p,
    )


def wilcoxon_signed_rank(a, b) -> RankTestResult:
    """Paired Wilcoxon signed-rank test; zero differences are dropped and
    the p-value comes from the normal approximation.

    Raises DomainError for unpaired or empty samples, a non-finite value,
    or no nonzero difference.
    """
    from scipy import stats as sps

    a = _finite_floats(a)
    b = _finite_floats(b)
    if len(a) != len(b) or not a:
        raise DomainError("samples must be paired and non-empty")
    diffs = [x - y for x, y in zip(a, b) if x != y]
    if not diffs:
        raise DomainError("no nonzero pairs")
    n = len(diffs)
    ranks = sps.rankdata([abs(d) for d in diffs])
    w_plus = float(sum(r for d, r in zip(diffs, ranks) if d > 0))
    w_minus = float(sum(r for d, r in zip(diffs, ranks) if d < 0))
    pos = [r for d, r in zip(diffs, ranks) if d > 0]
    mean_w = n * (n + 1) / 4.0
    sd_w = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0)
    z = (w_plus - mean_w) / sd_w
    p = min(1.0, 2.0 * float(sps.norm.sf(abs(z))))
    return RankTestResult(
        test="wilcoxon_signed_rank",
        statistic=w_plus,
        auxiliary={
            "w_plus": w_plus,
            "w_minus": w_minus,
            "n": n,
            "positive_count": len(pos),
            "positive_mean_rank": float(np.mean(pos)) if pos else None,
            "positive_rank_sum": w_plus,
            "z": z,
        },
        p_value=p,
    )


def kruskal_wallis(groups) -> RankTestResult:
    """Kruskal-Wallis H test with the standard tie correction.

    Raises DomainError for fewer than 2 groups, an empty group, a
    non-finite value, or a pool whose values are all equal: there the tie
    correction is 0 and H is 0/0. Ties within groups are fine as long as
    the pool holds at least two distinct values.
    """
    from scipy import stats as sps

    groups = [_finite_floats(g) for g in groups]
    if len(groups) < 2 or any(not g for g in groups):
        raise DomainError("need at least 2 non-empty groups")
    pooled = [v for g in groups for v in g]
    if min(pooled) == max(pooled):
        raise DomainError("all pooled values are identical")
    h, p = sps.kruskal(*groups)
    if not (math.isfinite(h) and math.isfinite(p)):
        raise DomainError(f"undefined Kruskal-Wallis result (H={h}, p={p})")
    ranks = sps.rankdata(pooled)
    avg = []
    k = 0
    for g in groups:
        avg.append(float(np.mean(ranks[k : k + len(g)])))
        k += len(g)
    return RankTestResult(
        test="kruskal_wallis",
        statistic=float(h),
        auxiliary={"group_sizes": tuple(len(g) for g in groups), "avg_ranks": tuple(avg)},
        p_value=float(p),
    )


def ks_normality(sample) -> RankTestResult:
    """Kolmogorov-Smirnov distance between the sample ECDF and a normal
    fitted to the sample (mean, sd with n-1). Descriptive: no p-value.

    Raises DomainError for fewer than 2 observations, a non-finite value,
    a sample whose mean or sd overflows float64, or a constant sample.
    """
    from scipy import stats as sps

    xs = _finite_floats(sample)
    if len(xs) < 2:
        raise DomainError("need at least 2 observations")
    # a spread beyond the float64 range overflows to inf: raise DomainError
    # below instead of letting NumPy emit a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(xs))
        sd = float(np.std(xs, ddof=1))
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise DomainError("sample mean or spread overflows float64")
    if sd == 0:
        raise DomainError("constant sample")
    d = float(sps.kstest(xs, "norm", args=(mean, sd)).statistic)
    return RankTestResult(
        test="ks_normality",
        statistic=d,
        auxiliary={"mean": mean, "stdev": sd, "n": len(xs)},
        p_value=None,
    )


# validation report: averages per (scenario class, config) with Table-style
# columns; direction of "best" per column
_REPORT_COLS = (
    ("e_sent_mj", "min"),
    ("e_recv_mj", "min"),
    ("e_total_mj", "min"),
    ("e_total_per_vehicle_mj", "min"),
    ("pdr", "max"),
    ("e2ed_ms", "min"),
    ("nrl", "min"),
    ("hops", "min"),
)
# the metric columns of a report, in order, after its section and config
REPORT_COLUMNS = tuple(col for col, _dir in _REPORT_COLS)


@dataclass(frozen=True)
class ValidationReport:
    sections: tuple  # of (label, rows); each row: dict with config and column means
    runs: int
    failures: int


def validation_report(configs, scenarios, nic, seeds) -> ValidationReport:
    """Average every metric per configuration over (scenario x seed) runs.

    `configs` is a list of (name, OlsrConfig) and `scenarios` a list of
    (class label, Scenario). Emits one section per class plus an overall
    section; the best cell per column within each section is flagged. A
    run that raises OlsrTuneError is logged and counted in `failures`;
    any other exception is a bug and propagates.
    """
    if not configs or not scenarios:
        raise DomainError("need at least one config and one scenario")
    classes = list(dict.fromkeys(label for label, _s in scenarios))

    cells: dict = {}
    failures = 0
    runs = 0
    for name, config in configs:
        for label, scn in scenarios:
            for seed in seeds:
                runs += 1
                try:
                    m = sim.run_simulation(scn, config, nic, seed)
                except OlsrTuneError:
                    failures += 1
                    log.warning(
                        "run failed: config=%s class=%s seed=%s", name, label, seed, exc_info=True
                    )
                    continue
                doc = sim.metrics_to_json(m)
                for key in (label, "overall"):
                    bucket = cells.setdefault((key, name), {})
                    for col in REPORT_COLUMNS:
                        if doc[col] is not None:
                            bucket.setdefault(col, []).append(doc[col])

    sections = []
    for label in classes + ["overall"]:
        rows = []
        for name, _config in configs:
            bucket = cells.get((label, name), {})
            row = {"config": name}
            for col in REPORT_COLUMNS:
                vals = bucket.get(col)
                row[col] = float(np.mean(vals)) if vals else None
            rows.append(row)
        for col, direction in _REPORT_COLS:
            vals = [(r[col], i) for i, r in enumerate(rows) if r[col] is not None]
            if not vals:
                continue
            best = min(vals)[1] if direction == "min" else max(vals)[1]
            rows[best][f"{col}_best"] = True
        sections.append((label, tuple(rows)))
    return ValidationReport(sections=tuple(sections), runs=runs, failures=failures)


def report_text(report: ValidationReport) -> str:
    headers = ["config", *REPORT_COLUMNS]
    out = []
    for label, rows in report.sections:
        out.append(f"== {label} ==")
        table = [headers]
        for row in rows:
            cells = [row["config"]]
            for c in REPORT_COLUMNS:
                v = row[c]
                mark = "*" if row.get(f"{c}_best") else ""
                cells.append("-" if v is None else f"{v:.2f}{mark}")
            table.append(cells)
        widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
        for r in table:
            out.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
        out.append("")
    return "\n".join(out)
