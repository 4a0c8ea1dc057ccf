"""Gap metrics, scaling math, rank tests, and the validation report."""

import math
import warnings

import pytest

from conftest import make_static_scenario, line_positions
from olsrtune import sim
from olsrtune.analysis import (
    bench_result,
    efficiency,
    friedman_ranks,
    gap_energy,
    gap_pdr,
    kruskal_wallis,
    ks_normality,
    report_text,
    speedup,
    validation_report,
    wilcoxon_signed_rank,
)
from olsrtune.errors import DomainError
from olsrtune.olsr import rfc_default
from olsrtune.scenario import CbrFlow
from olsrtune.sim import default_nic


class TestGaps:
    def test_self_gap_zero(self):
        assert gap_energy(9104.19, 9104.19) == 0.0
        assert gap_pdr(87.12, 87.12) == 0.0

    def test_energy_gap_sign(self):
        assert gap_energy(50.0, 100.0) == pytest.approx(0.5)  # savings positive
        assert gap_energy(150.0, 100.0) == pytest.approx(-0.5)

    def test_pdr_gap_is_absolute_points(self):
        # denominator is 100, not the reference PDR
        assert gap_pdr(40.0, 50.0) == pytest.approx(0.10)

    def test_nonpositive_reference_rejected(self):
        with pytest.raises(DomainError):
            gap_energy(1.0, 0.0)


class TestSpeedupEfficiency:
    def test_identities(self):
        assert speedup(5.0, 5.0) == 1.0
        assert speedup(2.0, 1.0) == 2.0
        assert efficiency(8.0, 8) == 1.0

    def test_linear_speedup_identity(self):
        t = 3.7
        m = 16
        assert efficiency(speedup(t * m, t), m) == pytest.approx(1.0)

    def test_nonpositive_times_rejected(self):
        with pytest.raises(DomainError):
            speedup(0.0, 1.0)
        with pytest.raises(DomainError):
            speedup(1.0, -2.0)
        with pytest.raises(DomainError):
            efficiency(1.0, 0)


class TestBenchResult:
    def test_baseline_normalization(self):
        res = bench_result({1: [10.0, 12.0], 4: [3.0, 4.0]})
        assert res.worker_counts == (1, 4)
        assert res.mean_times == (11.0, 3.5)
        assert res.speedups[0] == pytest.approx(1.0)
        assert res.efficiencies[0] == pytest.approx(1.0)
        assert res.speedups[1] == pytest.approx(11.0 / 3.5)

    def test_single_count(self):
        res = bench_result({1: [2.0]})
        assert res.speedups == (1.0,)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            bench_result({})

    def test_count_without_samples_rejected(self):
        with pytest.raises(DomainError):
            bench_result({1: [2.0], 2: []})


class TestFriedman:
    def test_hand_case_statistic_zero(self):
        res = friedman_ranks([[1, 2, 3], [3, 2, 1]])
        assert res.auxiliary["avg_ranks"] == pytest.approx((2.0, 2.0, 2.0))
        assert res.statistic == pytest.approx(0.0, abs=1e-12)

    def test_dominant_treatment_rank_one(self):
        res = friedman_ranks([[1, 5, 9], [2, 7, 8], [0, 3, 4]])
        assert res.auxiliary["avg_ranks"][0] == pytest.approx(1.0)

    def test_all_ties_rank_center(self):
        res = friedman_ranks([[4, 4, 4], [7, 7, 7]])
        assert res.auxiliary["avg_ranks"] == pytest.approx((2.0, 2.0, 2.0))

    def test_avg_ranks_sum_invariant(self):
        res = friedman_ranks([[3, 1, 4], [1, 5, 9], [2, 6, 5]])
        k = 3
        assert sum(res.auxiliary["avg_ranks"]) == pytest.approx(k * (k + 1) / 2)

    def test_single_treatment_rejected(self):
        with pytest.raises(DomainError):
            friedman_ranks([[1], [2]])

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            friedman_ranks([[1, math.nan, 3], [2, 1, 3]])


class TestWilcoxon:
    def test_hand_case(self):
        # diffs +1, -2, +3 -> |d| ranks 1, 2, 3 -> W+ = 4, W- = 2
        res = wilcoxon_signed_rank([2, 1, 4], [1, 3, 1])
        assert res.auxiliary["w_plus"] == pytest.approx(4.0)
        assert res.auxiliary["w_minus"] == pytest.approx(2.0)

    def test_all_positive(self):
        res = wilcoxon_signed_rank([2, 3, 4, 5, 6], [1, 2, 3, 4, 5])
        assert res.auxiliary["w_plus"] == pytest.approx(15.0)
        assert res.auxiliary["w_minus"] == pytest.approx(0.0)
        assert res.auxiliary["positive_count"] == 5

    def test_w_sum_invariant(self):
        a = [5, 1, 7, 3, 9, 2]
        b = [4, 2, 5, 8, 1, 6]
        res = wilcoxon_signed_rank(a, b)
        n = res.auxiliary["n"]
        assert res.auxiliary["w_plus"] + res.auxiliary["w_minus"] == pytest.approx(
            n * (n + 1) / 2
        )

    def test_zero_diffs_dropped(self):
        res = wilcoxon_signed_rank([1, 2, 5], [1, 3, 2])
        assert res.auxiliary["n"] == 2

    def test_identical_samples_rejected(self):
        with pytest.raises(DomainError):
            wilcoxon_signed_rank([1, 2, 3], [1, 2, 3])

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            wilcoxon_signed_rank([1, math.nan, 3], [2, 1, 4])


class TestKruskal:
    def test_hand_case(self):
        # pooled ranks 1..4; R1 = 3, R2 = 7 -> H = 0.6*(9/2 + 49/2) - 15 = 2.4
        res = kruskal_wallis([[1, 2], [3, 4]])
        assert res.statistic == pytest.approx(2.4, abs=1e-9)

    def test_interleaved_hand_case(self):
        # ranks {1, 3} and {2, 4}: R1 = 4, R2 = 6 -> H = 0.6*(8 + 18) - 15 = 0.6
        res = kruskal_wallis([[10, 30], [20, 40]])
        assert res.statistic == pytest.approx(0.6, abs=1e-9)

    def test_monotone_invariance(self):
        groups = [[1.0, 4.0, 2.0], [3.0, 8.0], [5.0, 0.5]]
        transformed = [[math.exp(v) for v in g] for g in groups]
        a = kruskal_wallis(groups)
        b = kruskal_wallis(transformed)
        assert a.statistic == pytest.approx(b.statistic, rel=1e-12)

    def test_avg_ranks(self):
        res = kruskal_wallis([[1, 2], [3, 4]])
        assert res.auxiliary["avg_ranks"] == pytest.approx((1.5, 3.5))

    def test_identical_pool_rejected(self):
        with pytest.raises(DomainError):
            kruskal_wallis([[5, 5], [5, 5]])

    def test_identical_pool_rejected_without_warning(self):
        # rejected by our own check, before SciPy divides by a zero tie factor
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError):
                kruskal_wallis([[5, 5], [5, 5]])

    def test_constant_groups_distinct_pool(self):
        # pooled ranks: the 1s share 2, the 2s share 6 -> R = 6, 18, 12;
        # uncorrected H = 12/72 * (12 + 108 + 72) - 27 = 5; tie factor
        # 1 - (24 + 120)/504 = 5/7 -> H = 7
        res = kruskal_wallis([[1, 1, 1], [2, 2, 2], [2, 2]])
        assert res.statistic == pytest.approx(7.0, abs=1e-9)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            kruskal_wallis([[1, math.nan], [2, 3]])


class TestKsNormality:
    def test_two_point_hand_case(self):
        # fit: mean 0, sd sqrt(2); Phi(1/sqrt(2)) = 0.5*(1+erf(0.5))
        res = ks_normality([-1.0, 1.0])
        phi = 0.5 * (1.0 + math.erf(0.5))
        assert res.statistic == pytest.approx(phi - 0.5, abs=1e-12)

    def test_affine_invariance(self):
        base = [0.3, 1.7, -2.1, 0.9, 4.2]
        scaled = [5.0 * v - 3.0 for v in base]
        assert ks_normality(base).statistic == pytest.approx(
            ks_normality(scaled).statistic, rel=1e-12
        )

    def test_near_normal_quantiles_small_d(self):
        from statistics import NormalDist

        nd = NormalDist(0.0, 1.0)
        n = 40
        xs = [nd.inv_cdf((2 * i - 1) / (2 * n)) for i in range(1, n + 1)]
        res = ks_normality(xs)
        assert res.statistic <= 1 / (2 * n) + 0.05

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            ks_normality([3.0, 3.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            ks_normality([1.0, bad, 3.0])

    def test_p_value_omitted(self):
        assert ks_normality([-1.0, 0.0, 2.0]).p_value is None

    def test_overflowing_spread_rejected_without_warning(self):
        # finite values whose sd overflows float64
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError):
                ks_normality([1e308, -1e308, 0.0])


class TestValidationReport:
    def scenarios(self):
        flows = (CbrFlow(source=0, destination=2, packet_size=128, rate=1.0,
                         start=15.0, duration=10.0),)
        a = make_static_scenario(line_positions(3), duration=40.0, radio_range=120.0,
                                 flows=flows)
        b = make_static_scenario(line_positions(3, spacing=80.0), duration=40.0,
                                 radio_range=120.0, flows=flows)
        return [("small", a), ("small", b)]

    def test_duplicate_configs_identical_rows(self):
        report = validation_report(
            [("one", rfc_default()), ("two", rfc_default())],
            self.scenarios(), default_nic(), seeds=[1],
        )
        labels = [label for label, _rows in report.sections]
        assert labels == ["small", "overall"]
        for _label, rows in report.sections:
            cols = [c for c in rows[0] if not c.endswith("_best") and c != "config"]
            for c in cols:
                assert rows[0][c] == rows[1][c]

    def test_overall_averages_match_single_class(self):
        report = validation_report([("rfc", rfc_default())], self.scenarios(),
                                   default_nic(), seeds=[1, 2])
        by_label = dict(report.sections)
        assert by_label["small"][0]["e_total_mj"] == pytest.approx(
            by_label["overall"][0]["e_total_mj"]
        )
        assert report.runs == 4 and report.failures == 0

    def test_best_flag_present(self):
        report = validation_report([("rfc", rfc_default())], self.scenarios(),
                                   default_nic(), seeds=[1])
        _label, rows = report.sections[0]
        assert rows[0].get("e_total_mj_best") is True

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            validation_report([], self.scenarios(), default_nic(), [1])

    def test_package_error_counted_as_failure(self, monkeypatch):
        def fail(*_args):
            raise DomainError("injected")

        monkeypatch.setattr(sim, "run_simulation", fail)
        report = validation_report([("rfc", rfc_default())], self.scenarios(),
                                   default_nic(), seeds=[1, 2])
        assert report.runs == 4 and report.failures == 4

    def test_bug_in_simulation_propagates(self, monkeypatch):
        def bug(*_args):
            raise TypeError("injected")

        monkeypatch.setattr(sim, "run_simulation", bug)
        with pytest.raises(TypeError, match="injected"):
            validation_report([("rfc", rfc_default())], self.scenarios(),
                              default_nic(), seeds=[1])

    def test_text_render(self):
        report = validation_report([("rfc", rfc_default())], self.scenarios(),
                                   default_nic(), seeds=[1])
        txt = report_text(report)
        assert "== small ==" in txt and "*" in txt
