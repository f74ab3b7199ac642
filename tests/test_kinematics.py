"""Kinematics: normalization constant, resonant fraction, in-fall times."""

import math

import numpy as np
import pytest

from cavloss import (DomainError, HumanUnitsConfig, collision_times,
                     fraction_f, g0_constant, kinematics, resolve_params,
                     total_time)
from cavloss.kinematics import _infall_integral
from oracles import (TWO_PI_MHZ, DenseFractionOracle, fraction_oracle,
                     g0_oracle, gauss_legendre_oracle, infall_integral_oracle,
                     total_time_oracle)

RB85 = resolve_params(HumanUnitsConfig())

DELTA_350 = -350.0 * TWO_PI_MHZ
DELTA_1000 = -1000.0 * TWO_PI_MHZ
OMEGA_200 = 200.0 * TWO_PI_MHZ
OMEGA_70 = 70.0 * TWO_PI_MHZ


class TestG0:
    def test_published_value(self):
        assert g0_constant() == pytest.approx(0.746, abs=1.0e-3)

    def test_against_simpson_oracle(self):
        # oracle value 0.7468342 (5 s.f.: 0.74683)
        oracle = g0_oracle()
        assert oracle == pytest.approx(0.74683, abs=5.0e-6)
        assert abs(g0_constant() - oracle) <= 1.0e-8

    def test_normalizes_fraction_to_one(self):
        # r -> 0 is reached by an overwhelming coupling-to-detuning ratio
        assert fraction_f(-1.0, 1.0e30) == pytest.approx(1.0, abs=1.0e-9)

    def test_cached_value_stable(self):
        assert g0_constant() == g0_constant()

    def test_branches_agree_at_half(self):
        # r >= 1/2 integrates the tail directly; r < 1/2 subtracts the head
        # from the closed-form g0, so agreement checks g0 against the rule
        below = _infall_integral(math.nextafter(0.5, 0.0))
        assert abs(_infall_integral(0.5) - below) <= 1.0e-15


def node_by_node(r_ratio):
    """_infall_integral with the rule taken one node per call."""
    tail = r_ratio >= 0.5
    value = np.empty_like(r_ratio)
    value[tail] = gauss_legendre_oracle(kinematics._regular_integrand,
                                        np.sqrt(1.0 - r_ratio[tail]))
    value[~tail] = g0_constant() - gauss_legendre_oracle(
        kinematics._head_integrand, np.sqrt(r_ratio[~tail]))
    return value


#: grid sizes at the rule's block edges: 14 nodes per block up to
#: BUDGET // 14 points and 13 just past it; BUDGET // n falls to 0 past
#: BUDGET, where the rule still takes one node per block
BUDGET = kinematics._BLOCK_ELEMENTS
BLOCK_EDGES = [1, 2, 3, BUDGET // 14, BUDGET // 14 + 1,
               BUDGET - 1, BUDGET, BUDGET + 1, 20_000]


class TestBlockedRule:
    @pytest.mark.parametrize("size", BLOCK_EDGES)
    @pytest.mark.parametrize("low, high", [(0.0, 0.5), (0.5, 1.0), (0.0, 1.0)],
                             ids=["head", "tail", "mixed"])
    def test_equals_node_by_node_bitwise(self, size, low, high):
        r_ratio = np.random.default_rng(size).uniform(low, high, size)
        assert _infall_integral(r_ratio).tobytes() \
            == node_by_node(r_ratio).tobytes()

    def test_literals_are_numpy_leggauss_bitwise(self):
        # the rule is written out so that importing it costs no
        # numpy.polynomial; the literals must be leggauss(14) to the bit
        from numpy.polynomial.legendre import leggauss
        nodes, weights = leggauss(14)
        assert [x.hex() for x in kinematics._NODES.tolist()] \
            == [x.hex() for x in (0.5 * (nodes + 1.0)).tolist()]
        assert [w.hex() for w in kinematics._WEIGHTS.tolist()] \
            == [w.hex() for w in (0.5 * weights).tolist()]

    def test_grid_elements_equal_single_points_bitwise(self):
        r_ratio = np.random.default_rng(7).uniform(0.0, 1.0, 300)
        r_ratio[:4] = [0.0, 0.5, math.nextafter(0.5, 0.0), 1.0]
        alone = [_infall_integral(r) for r in r_ratio.tolist()]
        assert _infall_integral(r_ratio).tobytes() == np.array(alone).tobytes()


class TestFraction:
    def test_reference_point(self):
        # frozen from the Simpson oracle: fraction_oracle(-350, 200) MHz
        f = fraction_f(DELTA_350, OMEGA_200)
        assert f == pytest.approx(0.5508884590, abs=1.0e-8)
        assert f == pytest.approx(0.55, abs=1.0e-2)

    def test_zero_coupling_empty_interval(self):
        assert fraction_f(DELTA_350, 0.0) == 0.0

    def test_large_detuning_point(self):
        # frozen from the Simpson oracle: fraction_oracle(-1000, 70) MHz
        f = fraction_f(DELTA_1000, OMEGA_70)
        assert f == pytest.approx(0.2291682886, abs=1.0e-8)

    def test_matches_oracle_on_grid(self):
        for omega_mhz in np.linspace(10.0, 800.0, 20):
            mine = fraction_f(DELTA_350, omega_mhz * TWO_PI_MHZ)
            ref = fraction_oracle(DELTA_350, omega_mhz * TWO_PI_MHZ,
                                  panels=200_000)
            assert abs(mine - ref) <= 1.0e-8

    def test_matches_dense_oracle(self):
        # random r over (0, 1) reaches both branches of the rule
        oracle = DenseFractionOracle(nodes=2**21)
        rng = np.random.default_rng(7)
        for r in rng.uniform(0.0, 1.0, 200):
            omega = r**-3 - 1.0
            ratio = (1.0 + omega) ** (-1.0 / 3.0)
            assert abs(fraction_f(-1.0, omega) - oracle.fraction(ratio)) \
                <= 1.0e-12

    def test_monotone_in_coupling(self):
        omegas = np.linspace(0.0, 1000.0, 25) * TWO_PI_MHZ
        values = [fraction_f(DELTA_350, w) for w in omegas]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            fraction_f(0.0, OMEGA_200)
        with pytest.raises(DomainError):
            fraction_f(abs(DELTA_350), OMEGA_200)
        with pytest.raises(DomainError):
            fraction_f(DELTA_350, -1.0)


class TestTotalTime:
    def test_published_point(self):
        t0 = total_time(DELTA_350, RB85)
        assert t0 == pytest.approx(1.07e-8, rel=2.0e-2)

    def test_matches_scalar_oracle(self):
        for delta_mhz in (-350.0, -500.0, -1000.0):
            mine = total_time(delta_mhz * TWO_PI_MHZ, RB85)
            ref = total_time_oracle(delta_mhz * TWO_PI_MHZ, 84.911789738,
                                    1.1e-34, g0_oracle(200_000))
            assert mine == pytest.approx(ref, rel=1.0e-7)

    def test_power_law_scaling(self):
        # |delta| scaled by 2^(6/5) halves the in-fall time
        t_ref = total_time(DELTA_350, RB85)
        t_scaled = total_time(DELTA_350 * 2.0 ** (6.0 / 5.0), RB85)
        assert t_scaled == pytest.approx(t_ref / 2.0, rel=1.0e-12)

    def test_monotone_in_detuning(self):
        deltas = -np.linspace(350.0, 1000.0, 30) * TWO_PI_MHZ
        times = [total_time(d, RB85) for d in deltas]
        assert all(b < a for a, b in zip(times, times[1:]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            total_time(0.0, RB85)


class TestCollisionTimes:
    def test_split_at_reference_point(self):
        times = collision_times(DELTA_350, OMEGA_200, RB85)
        assert times.frac_resonant == pytest.approx(0.55, abs=1.0e-2)
        assert times.t_resonant == pytest.approx(0.55 * times.t_total,
                                                 abs=0.01 * times.t_total)
        assert times.t_escape_region == pytest.approx(0.45 * times.t_total,
                                                      abs=0.01 * times.t_total)
        assert times.t_prime == 0.0

    def test_split_sums_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            delta = -rng.uniform(350.0, 1000.0) * TWO_PI_MHZ
            omega = rng.uniform(1.0, 400.0) * TWO_PI_MHZ
            times = collision_times(delta, omega, RB85)
            assert times.t_resonant + times.t_escape_region \
                == pytest.approx(times.t_total, rel=1.0e-15)
            assert times.t_resonant == times.t_total * times.frac_resonant

    def test_zero_coupling_all_escape(self):
        times = collision_times(DELTA_350, 0.0, RB85)
        assert times.t_resonant == 0.0
        assert times.t_escape_region == times.t_total

    def test_phase_at_reference_point(self):
        times = collision_times(DELTA_350, OMEGA_200, RB85)
        phase = OMEGA_200 * times.t_resonant
        assert phase / math.pi == pytest.approx(2.35, rel=2.0e-2)

    def test_geometry_attached(self):
        times = collision_times(DELTA_350, OMEGA_200, RB85)
        assert times.geometry is not None
        assert times.geometry.r_escape < times.geometry.r_condon

