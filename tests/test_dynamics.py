"""Master equation, fixed-step integrator, and closed-form solution."""

import math

import numpy as np
import pytest

from cavloss import (EXCITED_STATE, DomainError, ReducedState, StepSizeError,
                     integrate_master, master_rhs, max_stable_dt,
                     p_omega_analytic, p_omega_approx, rabi_regime)
from cavloss.dynamics import MAX_STEPS
from oracles import TWO_PI_MHZ, p_underdamped_reference

OMEGA_200 = 200.0 * TWO_PI_MHZ
GAMMA_MOL = 2.0 * math.pi * 12.0e6


class TestMasterRhs:
    def test_excited_state_derivative(self):
        d = master_rhs(EXCITED_STATE, OMEGA_200, GAMMA_MOL)
        assert d.p_e == -GAMMA_MOL
        assert d.p_g == 0.0
        assert d.p_v == GAMMA_MOL
        assert d.c_eg == 1j * OMEGA_200
        assert d.c_ev == 0.0
        assert d.c_gv == 0.0

    def test_decoupled_decay(self):
        state = ReducedState(p_e=0.3, p_g=0.5, p_v=0.2,
                             c_eg=0.1 + 0.2j, c_ev=0.05j, c_gv=0.02)
        d = master_rhs(state, 0.0, GAMMA_MOL)
        assert d.p_e == -GAMMA_MOL * state.p_e
        assert d.p_g == 0.0
        assert d.p_v == GAMMA_MOL * state.p_e
        assert d.c_eg == -0.5 * GAMMA_MOL * state.c_eg
        assert d.c_ev == -0.5 * GAMMA_MOL * state.c_ev
        assert d.c_gv == 0.0

    def test_trace_of_derivative_vanishes(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = rng.dirichlet((1.0, 1.0, 1.0))
            state = ReducedState(p_e=p[0], p_g=p[1], p_v=p[2],
                                 c_eg=complex(*rng.normal(size=2)),
                                 c_ev=complex(*rng.normal(size=2)),
                                 c_gv=complex(*rng.normal(size=2)))
            d = master_rhs(state, OMEGA_200, GAMMA_MOL)
            assert abs(d.p_e + d.p_g + d.p_v) <= 1.0e-12 * GAMMA_MOL


class TestIntegrator:
    def test_lossless_rabi(self):
        dt = max_stable_dt(OMEGA_200, 0.0) / 8.0
        series = integrate_master(EXCITED_STATE, OMEGA_200, 0.0,
                                  3.0 * 2.0 * math.pi / OMEGA_200, dt)
        for t, state in series:
            assert state.p_e == pytest.approx(math.cos(OMEGA_200 * t) ** 2,
                                              abs=1.0e-8)

    def test_pure_decay(self):
        dt = max_stable_dt(0.0, GAMMA_MOL) / 8.0
        series = integrate_master(EXCITED_STATE, 0.0, GAMMA_MOL,
                                  5.0 / GAMMA_MOL, dt)
        for t, state in series:
            assert state.p_e == pytest.approx(math.exp(-GAMMA_MOL * t),
                                              abs=1.0e-8)

    def test_matches_closed_form_at_preset(self):
        dt = max_stable_dt(OMEGA_200, GAMMA_MOL) / 10.0
        series = integrate_master(EXCITED_STATE, OMEGA_200, GAMMA_MOL,
                                  5.0e-9, dt)
        worst = max(abs(s.p_e - p_omega_analytic(t, OMEGA_200, GAMMA_MOL))
                    for t, s in series)
        assert worst <= 1.0e-8

    def test_random_pairs_both_regimes(self):
        rng = np.random.default_rng(101)
        gammas = rng.uniform(1.0e6, 1.0e9, size=20)
        ratios = np.concatenate([
            np.exp(rng.uniform(math.log(0.3), math.log(8.0), size=14)),
            rng.uniform(0.02, 0.24, size=6),
        ])
        for gamma, ratio in zip(gammas, ratios):
            omega = ratio * gamma
            dt = max_stable_dt(omega, gamma) / 8.0
            series = integrate_master(EXCITED_STATE, omega, gamma,
                                      5.0 / gamma, dt)
            worst = max(abs(s.p_e - p_omega_analytic(t, omega, gamma))
                        for t, s in series)
            assert worst <= 1.0e-8, (gamma, ratio, worst)
            assert max(abs(s.trace - 1.0) for _, s in series) <= 1.0e-10
            assert max(max(abs(s.c_ev), abs(s.c_gv))
                       for _, s in series) <= 1.0e-12

    def test_coherence_block_stays_rank_one(self):
        # the (E,G) block evolves as a pure amplitude pair, so
        # |c_eg|^2 = p_e*p_g exactly; the trajectory sits on the
        # positivity boundary within integrator error
        dt = max_stable_dt(OMEGA_200, GAMMA_MOL) / 8.0
        series = integrate_master(EXCITED_STATE, OMEGA_200, GAMMA_MOL,
                                  3.0 / GAMMA_MOL, dt)
        for _, s in series:
            assert abs(s.c_eg) ** 2 == pytest.approx(s.p_e * s.p_g,
                                                     abs=1.0e-8)

    def test_fourth_order_convergence(self):
        gamma, omega, t_end = 1.0, 2.0, 4.0
        errors = []
        for n in (256, 512, 1024):
            dt = t_end / n
            series = integrate_master(EXCITED_STATE, omega, gamma, t_end, dt)
            errors.append(max(abs(s.p_e - p_omega_analytic(t, omega, gamma))
                              for t, s in series))
        order_a = math.log2(errors[0] / errors[1])
        order_b = math.log2(errors[1] / errors[2])
        assert order_a == pytest.approx(4.0, abs=0.2)
        assert order_b == pytest.approx(4.0, abs=0.2)

    def test_step_size_enforced(self):
        dt_max = max_stable_dt(OMEGA_200, GAMMA_MOL)
        with pytest.raises(StepSizeError):
            integrate_master(EXCITED_STATE, OMEGA_200, GAMMA_MOL,
                             1.0e-9, 2.0 * dt_max)
        series = integrate_master(EXCITED_STATE, OMEGA_200, GAMMA_MOL,
                                  1.0e-9, 2.0 * dt_max, allow_coarse_dt=True)
        assert len(series) > 1

    def test_unconstrained_when_rates_vanish(self):
        assert max_stable_dt(0.0, 0.0) == math.inf

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            integrate_master(EXCITED_STATE, OMEGA_200, GAMMA_MOL, 1.0e-9, 0.0)
        with pytest.raises(DomainError):
            integrate_master(EXCITED_STATE, OMEGA_200, GAMMA_MOL, -1.0, 1.0e-12)
        for t_end, dt in ((math.nan, 1.0e-12), (1.0e-9, math.nan)):
            with pytest.raises(DomainError):
                integrate_master(EXCITED_STATE, OMEGA_200, GAMMA_MOL, t_end, dt)
        with pytest.raises(DomainError, match="cap"):
            integrate_master(EXCITED_STATE, OMEGA_200, GAMMA_MOL,
                             (MAX_STEPS + 1) * 1.0e-12, 1.0e-12)


class TestClosedForm:
    def test_initial_conditions(self):
        assert p_omega_analytic(0.0, OMEGA_200, GAMMA_MOL) == 1.0
        assert p_omega_approx(0.0, OMEGA_200, GAMMA_MOL) == 1.0

    def test_initial_slope_matches_rhs(self):
        h = 1.0e-13
        slope = (p_omega_analytic(h, OMEGA_200, GAMMA_MOL) - 1.0) / h
        assert slope == pytest.approx(-GAMMA_MOL, rel=1.0e-2)

    def test_lossless_zeros(self):
        for k in range(4):
            t = (0.5 + k) * math.pi / OMEGA_200
            assert p_omega_analytic(t, OMEGA_200, 0.0) \
                == pytest.approx(0.0, abs=1.0e-24)

    def test_preset_survival_frozen_from_oracle_chain(self):
        # t_c from the Simpson-fraction oracle chain; value frozen from
        # the naive damped-cosine reference at that instant
        from cavloss import HumanUnitsConfig, collision_times, resolve_params
        params = resolve_params(HumanUnitsConfig())
        delta = -350.0 * TWO_PI_MHZ
        times = collision_times(delta, OMEGA_200, params)
        assert p_omega_analytic(times.t_resonant, OMEGA_200, GAMMA_MOL) \
            == pytest.approx(0.21489133, abs=1.0e-7)

    def test_matches_naive_underdamped_reference(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            gamma = rng.uniform(1.0e6, 1.0e9)
            omega = gamma * rng.uniform(0.5, 30.0)
            t = rng.uniform(0.0, 10.0 / gamma)
            assert p_omega_analytic(t, omega, gamma) == pytest.approx(
                p_underdamped_reference(t, omega, gamma), abs=1.0e-12)

    def test_zero_coupling_exact_decay(self):
        for t in (0.0, 1.0e-9, 1.0e-7, 1.0e-5):
            assert p_omega_analytic(t, 0.0, GAMMA_MOL) \
                == math.exp(-GAMMA_MOL * t)

    def test_overdamped_decays_monotonically(self):
        omega = 0.1 * GAMMA_MOL / 4.0
        ts = np.linspace(0.0, 10.0 / GAMMA_MOL, 200)
        values = [p_omega_analytic(t, omega, GAMMA_MOL) for t in ts]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_continuous_across_regime_boundary(self):
        for gamma in (1.0, GAMMA_MOL):
            for t in (0.5 / gamma, 2.0 / gamma, 5.0 / gamma):
                center = p_omega_analytic(t, 0.25 * gamma, gamma)
                for eps in (-1.0e-9, -1.0e-12, 1.0e-12, 1.0e-9):
                    side = p_omega_analytic(t, 0.25 * gamma * (1.0 + eps),
                                            gamma)
                    assert abs(side - center) <= 1.0e-9

    def test_critical_point_is_squared_taylor(self):
        gamma = 1.0
        for t in (0.3, 1.7, 4.0, 8.0):
            expected = math.exp(-0.5 * gamma * t) * (1.0 - gamma * t / 4.0) ** 2
            assert p_omega_analytic(t, 0.25 * gamma, gamma) \
                == pytest.approx(expected, rel=1.0e-12, abs=1.0e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            p_omega_analytic(-1.0, OMEGA_200, GAMMA_MOL)
        with pytest.raises(DomainError):
            p_omega_analytic(1.0, OMEGA_200, -1.0)
        with pytest.raises(DomainError):
            p_omega_approx(-1.0, OMEGA_200, GAMMA_MOL)


class TestApproximateForm:
    def test_pi_pulse_zero(self):
        t = 0.5 * math.pi / OMEGA_200
        assert p_omega_approx(t, OMEGA_200, GAMMA_MOL) \
            == pytest.approx(0.0, abs=1.0e-30)

    def test_deviation_scales_with_damping_ratio(self):
        # grid comparison: the sine term it drops is O(gamma/(4 omega))
        for ratio in (5.0, 10.0, 20.0, 50.0):
            gamma = 1.0
            omega = ratio * gamma
            ts = np.linspace(0.0, 2.0 * math.pi / omega, 400)
            worst = max(abs(p_omega_approx(t, omega, gamma)
                            - p_omega_analytic(t, omega, gamma)) for t in ts)
            assert worst <= 2.5 * gamma / (4.0 * omega)


class TestRegimeClassification:
    def test_three_regimes(self):
        assert rabi_regime(GAMMA_MOL, GAMMA_MOL).regime == "underdamped"
        assert rabi_regime(GAMMA_MOL / 8.0, GAMMA_MOL).regime == "overdamped"
        assert rabi_regime(GAMMA_MOL / 4.0, GAMMA_MOL).regime == "critical"

    def test_beta_value(self):
        regime = rabi_regime(OMEGA_200, GAMMA_MOL)
        assert regime.beta == pytest.approx(
            math.sqrt(OMEGA_200**2 - (GAMMA_MOL / 4.0) ** 2), rel=1.0e-12)
