"""Master equation, fixed-step integrator, and closed-form solution."""

import math

import numpy as np
import pytest

from cavloss import (EXCITED_STATE, DomainError, ReducedState, StepSizeError,
                     integrate_master, master_rhs, max_stable_dt,
                     p_omega_analytic, p_omega_approx, rabi_regime)
from cavloss.dynamics import MAX_STEPS, integrate_grid, state_vector
from oracles import TWO_PI_MHZ, p_underdamped_reference, rk4_master_oracle

OMEGA_200 = 200.0 * TWO_PI_MHZ
GAMMA_MOL = 2.0 * math.pi * 12.0e6


def closed_form_gap(series, omega, gamma):
    """Largest |p_e - p(t)| over a run, the kernel taken on all its times."""
    times, p_e = np.array([(t, s.p_e) for t, s in series]).T
    return np.max(np.abs(p_e - p_omega_analytic(times, omega, gamma)))


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
        worst = closed_form_gap(series, OMEGA_200, GAMMA_MOL)
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
            worst = closed_form_gap(series, omega, gamma)
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
            errors.append(closed_form_gap(series, omega, gamma))
        order_a = math.log2(errors[0] / errors[1])
        order_b = math.log2(errors[1] / errors[2])
        assert order_a == pytest.approx(4.0, abs=0.2)
        assert order_b == pytest.approx(4.0, abs=0.2)

    def test_step_size_enforced(self):
        dt_max = max_stable_dt(OMEGA_200, GAMMA_MOL)
        with pytest.raises(StepSizeError):
            integrate_master(EXCITED_STATE, OMEGA_200, GAMMA_MOL,
                             1.0e-9, 2.0 * dt_max)

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


#: a start state with every coherence non-zero
MIXED_STATE = ReducedState(p_e=0.5, p_g=0.3, p_v=0.2, c_eg=0.2 - 0.1j,
                           c_ev=-0.15 + 0.05j, c_gv=0.1 + 0.25j)


def _agrees_with_oracle(initial, omega, gamma, t_end, dt):
    """The matrix core against the step-by-step oracle, within 1e-12."""
    times, states = integrate_grid(initial, omega, gamma, t_end, dt)
    n_steps = max(1, math.ceil(t_end / dt - 1.0e-9)) if t_end > 0.0 else 0
    oracle_times, oracle_states = rk4_master_oracle(
        (initial.p_e, initial.p_g, initial.p_v,
         initial.c_eg, initial.c_ev, initial.c_gv),
        omega, gamma, t_end, n_steps)
    assert states.shape == (n_steps + 1, 9)
    assert times.tolist() == oracle_times
    worst = np.max(np.abs(states - oracle_states))
    assert worst <= 1.0e-12, (omega, gamma, t_end, dt, worst)
    return states


class TestMatrixCore:
    def test_random_runs_match_step_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(24):
            gamma = math.exp(rng.uniform(math.log(1.0e6), math.log(1.0e9)))
            omega = gamma * math.exp(rng.uniform(math.log(0.02),
                                                 math.log(8.0)))
            dt = max_stable_dt(omega, gamma) / rng.uniform(1.0, 10.0)
            t_end = dt * rng.uniform(0.5, 1200.0)
            p = rng.dirichlet((1.0, 1.0, 1.0))
            c = 0.2 * rng.normal(size=6)
            initial = ReducedState(p_e=p[0], p_g=p[1], p_v=p[2],
                                   c_eg=complex(c[0], c[1]),
                                   c_ev=complex(c[2], c[3]),
                                   c_gv=complex(c[4], c[5]))
            _agrees_with_oracle(initial, omega, gamma, t_end, dt)

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 8, 15, 16, 17, 24, 25, 99])
    def test_block_boundaries(self, n_steps):
        # n + 1 samples: 16, 25 and 100 are perfect squares, the rest not
        dt = max_stable_dt(OMEGA_200, GAMMA_MOL) / 2.0
        _agrees_with_oracle(MIXED_STATE, OMEGA_200, GAMMA_MOL,
                            n_steps * dt, dt)

    @pytest.mark.parametrize("omega,gamma", [
        (OMEGA_200, 0.0),                  # decay-free
        (0.0, GAMMA_MOL),                  # decoupled
        (0.05 * GAMMA_MOL, GAMMA_MOL),     # overdamped
        (0.25 * GAMMA_MOL, GAMMA_MOL),     # critical
    ])
    def test_limits_and_regimes(self, omega, gamma):
        for initial in (EXCITED_STATE, MIXED_STATE):
            dt = max_stable_dt(omega, gamma) / 4.0
            _agrees_with_oracle(initial, omega, gamma, 777.3 * dt, dt)

    def test_zero_span_returns_the_start_state(self):
        times, states = integrate_grid(MIXED_STATE, OMEGA_200, GAMMA_MOL,
                                       0.0, 1.0e-12)
        assert times.tolist() == [0.0]
        assert states.tolist() == [state_vector(MIXED_STATE).tolist()]
        _agrees_with_oracle(MIXED_STATE, OMEGA_200, GAMMA_MOL, 0.0, 1.0e-12)

    def test_one_step(self):
        dt = max_stable_dt(OMEGA_200, GAMMA_MOL)
        states = _agrees_with_oracle(MIXED_STATE, OMEGA_200, GAMMA_MOL,
                                     dt, dt)
        assert len(states) == 2

    def test_list_view_equals_core_bitwise(self):
        dt = max_stable_dt(OMEGA_200, GAMMA_MOL) / 3.0
        times, states = integrate_grid(MIXED_STATE, OMEGA_200, GAMMA_MOL,
                                       500.5 * dt, dt)
        series = integrate_master(MIXED_STATE, OMEGA_200, GAMMA_MOL,
                                  500.5 * dt, dt)
        assert [t for t, _ in series] == times.tolist()
        for (_, state), row in zip(series, states.tolist()):
            assert type(state.p_e) is float and type(state.c_gv) is complex
            assert state_vector(state).tolist() == row
        assert series[0][1] == MIXED_STATE


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
        values = p_omega_analytic(ts, omega, GAMMA_MOL)
        assert np.all(values[1:] <= values[:-1])
        assert np.all((0.0 <= values) & (values <= 1.0))

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
            worst = np.max(np.abs(p_omega_approx(ts, omega, gamma)
                                  - p_omega_analytic(ts, omega, gamma)))
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
