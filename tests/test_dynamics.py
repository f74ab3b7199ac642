"""Master equation, fixed-step integrator, and closed-form solution."""

import math
import re

import numpy as np
import pytest

from cavloss import (EXCITED_STATE, DomainError, StepSizeError, dynamics,
                     integrate_grid, max_stable_dt, p_omega_analytic,
                     p_omega_approx)
from cavloss.dynamics import (MAX_STEPS, STEPS_PER_CYCLE, default_run,
                              generator)
from oracles import TWO_PI_MHZ, p_underdamped_reference, rk4_master_oracle

OMEGA_200 = 200.0 * TWO_PI_MHZ
GAMMA_MOL = 2.0 * math.pi * 12.0e6

#: a start state with every component non-zero: p_e, p_g, p_v, Im c_eg
MIXED_STATE = np.array([0.5, 0.3, 0.2, -0.1])


def damping_index(t, omega, gamma):
    """Each element's form of p(t): 0 decoupled, 1 oscillating, 2 hyperbolic
    with b*t <= 1, 3 hyperbolic beyond, element by element in builtin floats.

    Squares are products, as numpy's are: libm pow(x, 2) is not always x*x.
    """
    def index(t, w, g):
        quarter = 0.25 * g
        if w == 0.0:
            return 0
        if not w * w < quarter * quarter:
            return 1
        return 2 if math.sqrt(quarter * quarter - w * w) * t <= 1.0 else 3

    t, omega, gamma = np.broadcast_arrays(t, omega, gamma)
    return np.array([index(*element) for element in zip(
        t.ravel().tolist(), omega.ravel().tolist(), gamma.ravel().tolist())],
        dtype=int).reshape(t.shape)


def closed_form_gap(run, omega, gamma):
    """Largest |p_e - p(t)| over a run, the kernel taken on all its times."""
    times, states = run
    return np.max(np.abs(states[:, 0] - p_omega_analytic(times, omega, gamma)))


class TestMasterRhs:
    def test_excited_state_derivative(self):
        d = generator(OMEGA_200, GAMMA_MOL) @ EXCITED_STATE
        assert d[0] == -GAMMA_MOL                     # p_e
        assert d[1] == 0.0                            # p_g
        assert d[2] == GAMMA_MOL                      # p_v
        assert d[3] == OMEGA_200                      # c_eg = i*OMEGA_200

    def test_decoupled_decay(self):
        state = np.array([0.3, 0.5, 0.2, 0.2])
        d = generator(0.0, GAMMA_MOL) @ state
        assert d[0] == -GAMMA_MOL * state[0]
        assert d[1] == 0.0
        assert d[2] == GAMMA_MOL * state[0]
        assert d[3] == -0.5 * GAMMA_MOL * state[3]

    def test_trace_of_derivative_vanishes(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            state = np.concatenate([rng.dirichlet((1.0, 1.0, 1.0)),
                                    rng.normal(size=1)])
            d = generator(OMEGA_200, GAMMA_MOL) @ state
            assert abs(d[:3].sum()) <= 1.0e-12 * GAMMA_MOL


class TestIntegrator:
    def test_lossless_rabi(self):
        dt = max_stable_dt(OMEGA_200, 0.0) / 8.0
        times, states = integrate_grid(EXCITED_STATE, OMEGA_200, 0.0,
                                       3.0 * 2.0 * math.pi / OMEGA_200, dt)
        for t, p_e in zip(times.tolist(), states[:, 0].tolist()):
            assert p_e == pytest.approx(math.cos(OMEGA_200 * t) ** 2,
                                        abs=1.0e-8)

    def test_pure_decay(self):
        dt = max_stable_dt(0.0, GAMMA_MOL) / 8.0
        times, states = integrate_grid(EXCITED_STATE, 0.0, GAMMA_MOL,
                                       5.0 / GAMMA_MOL, dt)
        for t, p_e in zip(times.tolist(), states[:, 0].tolist()):
            assert p_e == pytest.approx(math.exp(-GAMMA_MOL * t), abs=1.0e-8)

    def test_matches_closed_form_at_preset(self):
        dt = max_stable_dt(OMEGA_200, GAMMA_MOL) / 10.0
        run = integrate_grid(EXCITED_STATE, OMEGA_200, GAMMA_MOL, 5.0e-9, dt)
        worst = closed_form_gap(run, OMEGA_200, GAMMA_MOL)
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
            run = integrate_grid(EXCITED_STATE, omega, gamma, 5.0 / gamma, dt)
            worst = closed_form_gap(run, omega, gamma)
            assert worst <= 1.0e-8, (gamma, ratio, worst)
            states = run[1]
            trace = states[:, :3].sum(axis=1)
            assert np.max(np.abs(trace - 1.0)) <= 1.0e-10

    def test_coherence_block_stays_rank_one(self):
        # the (E,G) block evolves as a pure amplitude pair, so
        # (Im c_eg)^2 = |c_eg|^2 = p_e*p_g exactly; the trajectory sits on
        # the positivity boundary within integrator error
        dt = max_stable_dt(OMEGA_200, GAMMA_MOL) / 8.0
        _, states = integrate_grid(EXCITED_STATE, OMEGA_200, GAMMA_MOL,
                                   3.0 / GAMMA_MOL, dt)
        for p_e, p_g, _, eg_im in states.tolist():
            assert eg_im**2 == pytest.approx(p_e * p_g, abs=1.0e-8)

    def test_fourth_order_convergence(self):
        gamma, omega, t_end = 1.0, 2.0, 4.0
        errors = []
        for n in (256, 512, 1024):
            dt = t_end / n
            run = integrate_grid(EXCITED_STATE, omega, gamma, t_end, dt)
            errors.append(closed_form_gap(run, omega, gamma))
        order_a = math.log2(errors[0] / errors[1])
        order_b = math.log2(errors[1] / errors[2])
        assert order_a == pytest.approx(4.0, abs=0.2)
        assert order_b == pytest.approx(4.0, abs=0.2)

    def test_step_size_enforced(self):
        dt_max = max_stable_dt(OMEGA_200, GAMMA_MOL)
        with pytest.raises(StepSizeError):
            integrate_grid(EXCITED_STATE, OMEGA_200, GAMMA_MOL,
                           1.0e-9, 2.0 * dt_max)

    def test_unconstrained_when_rates_vanish(self):
        assert max_stable_dt(0.0, 0.0) == math.inf

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            integrate_grid(EXCITED_STATE, OMEGA_200, GAMMA_MOL, 1.0e-9, 0.0)
        with pytest.raises(DomainError):
            integrate_grid(EXCITED_STATE, OMEGA_200, GAMMA_MOL, -1.0, 1.0e-12)
        for t_end, dt in ((math.nan, 1.0e-12), (1.0e-9, math.nan)):
            with pytest.raises(DomainError):
                integrate_grid(EXCITED_STATE, OMEGA_200, GAMMA_MOL, t_end, dt)
        with pytest.raises(DomainError, match="cap"):
            integrate_grid(EXCITED_STATE, OMEGA_200, GAMMA_MOL,
                           (MAX_STEPS + 1) * 1.0e-12, 1.0e-12)

    @pytest.mark.parametrize("omega, gamma, message", [
        (0.0, -1.0e8, "decay rate must be >= 0, got -100000000.0"),
        (OMEGA_200, math.nan, "decay rate must be >= 0, got nan"),
        (math.nan, GAMMA_MOL,
         "collective Rabi frequency must be finite, got nan"),
        (-math.inf, GAMMA_MOL,
         "collective Rabi frequency must be finite, got -inf"),
    ], ids=["negative-decay", "nan-decay", "nan-coupling", "inf-coupling"])
    def test_rates_refused_before_the_run(self, omega, gamma, message):
        # in the survival kernels' words; a negative decay rate would grow
        # the state (no step ceiling applies at zero coupling) and NaN
        # would fill every row
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            integrate_grid(EXCITED_STATE, omega, gamma, 1.0e-9, 1.0e-12)

    def test_initial_state_must_be_four_reals(self):
        # a complex start would lose its imaginary parts with only a warning
        for initial in (MIXED_STATE[:3], MIXED_STATE.reshape(4, 1),
                        MIXED_STATE.astype(complex), np.zeros(9)):
            with pytest.raises(DomainError, match="initial state"):
                integrate_grid(initial, OMEGA_200, GAMMA_MOL, 1.0e-9, 1.0e-12)

    def test_excited_state_is_read_only(self):
        with pytest.raises(ValueError):
            EXCITED_STATE[1] = 1.0
        assert EXCITED_STATE.tolist() == [1.0, 0.0, 0.0, 0.0]


#: the columns of the oracle's rows that the 4-vector holds: p_e, p_g, p_v
#: and Im c_eg, then those it leaves out: Re c_eg, c_ev and c_gv
KEPT, LEFT_OUT = [0, 1, 2, 4], [3, 5, 6, 7, 8]


def _agrees_with_oracle(initial, omega, gamma, t_end, dt):
    """The matrix core against the step-by-step oracle, within 1e-12;
    returns the core's states and the oracle's rows."""
    times, states = integrate_grid(initial, omega, gamma, t_end, dt)
    n_steps = max(1, math.ceil(t_end / dt - 1.0e-9)) if t_end > 0.0 else 0
    oracle_times, oracle_states = rk4_master_oracle(
        (*initial[:3], 1j * initial[3], 0j, 0j), omega, gamma, t_end,
        n_steps)
    assert states.shape == (n_steps + 1, 4)
    assert times.tolist() == oracle_times
    worst = np.max(np.abs(states - oracle_states[:, KEPT]))
    assert worst <= 1.0e-12, (omega, gamma, t_end, dt, worst)
    return states, oracle_states


class TestMatrixCore:
    def test_random_runs_match_step_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(24):
            gamma = math.exp(rng.uniform(math.log(1.0e6), math.log(1.0e9)))
            omega = gamma * math.exp(rng.uniform(math.log(0.02),
                                                 math.log(8.0)))
            dt = max_stable_dt(omega, gamma) / rng.uniform(1.0, 10.0)
            t_end = dt * rng.uniform(0.5, 1200.0)
            initial = np.concatenate([rng.dirichlet((1.0, 1.0, 1.0)),
                                      0.2 * rng.normal(size=1)])
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

    @pytest.mark.parametrize("omega,gamma", [
        (OMEGA_200, GAMMA_MOL), (0.25 * GAMMA_MOL, GAMMA_MOL),
        (0.05 * GAMMA_MOL, GAMMA_MOL), (OMEGA_200, 0.0),
    ], ids=["underdamped", "critical", "overdamped", "decay-free"])
    def test_reduction_is_exact(self, omega, gamma):
        # from |e>, |g>, mixed populations and MIXED_STATE, the six complex
        # equations keep what the 4-vector leaves out at exactly 0
        dt = max_stable_dt(omega, gamma) / 4.0
        for initial in ([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                        [0.5, 0.3, 0.2, 0.0], MIXED_STATE):
            _, oracle_states = _agrees_with_oracle(
                np.array(initial), omega, gamma, 777.3 * dt, dt)
            assert not oracle_states[:, LEFT_OUT].any()

    def test_orbit_of_a_stack_is_each_matrix_orbit(self):
        # row j is M^j @ first, for a vector, a matrix or a stack of them
        rng = np.random.default_rng(31)
        stack = rng.normal(size=(3, 4, 4)) / 3.0
        start = rng.normal(size=4)
        orbit = dynamics._orbit(stack[0], start, 4)
        assert orbit[3].tobytes() == (
            stack[0] @ (stack[0] @ (stack[0] @ start))).tobytes()
        batch = dynamics._orbit(stack, np.broadcast_to(np.eye(4), stack.shape),
                                6)
        for i, m in enumerate(stack):
            assert batch[:, i].tobytes() == dynamics._orbit(
                m, np.eye(4), 6).tobytes()

    @pytest.mark.parametrize("case", ["underdamped", "overdamped",
                                      "decay-free"])
    def test_orbit_bits_do_not_depend_on_the_product_call(self, case):
        # the default run at -436.3 MHz, an overdamped run and a decay-free
        # one, each stepped through the same blocked powers in the same order
        # by a loop of np.matmul: the states are the same bytes
        from cavloss import coupling, resolve_params
        from cavloss.cli import build_run_config, cavity_config
        config = build_run_config()
        omega = coupling(-436.3 * TWO_PI_MHZ, cavity_config(config),
                         resolve_params(config.species)).omega_tilde
        omega, gamma, refine = {"underdamped": (omega, GAMMA_MOL, 1),
                                "overdamped": (0.05 * GAMMA_MOL, GAMMA_MOL, 2),
                                "decay-free": (OMEGA_200, 0.0, 1)}[case]
        t_end, dt = default_run(omega, gamma)
        times, states = integrate_grid(EXCITED_STATE, omega, gamma, t_end,
                                       dt / refine)
        n_steps = len(times) - 1
        assert n_steps >= 2000
        step = dynamics._rk4_matrix(generator(omega, gamma), t_end / n_steps)
        block = math.isqrt(n_steps) + 1
        inner = np.empty((block, 4, 4))
        inner[0] = np.eye(4)
        for j in range(1, block):
            np.matmul(step, inner[j - 1], out=inner[j])
        jump = inner[-1] @ step
        bases = np.empty((-(-(n_steps + 1) // block), 4))
        bases[0] = EXCITED_STATE
        for b in range(1, len(bases)):
            np.matmul(jump, bases[b - 1], out=bases[b])
        expected = (bases @ inner.reshape(block * 4, 4).T).reshape(-1, 4)
        assert states.tobytes() == expected[:n_steps + 1].tobytes()

    def test_zero_span_returns_the_start_state(self):
        times, states = integrate_grid(MIXED_STATE, OMEGA_200, GAMMA_MOL,
                                       0.0, 1.0e-12)
        assert times.tolist() == [0.0]
        assert states.tolist() == [MIXED_STATE.tolist()]
        _agrees_with_oracle(MIXED_STATE, OMEGA_200, GAMMA_MOL, 0.0, 1.0e-12)

    def test_one_step(self):
        dt = max_stable_dt(OMEGA_200, GAMMA_MOL)
        states, _ = _agrees_with_oracle(MIXED_STATE, OMEGA_200, GAMMA_MOL,
                                        dt, dt)
        assert len(states) == 2


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

    def test_array_decay_rates_over_mixed_branches(self):
        # oscillating, hyperbolic near and far, decoupled and critical
        t = np.array([1.0e-9, 2.0e-9, 1.0e-6, 1.0e-9, 3.0e-9])
        omega = np.array([1.0e7, 1.0e6, 1.0e6, 0.0, 2.5e6])
        gamma = np.array([1.0e7, 1.0e7, 1.0e7, 3.0e7, 1.0e7])
        for kernel in (p_omega_analytic, p_omega_approx):
            assert kernel(t, omega, gamma).tolist() == [
                kernel(*args) for args in zip(t.tolist(), omega.tolist(),
                                              gamma.tolist())]
            assert kernel(1.0e-9, 1.0e7, gamma).tolist() == [
                kernel(1.0e-9, 1.0e7, g) for g in gamma.tolist()]

    @pytest.mark.parametrize("scalar", [None, "t", "omega", "gamma",
                                        "columns"])
    def test_one_form_grids_equal_the_mixed_grid_bitwise(self, scalar):
        # a grid in one damping form is evaluated whole, a mixed one form by
        # form on its rows; each form's rows must get the same bits either way
        rng = np.random.default_rng(41)
        t = rng.uniform(0.0, 2.0e-7, 400)
        omega = GAMMA_MOL * rng.choice([0.0, 0.02, 0.1, 0.24, 0.26, 3.0], 400)
        gamma = np.full(400, GAMMA_MOL)
        args = {"t": t, "omega": omega, "gamma": gamma}
        if scalar == "columns":
            # a 2-D grid mixing forms with no hyperbolic pair: the forms come
            # in the rates' shape, which is not the grid's
            args = {"t": t[:, None], "gamma": GAMMA_MOL,
                    "omega": GAMMA_MOL * np.array([0.0, 0.26, 3.0])}
        elif scalar is not None:
            args[scalar] = float(args[scalar][0])
        mixed = p_omega_analytic(args["t"], args["omega"], args["gamma"])
        t, omega, gamma = np.broadcast_arrays(args["t"], args["omega"],
                                              args["gamma"])
        branch = damping_index(t, omega, gamma)
        forms = set(branch.ravel().tolist())
        assert scalar in ("t", "omega") or len(forms) == (
            2 if scalar == "columns" else 4)
        if scalar == "columns":   # each column equals its per-element calls
            for column, w in zip(mixed.T, omega[0].tolist()):
                assert column.tobytes() == np.array([
                    p_omega_analytic(x, w, GAMMA_MOL)
                    for x in t[:, 0].tolist()]).tobytes()
        for form in forms:
            rows = branch == form
            alone = p_omega_analytic(t[rows], omega[rows],
                                     gamma[rows] if scalar != "gamma"
                                     else args["gamma"])
            assert alone.tobytes() == mixed[rows].tobytes()

    @pytest.mark.parametrize("omega, gamma, forms", [
        (0.0, GAMMA_MOL, {0}),
        (3.0 * GAMMA_MOL, GAMMA_MOL, {1}),
        (OMEGA_200, 0.0, {1}),
        (0.25 * GAMMA_MOL, GAMMA_MOL, {1}),   # every x is 0: all series
        (0.05 * GAMMA_MOL, GAMMA_MOL, {2, 3}),
        # libm pow(G/4, 2) is not numpy's (G/4)*(G/4) for this rate
        (0.1 * 473901359.1895744, 473901359.1895744, {2, 3}),
    ], ids=["decoupled", "oscillating", "decay-free", "critical",
            "hyperbolic", "pow-is-not-square"])
    def test_one_pair_equals_the_per_element_path_bitwise(self, omega, gamma,
                                                          forms):
        # every layout of the rates takes each element's form on the same
        # arithmetic: floats, one-element arrays, one rate over an array,
        # rates per element and a 2-D broadcast give the same bits
        rate = math.sqrt(abs(omega**2 - (0.25 * gamma)**2)) or gamma
        # t = 0, x = rate*t in the sinc series (< 1e-4) and on both sides of
        # 1, and t = 2/gamma
        t = np.concatenate([[0.0], np.geomspace(1.0e-7, 40.0, 400) / rate,
                            [2.0 / (gamma or rate)]])
        for times in (t, t[t * rate <= 1.0], t[t * rate > 1.0]):
            n = times.size
            omegas, gammas = np.full(n, omega), np.full(n, gamma)
            branch = set(damping_index(times, omegas, gammas).tolist())
            assert branch == forms if times is t else branch <= forms
            per_element = p_omega_analytic(times, omegas, gammas).tobytes()
            for pair in ((omega, gamma), (np.array([omega]), np.array([gamma])),
                         (np.array([[omega]]), gamma), (omegas, gamma)):
                value = p_omega_analytic(times, *pair)
                assert value.shape == np.broadcast_shapes(times.shape,
                                                          np.shape(pair[0]))
                assert value.tobytes() == per_element
            grid = p_omega_analytic(times[:, None], np.full(3, omega), gamma)
            assert grid.shape == (n, 3)
            assert grid.T.tobytes() == 3 * per_element
        # one time, one decay rate and three couplings: three elements
        value = p_omega_analytic(float(t[-1]), np.full(3, omega), gamma)
        assert value.shape == (3,)
        assert value.tobytes() == 3 * p_omega_analytic(t[-1:], omega,
                                                       gamma).tobytes()

    @pytest.mark.parametrize("layout", ["scalar", "per-element", "one-pair",
                                        "2-d"])
    def test_form_equals_the_damping_index(self, layout):
        # the kernel's classification against the element-by-element oracle,
        # on the layouts the kernel is called with; every hyperbolic pair
        # takes times on both sides of b*t = 1
        quarter = 0.25 * GAMMA_MOL
        ratios = np.array([0.0, 0.02, 0.1, 0.5, 0.999999, 1.0, 1.000001, 3.0])
        times = np.concatenate([[0.0], np.geomspace(1.0e-3, 1.0e3, 61)])
        times /= quarter
        if layout == "scalar":   # a plain number reaches _form as one element
            cases = [tuple(np.array([v]) for v in (t, r * quarter, GAMMA_MOL))
                     for t in times[::6] for r in ratios]
        elif layout == "per-element":
            t, r = (grid.ravel() for grid in np.meshgrid(times, ratios))
            gammas = np.random.default_rng(5).choice([0.0, 0.5, 1.0, 2.0],
                                                    t.size) * GAMMA_MOL
            cases = [(t, r * quarter, gammas)]
        elif layout == "one-pair":
            cases = [(times, np.array([r * quarter]), np.array([GAMMA_MOL]))
                     for r in ratios]
        else:
            cases = [(times[:, None], ratios * quarter, np.array([GAMMA_MOL]))]
        seen = set()
        for t, omega, gamma in cases:
            index = damping_index(t, omega, gamma)
            form = dynamics._form(t, omega, gamma)
            assert np.array_equal(np.broadcast_to(form, index.shape), index)
            seen |= set(index.ravel().tolist())
        assert seen == {0, 1, 2, 3}

    @pytest.mark.parametrize("f, sign", [(np.sin, -1.0), (np.sinh, 1.0)])
    def test_series_of_f_over_x_meets_the_quotient(self, f, sign):
        # below |x| = 1e-4 f(x)/x is its series: 1 at x = 0, and the
        # quotient itself within an ulp on both sides of the switch
        x = np.array([1.0e-7, 3.0e-5, -5.0e-5, 9.99e-5, 1.0e-4, 2.0e-4])
        value = dynamics._over_x(f, x, sign)
        assert np.all(np.abs(value - f(x) / x) <= 2.3e-16)
        assert dynamics._over_x(f, np.zeros(1), sign).tolist() == [1.0]

    @pytest.mark.parametrize("gamma", [1.0, 3.0e7, 4.7e8])
    def test_hyperbolic_forms_agree_at_their_seam(self, gamma):
        # the split at b*t = 1 is free: both forms give the same p(t) there
        quarter = 0.25 * gamma
        for ratio in (0.1, 0.5, 0.9, 0.999, 0.999999):
            omega = np.array([ratio * quarter])
            b = math.sqrt(quarter**2 - omega[0]**2)
            t = np.array([0.5, 0.999, 1.0, 1.001, 2.0]) / b
            near = dynamics._near(t, omega, np.array([gamma]))
            far = dynamics._far(t, omega, np.array([gamma]))
            assert np.all(np.abs(near - far) <= 1.0e-13 * far), (ratio, near,
                                                                  far)

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


#: (omega_tilde, gamma, ceiling) by regime, the ceilings pinned from the
#: three-way classifier this formula replaced, whose critical band was
#: |omega_tilde - gamma/4| < 1e-6 * gamma
CEILINGS = {
    "underdamped": (OMEGA_200, GAMMA_MOL, 2.500281297469838e-11),
    "overdamped": (GAMMA_MOL / 8.0, GAMMA_MOL, 4.166666666666667e-10),
    "critical": (GAMMA_MOL / 4.0, GAMMA_MOL, 4.166666666666667e-10),
    "band-above": (GAMMA_MOL * (0.25 + 0.5e-6), GAMMA_MOL,
                   4.166666666666667e-10),
    "band-below": (GAMMA_MOL * (0.25 - 0.5e-6), GAMMA_MOL,
                   4.166666666666667e-10),
    "past-band": (GAMMA_MOL * (0.25 + 2.0e-6), GAMMA_MOL,
                  4.166666666666667e-10),
    "decay-free": (OMEGA_200, 0.0, 2.5e-11),
    "decoupled": (0.0, GAMMA_MOL, 4.166666666666667e-10),
    "both-zero": (0.0, 0.0, math.inf),
}


class TestStepCeiling:
    @pytest.mark.parametrize("omega,gamma,ceiling", CEILINGS.values(),
                             ids=CEILINGS.keys())
    def test_same_ceiling_in_every_regime(self, omega, gamma, ceiling):
        assert max_stable_dt(omega, gamma) == ceiling

    def test_oscillation_rate_sets_the_underdamped_ceiling(self):
        beta = math.sqrt(OMEGA_200**2 - (GAMMA_MOL / 4.0) ** 2)
        assert max_stable_dt(OMEGA_200, GAMMA_MOL) == pytest.approx(
            2.0 * math.pi / beta / STEPS_PER_CYCLE, rel=1.0e-15)

    @pytest.mark.parametrize("omega,gamma,ceiling", CEILINGS.values(),
                             ids=CEILINGS.keys())
    def test_sign_of_the_coupling_does_not_matter(self, omega, gamma,
                                                  ceiling):
        assert max_stable_dt(-omega, gamma) == ceiling
        if math.isfinite(ceiling):
            with pytest.raises(StepSizeError):
                integrate_grid(EXCITED_STATE, -omega, gamma, 1.0e-9,
                               2.0 * ceiling)

    @pytest.mark.parametrize("t_end, message", [
        (None, "t_end must be given when both rates are zero"),
        (1.0e-9, "dt must be given when both rates are zero"),
    ])
    def test_default_run_needs_a_rate(self, t_end, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            default_run(0.0, 0.0, t_end)
