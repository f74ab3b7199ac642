"""Property tests of the array scan core over random configurations.

Each example draws a species, a resonator, a coupling mode, a survival
kernel and a detuning grid.  The anchored coupling is drawn both strong
and weak, where weak means below Gamma_mol/4 at the reference detuning,
so the overdamped branches of the analytic kernel are exercised too.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cavloss import (CavityConfig, DomainError, HumanUnitsConfig,
                     collision_times, condon_radius, coupling, fraction_f,
                     landau_zener,
                     loss_closed_form, loss_grid, loss_no_cavity, loss_point,
                     loss_series, p_omega_analytic, p_omega_approx,
                     resolve_params, resonance_geometry, single_passage_loss,
                     total_time)
from cavloss.cli import build_run_config, cavity_config
from cavloss.dynamics import _form
from cavloss.validate import cmd_validate
from oracles import TWO_PI_MHZ

#: each LossPoint quantity, of a record of floats or of arrays
COLUMNS = {
    "omega_tilde": lambda p: p.omega_tilde,
    "n_pairs": lambda p: p.n_pairs,
    "r_condon": lambda p: p.times.geometry.r_condon,
    "r_escape": lambda p: p.times.geometry.r_escape,
    "r_ratio": lambda p: p.times.geometry.r_ratio,
    "t_total": lambda p: p.times.t_total,
    "frac_resonant": lambda p: p.times.frac_resonant,
    "t_resonant": lambda p: p.times.t_resonant,
    "t_escape_region": lambda p: p.times.t_escape_region,
    "phase": lambda p: p.phase,
    "loss_cavity": lambda p: p.loss_cavity,
    "loss_free": lambda p: p.loss_free,
}


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def scan_cases(draw):
    gamma_a_mhz = draw(st.floats(1.0, 20.0))
    species = HumanUnitsConfig(
        lambda_nm=draw(st.floats(600.0, 900.0)),
        gamma_a_mhz=gamma_a_mhz,
        mass_amu=draw(st.floats(6.0, 140.0)),
        c3_erg_ang3=draw(st.floats(0.3e-10, 3.0e-10)),
        trap_depth_mk=draw(st.floats(0.5, 10.0)))
    delta_ref_mhz = draw(st.floats(-1000.0, -350.0))
    if draw(st.booleans()):
        omega_ref_mhz = draw(log_uniform(5.0, 400.0))
    else:   # below Gamma_mol/4 = gamma_a/2 at the reference detuning
        omega_ref_mhz = draw(st.floats(0.05, 0.95)) * 0.5 * gamma_a_mhz
    cavity = CavityConfig(
        length=draw(st.floats(0.2, 5.0)),
        n_atoms_total=draw(log_uniform(1.0e8, 1.0e10)),
        density=draw(log_uniform(1.0e12, 1.0e14)),
        coupling_mode=draw(st.sampled_from(["anchored", "microscopic"])),
        omega_tilde_ref=omega_ref_mhz * TWO_PI_MHZ,
        delta_ref=delta_ref_mhz * TWO_PI_MHZ)
    lo = draw(st.floats(-2000.0, -200.0))
    hi = draw(st.floats(lo, -100.0))
    mhz = np.linspace(lo, hi, draw(st.integers(1, 40)))
    return (species, cavity, draw(st.sampled_from(["approx", "analytic"])),
            mhz * TWO_PI_MHZ)


#: the overdamped analytic kernel over the whole default window
OVERDAMPED = (HumanUnitsConfig(),
              CavityConfig(length=1.0, n_atoms_total=2.0e9, density=4.0e13,
                           omega_tilde_ref=1.0 * TWO_PI_MHZ,
                           delta_ref=-350.0 * TWO_PI_MHZ),
              "analytic", np.linspace(-1000.0, -350.0, 25) * TWO_PI_MHZ)


def run_case(case):
    species, cavity, p_model, deltas = case
    params = resolve_params(species)
    return params, cavity, p_model, deltas, loss_grid(deltas, cavity, params,
                                                      p_model)


PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(scan_cases())
@example(OVERDAMPED)
def test_rows_equal_loss_point_bitwise(case):
    params, cavity, p_model, deltas, grid = run_case(case)
    for i, delta in enumerate(deltas.tolist()):
        point = loss_point(delta, cavity, params, p_model)
        assert point.delta == delta
        # loss_grid on a number is the same chain, of builtin floats
        assert loss_grid(delta, cavity, params, p_model) == point
        # the times and radii of one collision_times call, as `cavloss times`
        # writes them
        alone = point._replace(
            times=collision_times(delta, point.omega_tilde, params))
        for name, of_point in COLUMNS.items():
            column = of_point(grid)[i].hex()
            assert column == of_point(point).hex(), name
            assert column == of_point(alone).hex(), name


@PROPERTY
@given(scan_cases())
def test_times_array_matches_scalar(case):
    species, cavity, _, deltas = case
    params = resolve_params(species)
    omegas = coupling(deltas, cavity, params).omega_tilde
    times = collision_times(deltas, omegas, params)
    geometry = resonance_geometry(deltas, omegas, params)
    for i, (delta, omega) in enumerate(zip(deltas.tolist(), omegas.tolist())):
        one = collision_times(delta, omega, params)
        for name in ("t_total", "frac_resonant", "t_resonant",
                     "t_escape_region"):
            assert getattr(times, name)[i].hex() == getattr(one, name).hex()
        one_geometry = resonance_geometry(delta, omega, params)
        for name in ("r_condon", "r_escape", "r_ratio"):
            want = getattr(one_geometry, name).hex()
            assert getattr(geometry, name)[i].hex() == want, name
            assert getattr(times.geometry, name)[i].hex() == want, name
            assert getattr(one.geometry, name).hex() == want, name


@PROPERTY
@given(scan_cases())
@example(OVERDAMPED)
def test_loss_identities(case):
    params, cavity, p_model, deltas, grid = run_case(case)
    gamma = params.gamma_mol
    assert np.all((grid.loss_cavity >= 0.0) & (grid.loss_cavity <= 1.0))
    assert np.all((grid.loss_free >= 0.0) & (grid.loss_free <= 1.0))
    series, terms = loss_series(grid.times, grid.omega_tilde, gamma, p_model)
    assert np.all(np.abs(series - grid.loss_cavity) <= 1.0e-12)
    first = single_passage_loss(grid.times, grid.omega_tilde, gamma, p_model)
    points = [loss_point(delta, cavity, params, p_model)
              for delta in deltas.tolist()]
    # a scalar call is one element of the grid, so it agrees bit for bit
    i = len(points) // 2
    value, count = loss_series(points[i].times, points[i].omega_tilde, gamma,
                               p_model)
    assert (value.hex(), count) == (series[i].hex(), terms[i])
    assert type(count) is int
    assert single_passage_loss(points[i].times, points[i].omega_tilde, gamma,
                               p_model).hex() == first[i].hex()
    for point in points:
        decay = loss_closed_form(point.times, point.omega_tilde, gamma,
                                 lambda t, _w, g: math.exp(-g * t))
        assert abs(decay - point.loss_free) <= 1.0e-12


@st.composite
def validate_documents(draw):
    gamma_a_mhz = draw(log_uniform(0.01, 20.0))
    return {"species": {"gamma_a_mhz": gamma_a_mhz},
            "coupling": {
                "mode": draw(st.sampled_from(["anchored", "microscopic"])),
                "omega_tilde_ref_mhz": draw(log_uniform(0.05 * gamma_a_mhz,
                                                        400.0))},
            "scan": {"p_model": draw(st.sampled_from(["approx",
                                                      "analytic"]))}}


@settings(max_examples=50, deadline=None, derandomize=True)
@given(validate_documents())
@example({"coupling": {"mode": "microscopic"},
          "species": {"gamma_a_mhz": 0.01}})
def test_validate_passes_on_valid_configs(document):
    # a FAIL is a defect of the program, never of a valid config
    cfg = build_run_config(document)
    report, status = cmd_validate(cfg, cavity_config(cfg),
                                  resolve_params(cfg.species))
    assert status == 0, report


def test_overdamped_example_takes_the_hyperbolic_branch():
    # index 2 of (decoupled, oscillating, hyperbolic b*t <= 1, beyond)
    params, _, _, _, grid = run_case(OVERDAMPED)
    omega, gamma = grid.omega_tilde, params.gamma_mol
    for t in (grid.times.t_resonant, 2.0 * grid.times.t_resonant):
        assert np.all(_form(t, omega, gamma) == 2)


def assert_scalar_calls_match(kernel, t, omega, gamma):
    # a scalar call is one element of the grid, so it agrees bit for bit
    values = kernel(t, omega, gamma)
    for i in range(len(t)):
        scalar = kernel(float(t[i]), float(omega[i]), gamma)
        assert type(scalar) is float
        assert scalar == values[i]


@PROPERTY
@given(gamma=st.one_of(st.just(0.0), st.floats(1.0e3, 1.0e9)),
       ratios=st.lists(st.sampled_from([0.0, 0.1, 0.2499999, 0.25, 0.2500001,
                                        0.3, 1.0, 30.0]), min_size=1,
                       max_size=8),
       scaled_t=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=8))
def test_analytic_kernel_array_matches_scalar(gamma, ratios, scaled_t):
    # every damping branch: decoupled, oscillating, hyperbolic below and
    # beyond b*t = 1
    rate = gamma if gamma > 0.0 else 1.0e8
    size = min(len(ratios), len(scaled_t))
    t = np.array(scaled_t[:size]) / rate
    omega = np.array(ratios[:size]) * rate
    assert_scalar_calls_match(p_omega_analytic, t, omega, gamma)


def test_approx_kernel_array_matches_scalar():
    # one form for every input, so one random grid covers it
    rng = np.random.default_rng(29)
    gamma = 1.0e8
    t = rng.uniform(0.0, 40.0, size=200) / gamma
    omega = rng.choice([0.0, 0.1, 0.25, 1.0, 30.0], size=200) * gamma
    assert_scalar_calls_match(p_omega_approx, t, omega, gamma)


#: (t, omega_tilde, gamma, the refusal) for a negative element of each
REFUSALS = [
    (-1.0, 2.0, 1.0, "time must be >= 0, got -1.0"),
    (1.0, 2.0, -0.5, "decay rate must be >= 0, got -0.5"),
    (1.0, -2.0, 1.0, "collective Rabi frequency must be >= 0, got -2.0"),
    (-1.0, -2.0, -0.5, "time must be >= 0, got -1.0"),
    (1.0, -2.0, -0.5, "decay rate must be >= 0, got -0.5"),
]


@pytest.mark.parametrize("grid", [False, True], ids=["scalar", "array"])
@pytest.mark.parametrize("kernel, t, omega, gamma, message", [
    (kernel, *refusal) for kernel in (p_omega_analytic, p_omega_approx)
    for refusal in REFUSALS])
def test_kernel_refusals_name_the_first_bad_input(kernel, t, omega, gamma,
                                                  message, grid):
    # both kernels alike: time, then decay rate, then coupling; an array
    # names its first offender, so the -4.0 after it is never reported
    if grid:
        t, omega = np.array([0.5, t, 3.0]), np.array([1.0, omega, -4.0])
    with pytest.raises(DomainError) as caught:
        kernel(t, omega, gamma)
    assert str(caught.value) == message


def test_scalar_views_return_builtin_floats():
    # numpy scalars would slow the RK4 loop fed by coupling and
    # print as np.float64(...) in the constants report
    species, cavity, _, _ = OVERDAMPED
    params = resolve_params(species)
    delta, omega = -500.0 * TWO_PI_MHZ, 140.0 * TWO_PI_MHZ
    point = loss_point(delta, cavity, params)
    whole = loss_grid(delta, cavity, params)
    times = collision_times(delta, omega, params)
    geometry = resonance_geometry(delta, omega, params)
    values = [condon_radius(delta, params), geometry.r_escape,
              geometry.r_ratio,
              fraction_f(delta, omega), total_time(delta, params),
              landau_zener(delta, omega, 12.0, params),
              p_omega_approx(1.0e-9, omega, 1.0e8),
              p_omega_analytic(1.0e-9, omega, 1.0e8),
              loss_closed_form(times, omega, 1.0e8, "analytic"),
              loss_no_cavity(times, 1.0e8),
              point.omega_tilde, point.n_pairs, point.times.t_resonant,
              point.times.geometry.r_escape, point.phase, point.loss_cavity,
              point.loss_free, times.t_total, times.frac_resonant,
              times.geometry.r_condon]
    values += [whole.delta, whole.omega_tilde, whole.n_pairs, whole.phase,
               whole.loss_cavity, whole.loss_free, whole.times.t_total,
               whole.times.frac_resonant, whole.times.t_resonant,
               whole.times.t_escape_region, whole.times.geometry.detuning,
               whole.times.geometry.r_condon, whole.times.geometry.r_escape,
               whole.times.geometry.r_ratio]
    coupled = coupling(delta, cavity, params)
    values += [coupled.omega_single, coupled.n_pairs, coupled.omega_tilde]
    assert [type(v) for v in values] == [float] * len(values)
