"""Acceptance suite: one test per criterion, one printed verdict line each.

Criterion 12 is split into its structural clauses; the final clause
(the loss gap at -950 MHz versus -500 MHz) is asserted exactly as
stated even though the shipped formulas place the gap the other way
around; see the analysis note shipped with the repository history.
"""

import math

import numpy as np
import pytest

from cavloss import (CavityConfig, CollisionTimes, ConfigError,
                     DivergenceError, DomainError, EXCITED_STATE,
                     HumanUnitsConfig, collision_times, condon_radius,
                     coupling, fraction_f, g0_constant, integrate_grid,
                     landau_zener, loss_closed_form, loss_no_cavity,
                     loss_point, loss_series, max_stable_dt, p_omega_analytic,
                     pair_count, resolve_params, scan_grid, total_time)
from cavloss.cli import (build_run_config, cavity_config, cmd_constants,
                         cmd_times, main)
from oracles import TWO_PI_MHZ, g0_oracle

RB85 = resolve_params(HumanUnitsConfig())
GAMMA = RB85.gamma_mol
DELTA_350 = -350.0 * TWO_PI_MHZ
OMEGA_200 = 200.0 * TWO_PI_MHZ
CONFIG = build_run_config()


def make_cavity(mode="anchored"):
    return CavityConfig(length=1.0, n_atoms_total=2.0e9, density=4.0e13,
                        coupling_mode=mode,
                        omega_tilde_ref=OMEGA_200, delta_ref=DELTA_350)


def closed_form_gap(run, omega, gamma):
    """Largest |p_e - p(t)| over a run, the kernel taken on all its times."""
    times, states = run
    return np.max(np.abs(states[:, 0] - p_omega_analytic(times, omega, gamma)))


def verdict(name, ok, detail=""):
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


def times_row():
    text = cmd_times(CONFIG, cavity_config(CONFIG), RB85, -350.0)
    header, values = (line.split(",") for line in text.strip().splitlines())
    return dict(zip(header, map(float, values)))


@pytest.fixture(scope="module")
def default_grid():
    deltas = [m * TWO_PI_MHZ for m in np.linspace(-1000.0, -350.0, 200)]
    return scan_grid(deltas, make_cavity(), RB85, "approx")


@pytest.fixture(scope="module")
def default_scan(default_grid):
    return [loss_point(delta, make_cavity(), RB85, "approx")
            for delta in default_grid.delta.tolist()]


def test_01_condon_radius():
    r_condon = times_row()["r_condon_ang"]
    verdict("01 condon radius", abs(r_condon - 366.0) <= 0.02 * 366.0,
            f"r_condon={r_condon:.2f} Ang vs 366 +-2%")


def test_02_total_time():
    t0 = times_row()["t0_s"]
    verdict("02 total in-fall time", abs(t0 - 1.07e-8) <= 0.02 * 1.07e-8,
            f"t0={t0:.4e} s vs 1.07e-8 +-2%")


def test_03_normalization_constant():
    g0 = g0_constant()
    oracle = g0_oracle()
    ok = abs(g0 - 0.746) <= 1.0e-3 and abs(g0 - oracle) <= 1.0e-8
    verdict("03 normalization constant", ok,
            f"g0={g0:.7f}, |g0 - simpson oracle|={abs(g0 - oracle):.2e}")


def test_04_resonant_fraction():
    times = collision_times(DELTA_350, OMEGA_200, RB85)
    ok = (abs(times.frac_resonant - 0.55) <= 0.01
          and abs(times.t_resonant - 0.55 * times.t_total)
          <= 0.01 * times.t_total
          and abs(times.t_escape_region - 0.45 * times.t_total)
          <= 0.01 * times.t_total)
    verdict("04 resonant fraction", ok, f"f={times.frac_resonant:.4f}")


def test_05_largest_phase():
    phase = times_row()["phase_over_pi"]
    verdict("05 largest phase", abs(phase - 2.35) <= 0.02 * 2.35,
            f"phase={phase:.4f} pi vs 2.35 pi +-2%")


def test_06_single_rabi_and_geometry():
    cav = cavity_config(CONFIG)
    report = dict(line.split("=", 1)
                  for line in cmd_constants(CONFIG, cav, RB85)
                  .strip().splitlines())
    omega = float(report["omega_single_mhz"])
    waist = float(report["waist_um"])
    volume = float(report["mode_volume_cm3"])
    ok = (abs(omega - 0.42) <= 0.05 * 0.42
          and abs(waist - 36.0) <= 0.03 * 36.0
          and abs(volume - 4.0e-5) <= 0.06 * 4.0e-5)
    verdict("06 coupling chain", ok,
            f"Omega/2pi={omega:.4f} MHz, w0={waist:.2f} um, V={volume:.3e} cm3")


def test_07_pair_count():
    n = pair_count(DELTA_350, make_cavity(), RB85)
    verdict("07 resonant pair count", 2.3e5 / 1.5 <= n <= 2.3e5 * 1.5,
            f"N={n:.3e} vs 2.3e5 within x1.5")


def test_08_anchored_coupling():
    omega = coupling(-1000.0 * TWO_PI_MHZ, make_cavity(), RB85).omega_tilde
    mhz = omega / TWO_PI_MHZ
    verdict("08 anchored coupling", abs(mhz - 70.0) <= 0.01 * 70.0,
            f"Omega~(-1 GHz)/2pi={mhz:.4f} MHz vs 70 +-1%")


def test_09_master_equation_fidelity():
    rng = np.random.default_rng(101)
    gammas = rng.uniform(1.0e6, 1.0e9, size=20)
    ratios = np.concatenate([
        np.exp(rng.uniform(math.log(0.3), math.log(8.0), size=14)),
        rng.uniform(0.02, 0.24, size=6),
    ])
    worst_err = worst_trace = worst_rank = 0.0
    for gamma, ratio in zip(gammas, ratios):
        omega = ratio * gamma
        dt = max_stable_dt(omega, gamma) / 8.0
        run = integrate_grid(EXCITED_STATE, omega, gamma, 5.0 / gamma, dt)
        worst_err = max(worst_err, closed_form_gap(run, omega, gamma))
        states = run[1]
        worst_trace = max(worst_trace, np.max(np.abs(
            states[:, :3].sum(axis=1) - 1.0)))
        # the (E,G) block stays rank one: (Im c_eg)^2 = p_e*p_g
        p_e, p_g, _, eg_im = states.T
        worst_rank = max(worst_rank, np.max(np.abs(eg_im**2 - p_e * p_g)))
    errors = []
    for n in (256, 512, 1024):
        run = integrate_grid(EXCITED_STATE, 2.0, 1.0, 4.0, 4.0 / n)
        errors.append(closed_form_gap(run, 2.0, 1.0))
    order = 0.5 * (math.log2(errors[0] / errors[1])
                   + math.log2(errors[1] / errors[2]))
    ok = (worst_err <= 1.0e-8 and worst_trace <= 1.0e-10
          and worst_rank <= 1.0e-8 and abs(order - 4.0) <= 0.2)
    verdict("09 master-equation fidelity", ok,
            f"max_err={worst_err:.2e}, trace={worst_trace:.2e}, "
            f"rank={worst_rank:.2e}, order={order:.2f}")


def _random_times(rng, gamma, with_t_prime):
    t_c = rng.uniform(0.01, 3.0) / gamma
    t_e = rng.uniform(0.01, 2.0) / gamma
    t_p = rng.uniform(0.01, 1.0) / gamma if with_t_prime else 0.0
    return CollisionTimes(t_total=t_c + t_e, frac_resonant=t_c / (t_c + t_e),
                          t_resonant=t_c, t_escape_region=t_e, t_prime=t_p)


def test_10_series_equals_closed_form(default_grid):
    series, _ = loss_series(default_grid.times, default_grid.omega_tilde,
                            GAMMA, "approx")
    worst = np.max(np.abs(series - default_grid.loss_cavity))
    rng = np.random.default_rng(59)
    draws = []
    for i in range(1000):
        gamma = rng.uniform(1.0e7, 1.0e9)
        times = _random_times(rng, gamma, with_t_prime=(i % 2 == 0))
        draws.append((gamma, times.t_resonant, times.t_escape_region,
                      times.t_prime, gamma * rng.uniform(0.05, 20.0)))
    # every tuple in units of its own 1/gamma, so the grid runs at gamma = 1
    gamma, t_c, t_e, t_p, omega = map(np.array, zip(*draws))
    t_c, t_e = gamma * t_c, gamma * t_e
    times = CollisionTimes(t_total=t_c + t_e, frac_resonant=t_c / (t_c + t_e),
                           t_resonant=t_c, t_escape_region=t_e,
                           t_prime=gamma * t_p)
    series, _ = loss_series(times, omega / gamma, 1.0, "approx")
    closed = loss_closed_form(times, omega / gamma, 1.0, "approx")
    worst = max(worst, np.max(np.abs(series - closed)))
    verdict("10 series/closed-form equivalence", worst <= 1.0e-12,
            f"max |sum - closed|={worst:.2e}")


def test_11_no_cavity_identity(default_scan):
    decay = lambda t, _w, g: math.exp(-g * t)
    worst = 0.0
    for point in default_scan:
        closed = loss_closed_form(point.times, point.omega_tilde, GAMMA, decay)
        worst = max(worst, abs(closed - point.loss_free))
    rng = np.random.default_rng(61)
    for _ in range(1000):
        gamma = rng.uniform(1.0e7, 1.0e9)
        times = _random_times(rng, gamma, with_t_prime=False)
        closed = loss_closed_form(times, 123.0 * gamma, gamma, decay)
        worst = max(worst, abs(closed - loss_no_cavity(times, gamma)))
    verdict("11 no-cavity identity", worst <= 1.0e-12,
            f"max |closed(decay) - sinh ratio|={worst:.2e}")


def test_12a_oscillation_minima_aligned(default_scan):
    lc = [p.loss_cavity for p in default_scan]
    phases = [p.phase / math.pi for p in default_scan]
    minima = [i for i in range(1, len(lc) - 1)
              if lc[i] < lc[i - 1] and lc[i] < lc[i + 1]]
    aligned = all(
        abs(phases[i] - (round(phases[i] - 0.5) + 0.5))
        <= abs(phases[i + 1] - phases[i - 1]) / 2.0
        for i in minima)
    verdict("12a oscillation minima", len(minima) >= 2 and aligned,
            f"{len(minima)} interior minima at phase/pi="
            f"{[round(phases[i], 3) for i in minima]}")


def test_12b_extrema_ordering(default_scan):
    lc = [p.loss_cavity for p in default_scan]
    lo = [p.loss_free for p in default_scan]
    ok = True
    for i in range(1, len(lc) - 1):
        if lc[i] < lc[i - 1] and lc[i] < lc[i + 1]:
            ok = ok and lc[i] < lo[i]
        if lc[i] > lc[i - 1] and lc[i] > lc[i + 1]:
            ok = ok and lc[i] > lo[i]
    verdict("12b extrema ordering vs free loss", ok)


def test_12c_levels_off_toward_free_loss():
    from cavloss.traploss import loss_point
    gaps = {}
    for mhz in (-950.0, -500.0):
        point = loss_point(mhz * TWO_PI_MHZ, make_cavity(), RB85, "approx")
        gaps[mhz] = abs(point.loss_cavity - point.loss_free)
    verdict("12c levels off toward free loss", gaps[-950.0] < gaps[-500.0],
            f"|Lc-Lo|(-950)={gaps[-950.0]:.4f} vs |Lc-Lo|(-500)={gaps[-500.0]:.4f}")


def test_13_degenerate_inputs(capsys):
    ok = True
    # lossless full revival diverges
    t_c = 2.0e-9
    times = CollisionTimes(t_total=3.0e-9, frac_resonant=t_c / 3.0e-9,
                           t_resonant=t_c, t_escape_region=1.0e-9)
    try:
        loss_series(times, math.pi / (2.0 * t_c), 0.0, "approx")
        ok = False
    except DivergenceError:
        pass
    # non-negative detunings rejected across the surface
    for delta in (0.0, 1.0, abs(DELTA_350)):
        for call in (
                lambda d: condon_radius(d, RB85),
                lambda d: total_time(d, RB85),
                lambda d: fraction_f(d, OMEGA_200),
                lambda d: collision_times(d, OMEGA_200, RB85),
                lambda d: pair_count(d, make_cavity(), RB85),
                lambda d: coupling(d, make_cavity(), RB85),
                lambda d: landau_zener(d, OMEGA_200, 12.0, RB85),
        ):
            try:
                call(delta)
                ok = False
            except DomainError:
                pass
    try:
        scan_grid([-400.0 * TWO_PI_MHZ, abs(DELTA_350)], make_cavity(),
                  RB85, "approx", allow_out_of_window=True)
        ok = False
    except ConfigError:
        pass
    # out-of-window detunings need the override flag
    try:
        scan_grid([-1500.0 * TWO_PI_MHZ, -400.0 * TWO_PI_MHZ],
                  make_cavity(), RB85, "approx")
        ok = False
    except ConfigError:
        pass
    code = main(["times", "--delta-mhz", "350"])
    capsys.readouterr()
    ok = ok and code == 2
    verdict("13 degenerate-input handling", ok)
