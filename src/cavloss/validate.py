"""The ``validate`` command: the cross-module invariant suite.

Each check is a zero-argument callable named after the module whose
invariant it tests.  It fails by raising, through :func:`_require` or a
refusal it meets, and :func:`cmd_validate` reports one PASS or FAIL line
per check.  Only ``cavloss validate`` imports this module, so no other
command compiles it.
"""

from __future__ import annotations

from dataclasses import fields
from typing import TYPE_CHECKING

import numpy as np

from . import cavity as cavity_mod
from . import dynamics as dynamics_mod
from . import kinematics as kinematics_mod
from . import potential as potential_mod
from . import traploss as traploss_mod
from .constants import (HBAR, TWO_PI_MHZ, PhysicalParams, resolve_params,
                        to_human_units)
from .grid import float_range

if TYPE_CHECKING:   # cli imports this module; importing cli back would cycle
    from .cli import RunConfig


def _require(ok, claim: str, **samples) -> None:
    """Raise AssertionError naming the first sample where ``ok`` is False.

    Each keyword is an array of sample values (or one value for all)
    reported at that index.  Every validate check fails through this or
    through a refusal it meets, never an ``assert``, so ``python -O`` keeps
    the verdicts.
    """
    ok = np.asarray(ok)
    if ok.all():
        return
    index = int(np.flatnonzero(~ok)[0])
    values = ", ".join(
        f"{name} = {np.broadcast_to(value, ok.shape).flat[index].item()!r}"
        for name, value in samples.items())
    raise AssertionError(f"{claim} fails at sample {index}: {values}")


def _validation_checks(cfg: RunConfig, cav: cavity_mod.CavityConfig,
                       params: PhysicalParams) -> list[tuple[str, object]]:
    """Build the named invariant checks; each is a zero-arg callable."""
    rng = np.random.default_rng(20250101)
    low, high = traploss_mod.DEFAULT_WINDOW_MHZ
    delta_samples = -rng.uniform(-high, -low, size=50) * TWO_PI_MHZ
    by_size = np.sort(delta_samples)[::-1]   # |delta| ascending
    delta_mid = 0.5 * (cfg.scan.from_mhz + cfg.scan.to_mhz) * TWO_PI_MHZ

    def resolve_strict():
        back = to_human_units(resolve_params(cfg.species))
        for key in fields(cfg.species):
            want, got = getattr(cfg.species, key.name), getattr(back, key.name)
            if want is None or got is None or (want == 0.0 and got == 0.0):
                continue   # the trap depth given in the other unit, or zero
            _require(abs(got - want) <= 1.0e-12 * abs(want),
                     f"{key.name} round-trip", given=want, resolved=got)

    def resolve_deterministic():
        once, again = (np.array(tuple(resolve_params(cfg.species)))
                       for _ in range(2))
        _require(once == again, "two resolutions agree",
                 field=list(PhysicalParams._fields),
                 once=once, again=again)

    def condon_condition():
        r_c = potential_mod.condon_radius(delta_samples, params)
        value = potential_mod.u_dd(r_c, params)
        target = HBAR * delta_samples
        _require(np.abs(value - target) <= 1.0e-12 * np.abs(target),
                 "U_dd(R_C) = hbar*delta", delta_mhz=delta_samples / TWO_PI_MHZ,
                 u_dd=value, hbar_delta=target)

    def escape_offset():
        omega_tilde = cavity_mod.coupling(
            delta_samples, cav, params).omega_tilde
        geometry = potential_mod.resonance_geometry(delta_samples,
                                                    omega_tilde, params)
        value = potential_mod.u_dd(geometry.r_escape, params)
        target = HBAR * (delta_samples - omega_tilde)
        _require(np.abs(value - target) <= 1.0e-12 * np.abs(target),
                 "U_dd(R_E) = hbar*(delta - omega_tilde)",
                 delta_mhz=delta_samples / TWO_PI_MHZ, u_dd=value,
                 target=target, omega_tilde=omega_tilde)

    def condon_monotonic():
        radii = potential_mod.condon_radius(by_size, params)
        _require(radii[:-1] > radii[1:], "R_C falls as |delta| grows",
                 delta_mhz=by_size[:-1] / TWO_PI_MHZ, r_c=radii[:-1],
                 next_r_c=radii[1:])

    def g0_normalization():
        full = kinematics_mod.fraction_f(-1.0, 1.0e30)
        _require(abs(full - 1.0) <= 1.0e-9, "f(r->0) = 1", f=full)

    def f_monotonic_in_coupling():
        omegas = np.linspace(0.0, 4.0 * abs(delta_mid), 20)
        values = kinematics_mod.fraction_f(delta_mid, omegas)
        _require((0.0 <= values) & (values <= 1.0), "0 <= f <= 1",
                 omega_tilde=omegas, f=values)
        _require(values[:-1] < values[1:], "f rises with omega_tilde",
                 omega_tilde=omegas[:-1], f=values[:-1], next_f=values[1:])

    def t0_monotonic():
        times = kinematics_mod.total_time(by_size, params)
        _require(times[:-1] > times[1:], "t0 falls as |delta| grows",
                 delta_mhz=by_size[:-1] / TWO_PI_MHZ, t0=times[:-1],
                 next_t0=times[1:])

    def phase_single_cycle():
        # exceeding one cycle is expected near the window edge, so only
        # the phase itself is checked
        omega_tilde = cavity_mod.coupling(
            delta_samples, cav, params).omega_tilde
        t_c = (kinematics_mod.total_time(delta_samples, params)
               * kinematics_mod.fraction_f(delta_samples, omega_tilde))
        phase = omega_tilde * t_c
        _require(np.isfinite(phase) & (phase > 0.0),
                 "finite phase omega_tilde*t_c > 0", phase=phase,
                 delta_mhz=delta_samples / TWO_PI_MHZ)

    def coupling_identity():
        point = cavity_mod.coupling(delta_samples, cav, params)
        omega_tilde = point.omega_tilde
        delta_mhz = delta_samples / TWO_PI_MHZ
        if cfg.coupling.mode == "microscopic":
            collective = point.n_pairs * point.omega_single**2
            _require(np.abs(omega_tilde**2 - collective)
                     <= 1.0e-12 * omega_tilde**2, "omega_tilde^2 = N*Omega^2",
                     delta_mhz=delta_mhz, omega_tilde=omega_tilde,
                     n_pairs=point.n_pairs, omega_single=point.omega_single)
            products = point.n_pairs * delta_samples**2   # N ~ delta^-2
            claim = "N*delta^2 constant"
        else:
            products = omega_tilde * np.abs(delta_samples)
            claim = "omega_tilde*|delta| constant"
        ref = products[0]
        _require(np.abs(products - ref) <= 1.0e-12 * ref, claim,
                 delta_mhz=delta_mhz, product=products, first_product=ref)

    def dynamics_fidelity():
        omega_tilde = cavity_mod.coupling(delta_mid, cav, params).omega_tilde
        gamma = params.gamma_mol
        t_end, dt = dynamics_mod.default_run(omega_tilde, gamma)
        # at most ten of the fastest cycles, so the RK4 error stays small
        t_end = min(t_end, 10 * dynamics_mod.STEPS_PER_CYCLE
                    * dynamics_mod.max_stable_dt(omega_tilde, gamma))
        times, states = dynamics_mod.integrate_grid(
            dynamics_mod.EXCITED_STATE, omega_tilde, gamma, t_end, dt)
        p_e, p_g, p_v = states[:, :3].T
        analytic = dynamics_mod.p_omega_analytic(times, omega_tilde, gamma)
        _require(np.abs(p_e - analytic) <= 1.0e-8, "p_e = analytic to 1e-8",
                 t_s=times, p_e=p_e, analytic=analytic, t_end_s=t_end)
        trace = p_e + p_g + p_v
        _require(np.abs(trace - 1.0) <= 1.0e-10, "trace = 1 to 1e-10",
                 t_s=times, trace=trace, t_end_s=t_end)

    def regime_continuity():
        gamma = params.gamma_mol
        t_probe = np.array([[0.5], [2.0], [5.0]]) / gamma   # one row each
        omegas = 0.25 * gamma * (1.0 + np.array([0.0, -1.0e-9, 1.0e-9]))
        p = dynamics_mod.p_omega_analytic(t_probe, omegas, gamma)
        jump = np.abs(p[:, 1:] - p[:, :1])   # W = gamma/4 -+ 1e-9 against W
        _require(jump <= 1.0e-9, "p(t) continuous at W = gamma/4", t=t_probe,
                 jump=jump)

    def scan_identities():
        deltas = np.linspace(cfg.scan.from_mhz, cfg.scan.to_mhz,
                             min(cfg.scan.points, 50)) * TWO_PI_MHZ
        gamma = params.gamma_mol
        grid = traploss_mod.scan_grid(deltas, cav, params, cfg.scan.p_model,
                                      allow_out_of_window=True)
        times, l_c, l_o = grid.times, grid.loss_cavity, grid.loss_free
        delta_mhz = grid.delta / TWO_PI_MHZ
        kernel = traploss_mod.loss_closed_form(
            times, grid.omega_tilde, gamma, lambda t, _w, g: np.exp(-g * t))
        _require(np.abs(kernel - l_o) <= 1.0e-12, "exp(-Gamma*t) kernel = L_o",
                 delta_mhz=delta_mhz, kernel=kernel, loss_free=l_o)
        envelope = traploss_mod.P_MODELS[cfg.scan.p_model](
            times.t_resonant, grid.omega_tilde, gamma)
        _require(l_c <= envelope + 1.0e-15, "L_c <= p(t_c)",
                 delta_mhz=delta_mhz, loss_cavity=l_c, p_tc=envelope)
        _require((0.0 <= l_c) & (l_c <= 1.0) & (0.0 <= l_o) & (l_o <= 1.0),
                 "0 <= L <= 1", delta_mhz=delta_mhz, loss_cavity=l_c,
                 loss_free=l_o)
        series, _ = traploss_mod.loss_series(times, grid.omega_tilde, gamma,
                                             cfg.scan.p_model)
        _require(np.abs(series - l_c) <= 1.0e-12, "series = closed form",
                 delta_mhz=delta_mhz, series=series, loss_cavity=l_c)

    def landau_zener_monotonic():
        omegas = np.linspace(0.0, 2.0e6, 10)
        probs = cavity_mod.landau_zener(delta_mid, omegas,
                                        cfg.coupling.v_inf_cm_s, params)
        _require(probs[:1] == 0.0, "P_LZ(omega_tilde = 0) = 0", p=probs[:1])
        _require(probs[:-1] <= probs[1:], "P_LZ rises with omega_tilde",
                 omega_tilde=omegas[:-1], p=probs[:-1], next_p=probs[1:])

    return [
        ("constants.resolve_round_trip", resolve_strict),
        ("constants.deterministic", resolve_deterministic),
        ("potential.condon_condition", condon_condition),
        ("potential.escape_offset", escape_offset),
        ("potential.condon_monotonic", condon_monotonic),
        ("kinematics.g0_normalization", g0_normalization),
        ("kinematics.f_monotonic_in_coupling", f_monotonic_in_coupling),
        ("kinematics.t0_monotonic", t0_monotonic),
        ("kinematics.phase_single_cycle", phase_single_cycle),
        ("cavity.coupling_identity", coupling_identity),
        ("cavity.landau_zener_monotonic", landau_zener_monotonic),
        ("dynamics.fidelity", dynamics_fidelity),
        ("dynamics.regime_continuity", regime_continuity),
        ("traploss.scan_identities", scan_identities),
    ]


def cmd_validate(cfg: RunConfig, cav: cavity_mod.CavityConfig,
                 params: PhysicalParams) -> tuple[str, int]:
    """Run every invariant check; returns (report, exit status)."""
    lines = []
    checks = _validation_checks(cfg, cav, params)
    for name, check in checks:
        try:
            with float_range(name):   # an overflow fails the check
                check()
        except Exception as exc:  # report and continue
            lines.append(f"FAIL {name}: {exc}")
        else:
            lines.append(f"PASS {name}")
    passed = sum(line.startswith("PASS") for line in lines)
    lines.append(f"{passed}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n", 0 if passed == len(checks) else 1
