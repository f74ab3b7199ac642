"""Dipole-dipole potential and resonance geometry."""

import numpy as np
import pytest

from cavloss import (DomainError, HumanUnitsConfig, condon_radius,
                     potential_slope, resolve_params, resonance_geometry,
                     u_dd)
from cavloss.constants import HBAR
from oracles import TWO_PI_MHZ

RB85 = resolve_params(HumanUnitsConfig())

DELTA_350 = -350.0 * TWO_PI_MHZ
ANG = 1.0e-8


class TestPotential:
    def test_scalar_value(self):
        # -C3/r^3 at 363 Angstrom
        assert u_dd(363.0 * ANG, RB85) == pytest.approx(
            -1.1e-34 / (363.0e-8) ** 3, rel=1.0e-12)
        assert u_dd(363.0 * ANG, RB85) == pytest.approx(-2.30e-18, rel=1.0e-2)

    def test_resonance_condition_at_condon_radius(self):
        rng = np.random.default_rng(3)
        for delta_mhz in rng.uniform(-5000.0, -10.0, size=1000):
            delta = delta_mhz * TWO_PI_MHZ
            value = u_dd(condon_radius(delta, RB85), RB85)
            assert abs(value - HBAR * delta) <= 1.0e-12 * abs(HBAR * delta)

    def test_vanishes_at_infinity(self):
        assert u_dd(1.0e3, RB85) < 0.0
        assert u_dd(1.0e3, RB85) == pytest.approx(0.0, abs=1.0e-40)

    def test_rejects_nonpositive_radius(self):
        for r in (0.0, -1.0):
            with pytest.raises(DomainError):
                u_dd(r, RB85)


class TestSplitting:
    def test_escape_point_detuned_by_coupling(self):
        # compare potential parts; the omega_a offsets cancel in algebra
        # but would bury the 1e-12 target in floating point
        rng = np.random.default_rng(5)
        for _ in range(200):
            delta = -rng.uniform(50.0, 2000.0) * TWO_PI_MHZ
            omega_tilde = rng.uniform(1.0, 500.0) * TWO_PI_MHZ
            r_e = resonance_geometry(delta, omega_tilde, RB85).r_escape
            r_c = condon_radius(delta, RB85)
            shift = (u_dd(r_e, RB85) - u_dd(r_c, RB85)) / HBAR
            assert abs(shift + omega_tilde) <= 1.0e-12 * omega_tilde


class TestCondonRadius:
    def test_published_point(self):
        r_c = condon_radius(DELTA_350, RB85)
        assert r_c / ANG == pytest.approx(366.0, rel=2.0e-2)

    def test_cube_root_scaling(self):
        r_ref = condon_radius(DELTA_350, RB85)
        assert condon_radius(8.0 * DELTA_350, RB85) \
            == pytest.approx(r_ref / 2.0, rel=1.0e-12)

    def test_large_detuning_point(self):
        # scalar oracle (C3/(hbar|delta|))^(1/3) at -1000 MHz
        r_c = condon_radius(-1000.0 * TWO_PI_MHZ, RB85)
        expected = (1.1e-34 / (HBAR * 1000.0 * TWO_PI_MHZ)) ** (1.0 / 3.0)
        assert r_c == pytest.approx(expected, rel=1.0e-12)
        assert r_c / ANG == pytest.approx(255.1, abs=0.1)

    def test_strictly_decreasing_in_detuning(self):
        deltas = -np.linspace(10.0, 5000.0, 100) * TWO_PI_MHZ
        radii = [condon_radius(d, RB85) for d in deltas]
        assert all(b < a for a, b in zip(radii, radii[1:]))

    def test_rejects_red_detuning_violation(self):
        for delta in (0.0, 1.0, abs(DELTA_350)):
            with pytest.raises(DomainError, match="red detuning"):
                condon_radius(delta, RB85)


class TestEscapeRadius:
    def test_zero_coupling_degenerates_to_condon(self):
        geometry = resonance_geometry(DELTA_350, 0.0, RB85)
        assert geometry.r_ratio == 1.0
        assert geometry.r_escape == condon_radius(DELTA_350, RB85)

    def test_reference_ratio(self):
        ratio = resonance_geometry(DELTA_350, 200.0 * TWO_PI_MHZ,
                                   RB85).r_ratio
        assert ratio == pytest.approx((1.0 + 4.0 / 7.0) ** (-1.0 / 3.0),
                                      rel=1.0e-12)
        assert ratio == pytest.approx(0.8603, abs=5.0e-4)

    def test_large_detuning_ratio(self):
        ratio = resonance_geometry(-1000.0 * TWO_PI_MHZ, 70.0 * TWO_PI_MHZ,
                                   RB85).r_ratio
        assert ratio == pytest.approx(1.07 ** (-1.0 / 3.0), rel=1.0e-12)
        assert ratio == pytest.approx(0.9777, abs=5.0e-5)

    def test_rejects_negative_coupling(self):
        with pytest.raises(DomainError):
            resonance_geometry(DELTA_350, -1.0, RB85)


class TestSlope:
    def test_identity_at_condon_radius(self):
        r_c = condon_radius(DELTA_350, RB85)
        assert potential_slope(r_c, RB85) == pytest.approx(
            3.0 * HBAR * abs(DELTA_350) / r_c, rel=1.0e-12)

    def test_power_law(self):
        assert potential_slope(2.0 * 363.0 * ANG, RB85) == pytest.approx(
            potential_slope(363.0 * ANG, RB85) / 16.0, rel=1.0e-12)

    def test_reference_magnitude(self):
        slope = potential_slope(condon_radius(DELTA_350, RB85), RB85)
        assert slope == pytest.approx(1.9e-12, rel=2.0e-2)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(DomainError):
            potential_slope(0.0, RB85)


class TestGeometry:
    def test_bundle_consistency(self):
        geometry = resonance_geometry(DELTA_350, 200.0 * TWO_PI_MHZ, RB85)
        assert geometry.r_escape == geometry.r_condon * geometry.r_ratio
        assert 0.0 < geometry.r_escape < geometry.r_condon

    def test_rejects_positive_detuning(self):
        with pytest.raises(DomainError):
            resonance_geometry(1.0, 0.0, RB85)

    @pytest.mark.parametrize("omega_tilde, radius", [
        (np.inf, "0.0"), (np.nan, "nan"),
        (np.array([200.0 * TWO_PI_MHZ, np.inf, np.nan]), "0.0"),
    ])
    def test_escape_radius_outside_the_condon_radius_refused(self, omega_tilde,
                                                             radius):
        # an infinite coupling puts R_e at 0; NaN fails every comparison
        with pytest.raises(DomainError) as info:
            resonance_geometry(DELTA_350, omega_tilde, RB85)
        assert str(info.value) == ("requires 0 < r_escape <= r_condon, got "
                                   f"r_escape={radius} cm")
