"""Coupling chain: geometry, field, dipole, Rabi frequencies, pair count."""

import math

import numpy as np
import pytest

from cavloss import (CavityConfig, ConfigError, DomainError,
                     HumanUnitsConfig, atomic_dipole, coupling,
                     field_per_photon, landau_zener, mode_geometry,
                     molecular_dipole, pair_count, resolve_params, single_rabi)
from cavloss.constants import C_LIGHT, HBAR
from oracles import TWO_PI_MHZ

RB85 = resolve_params(HumanUnitsConfig())
DELTA_REF = -350.0 * TWO_PI_MHZ
OMEGA_C = RB85.omega_a + DELTA_REF   # mode frequency at the reference point


def make_config(mode="anchored", **overrides):
    base = dict(length=1.0, n_atoms_total=2.0e9, density=4.0e13,
                coupling_mode=mode, omega_tilde_ref=200.0 * TWO_PI_MHZ,
                delta_ref=DELTA_REF)
    base.update(overrides)
    return CavityConfig(**base)


class TestGeometry:
    def test_published_waist_and_volume(self):
        waist, volume = mode_geometry(OMEGA_C, make_config())
        assert waist * 1.0e4 == pytest.approx(36.0, rel=3.0e-2)
        assert volume == pytest.approx(4.0e-5, rel=6.0e-2)

    def test_scaling_with_length(self):
        waist, volume = mode_geometry(OMEGA_C, make_config())
        waist4, volume4 = mode_geometry(OMEGA_C, make_config(length=4.0))
        assert waist4 == pytest.approx(2.0 * waist, rel=1.0e-12)
        assert volume4 == pytest.approx(16.0 * volume, rel=1.0e-12)

    def test_formula(self):
        config = make_config()
        waist, volume = mode_geometry(OMEGA_C, config)
        assert waist == pytest.approx(
            math.sqrt(C_LIGHT * config.length / OMEGA_C), rel=1.0e-12)
        assert volume == pytest.approx(math.pi * waist**2 * config.length,
                                       rel=1.0e-12)


class TestField:
    def test_reference_value(self):
        _, volume = mode_geometry(OMEGA_C, make_config())
        field = field_per_photon(RB85.omega_a, volume)
        assert field == pytest.approx(6.3e-4, rel=2.0e-2)

    def test_scalings(self):
        field = field_per_photon(RB85.omega_a, 4.0e-5)
        assert field_per_photon(RB85.omega_a, 1.6e-4) \
            == pytest.approx(field / 2.0, rel=1.0e-12)
        assert field_per_photon(4.0 * RB85.omega_a, 4.0e-5) \
            == pytest.approx(2.0 * field, rel=1.0e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            field_per_photon(0.0, 1.0)
        with pytest.raises(DomainError):
            field_per_photon(1.0, -1.0)

    @pytest.mark.parametrize("omega, volume, message", [
        (np.array([1.0, -2.0, 0.0]), 1.0,
         "mode frequency must be positive, got -2.0 rad/s"),
        (1.0, np.array([1.0, 0.0, -3.0]),
         "mode volume must be positive, got 0.0 cm^3"),
    ])
    def test_refusal_names_the_first_offender(self, omega, volume, message):
        with pytest.raises(DomainError) as info:
            field_per_photon(omega, volume)
        assert str(info.value) == message


class TestDipole:
    def test_inversion_formula(self):
        d_a = atomic_dipole(RB85)
        # scalar oracle: gamma_a = 4 d^2 omega^3 / (3 hbar c^3) inverted
        assert 4.0 * d_a**2 * RB85.omega_a**3 / (3.0 * HBAR * C_LIGHT**3) \
            == pytest.approx(RB85.gamma_a, rel=1.0e-12)
        assert d_a == pytest.approx(7.8e-18, rel=2.0e-2)

    def test_rate_scaling(self):
        boosted = resolve_params(HumanUnitsConfig(gamma_a_mhz=24.0))
        assert atomic_dipole(boosted) == pytest.approx(2.0 * atomic_dipole(RB85),
                                                       rel=1.0e-12)

    def test_pair_dipole_sqrt2(self):
        assert molecular_dipole(RB85) == math.sqrt(2.0) * atomic_dipole(RB85)


class TestSingleRabi:
    def test_published_value(self):
        omega = single_rabi(OMEGA_C, make_config(), RB85)
        assert omega / TWO_PI_MHZ == pytest.approx(0.42, rel=5.0e-2)

    def test_volume_scaling(self):
        omega = single_rabi(OMEGA_C, make_config(), RB85)
        omega4 = single_rabi(OMEGA_C, make_config(length=4.0), RB85)
        # V x16 at fixed frequency means the field and coupling halve twice
        assert omega4 == pytest.approx(omega / 4.0, rel=1.0e-12)


class TestPairCount:
    def test_published_value(self):
        n = pair_count(DELTA_REF, make_config(), RB85)
        assert 2.3e5 / 1.5 <= n <= 2.3e5 * 1.5

    def test_inverse_square_scaling(self):
        n = pair_count(DELTA_REF, make_config(), RB85)
        assert pair_count(2.0 * DELTA_REF, make_config(), RB85) \
            == pytest.approx(n / 4.0, rel=1.0e-12)

    def test_large_detuning_magnitude(self):
        # scalar oracle from the counting formula
        gamma = RB85.gamma_mol
        delta = -1000.0 * TWO_PI_MHZ
        expected = (2.0e9 * 4.0e13
                    * (2.0 * math.pi * 1.1e-34 / (3.0 * HBAR * gamma))
                    * (gamma / delta) ** 2)
        assert pair_count(delta, make_config(), RB85) \
            == pytest.approx(expected, rel=1.0e-12)
        assert expected == pytest.approx(3.0e4, rel=0.2)

    def test_domain(self):
        with pytest.raises(DomainError):
            pair_count(0.0, make_config(), RB85)


class TestCollectiveRabi:
    def test_anchored_reference_point(self):
        point = coupling(DELTA_REF, make_config(), RB85)
        assert point.omega_tilde == pytest.approx(200.0 * TWO_PI_MHZ,
                                                  rel=1.0e-12)

    def test_anchored_inverse_detuning(self):
        point = coupling(-1000.0 * TWO_PI_MHZ, make_config(), RB85)
        assert point.omega_tilde / TWO_PI_MHZ == pytest.approx(70.0, rel=1.0e-9)

    def test_anchored_scaling_invariant(self):
        products = []
        for delta_mhz in np.linspace(-1000.0, -350.0, 40):
            point = coupling(delta_mhz * TWO_PI_MHZ, make_config(), RB85)
            products.append(point.omega_tilde * abs(point.delta))
        ref = products[0]
        assert all(abs(p - ref) <= 1.0e-12 * ref for p in products)

    def test_anchored_backfills_pair_count(self):
        point = coupling(DELTA_REF, make_config(), RB85)
        assert point.n_pairs == pytest.approx(
            (point.omega_tilde / point.omega_single) ** 2, rel=1.0e-12)

    def test_microscopic_identity(self):
        config = make_config(mode="microscopic")
        for delta_mhz in np.linspace(-1000.0, -350.0, 40):
            point = coupling(delta_mhz * TWO_PI_MHZ, config, RB85)
            assert abs(point.omega_tilde**2
                       - point.n_pairs * point.omega_single**2) \
                <= 1.0e-12 * point.omega_tilde**2

    def test_microscopic_near_anchor(self):
        point = coupling(DELTA_REF, make_config(mode="microscopic"), RB85)
        assert point.omega_tilde / (200.0 * TWO_PI_MHZ) < 1.3
        assert point.omega_tilde / (200.0 * TWO_PI_MHZ) > 1.0 / 1.3

    def test_anchored_requires_references(self):
        with pytest.raises(ConfigError, match="omega_tilde_ref"):
            make_config(omega_tilde_ref=None)
        with pytest.raises(ConfigError, match="delta_ref"):
            make_config(delta_ref=None)

    def test_rejects_positive_detuning(self):
        with pytest.raises(DomainError):
            coupling(abs(DELTA_REF), make_config(), RB85)


class TestLandauZener:
    def test_zero_coupling(self):
        assert landau_zener(DELTA_REF, 0.0, 12.0, RB85) == 0.0

    def test_saturation(self):
        # preset couplings are deep in the adiabatic regime
        p = landau_zener(DELTA_REF, 200.0 * TWO_PI_MHZ, 12.0, RB85)
        assert p == pytest.approx(1.0, abs=1.0e-12)

    def test_monotonicities(self):
        probs = [landau_zener(DELTA_REF, w, 12.0, RB85)
                 for w in np.linspace(0.0, 3.0e6, 12)]
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        slower = landau_zener(DELTA_REF, 1.0e6, 6.0, RB85)
        faster = landau_zener(DELTA_REF, 1.0e6, 24.0, RB85)
        assert faster < slower

    def test_domain(self):
        with pytest.raises(DomainError):
            landau_zener(DELTA_REF, 1.0e6, 0.0, RB85)
        with pytest.raises(DomainError):
            landau_zener(DELTA_REF, -1.0, 12.0, RB85)


class TestConfigValidation:
    def test_rejects_nonpositive_geometry(self):
        with pytest.raises(ConfigError):
            make_config(length=0.0)
        with pytest.raises(ConfigError):
            make_config(density=-1.0)

    def test_rejects_nan_length_naming_the_field(self):
        with pytest.raises(ConfigError, match=r"^cavity\.length_cm must be "
                                              r"positive, got nan$"):
            make_config(length=math.nan)

    @pytest.mark.parametrize("overrides, message", [
        # the mode volume is pi*c*length^2/omega_c
        ({"length": 1e308}, "cavity.length_cm squared leaves the "
                            "floating-point range, got 1e+308"),
        ({"length": 1e-300}, "cavity.length_cm squared leaves the "
                             "floating-point range, got 1e-300"),
        ({"n_atoms_total": 1e308, "density": 1e308},
         "cavity.n_atoms * cavity.density_cm3 leaves the floating-point "
         "range, got 1e+308 * 1e+308"),
        ({"omega_tilde_ref": math.inf}, "coupling.omega_tilde_ref_mhz must "
         "be finite and positive in anchored mode, got inf rad/s"),
        ({"delta_ref": -math.inf}, "coupling.delta_ref_mhz must be finite "
         "and negative in anchored mode, got -inf rad/s"),
        ({"delta_ref": math.nan}, "coupling.delta_ref_mhz must be finite "
         "and negative in anchored mode, got nan rad/s"),
    ])
    def test_rejects_values_beyond_the_float_range(self, overrides, message):
        with pytest.raises(ConfigError) as info:
            make_config(**overrides)
        assert str(info.value) == message

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigError, match="coupling.mode"):
            make_config(mode="mystery")
