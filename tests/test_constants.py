"""Constant table and parameter resolution."""

import math

import pytest

from cavloss import ConfigError, HumanUnitsConfig, resolve_params, to_human_units
from cavloss.constants import AMU_G, C_LIGHT, HBAR, KB_ERG, PLANCK_H


def test_wavelength_to_angular_frequency():
    # scalar oracle omega = 2*pi*c/lambda, c = 2.99792458e10 cm/s
    params = resolve_params(HumanUnitsConfig(lambda_nm=795.0))
    expected = 2.0 * math.pi * 2.99792458e10 / 795.0e-7
    assert params.omega_a == pytest.approx(expected, rel=1.0e-12)
    assert params.omega_a == pytest.approx(2.3693e15, rel=1.0e-4)


def test_decay_rates():
    params = resolve_params(HumanUnitsConfig(gamma_a_mhz=6.0))
    assert params.gamma_a == pytest.approx(2.0 * math.pi * 6.0e6, rel=1.0e-12)
    assert params.gamma_mol == 2.0 * params.gamma_a
    assert params.gamma_mol == pytest.approx(7.5398e7, rel=1.0e-4)


def test_c3_angstrom_conversion():
    params = resolve_params(HumanUnitsConfig(c3_erg_ang3=1.1e-10))
    assert params.c3 == pytest.approx(1.1e-34, rel=1.0e-12)


def test_reduced_mass_is_half():
    params = resolve_params(HumanUnitsConfig())
    assert params.mu == params.mass_atom / 2.0
    assert params.mass_atom == pytest.approx(84.911789738 * AMU_G, rel=1.0e-12)


def test_trap_depth_temperature_input():
    params = resolve_params(HumanUnitsConfig(trap_depth_mk=5.0))
    assert params.trap_depth == pytest.approx(5.0e-3 * KB_ERG, rel=1.0e-12)


def test_trap_depth_frequency_input():
    config = HumanUnitsConfig(trap_depth_mk=None, trap_depth_mhz=200.0)
    params = resolve_params(config)
    # input is the resonance frequency 2*V0/h
    assert 2.0 * params.trap_depth / PLANCK_H == pytest.approx(200.0e6, rel=1.0e-12)


def test_trap_depth_inputs_exclusive():
    with pytest.raises(ConfigError, match="exclusive"):
        resolve_params(HumanUnitsConfig(trap_depth_mk=5.0, trap_depth_mhz=200.0))


def test_round_trip_12_digits():
    config = HumanUnitsConfig(lambda_nm=780.241, gamma_a_mhz=6.0666,
                              mass_amu=86.909180527, c3_erg_ang3=1.4e-10,
                              trap_depth_mk=3.3)
    back = to_human_units(resolve_params(config))
    for name in ("lambda_nm", "gamma_a_mhz", "mass_amu", "c3_erg_ang3",
                 "trap_depth_mk"):
        want = getattr(config, name)
        got = getattr(back, name)
        assert abs(got - want) <= 1.0e-12 * abs(want), name


def test_resolution_is_deterministic():
    config = HumanUnitsConfig()
    first = resolve_params(config)
    second = resolve_params(config)
    assert first == second
    assert first.omega_a.hex() == second.omega_a.hex()


def test_params_immutable():
    params = resolve_params(HumanUnitsConfig())
    with pytest.raises(Exception):
        params.omega_a = 1.0


@pytest.mark.parametrize("field,value", [
    ("lambda_nm", None),
    ("lambda_nm", 0.0),
    ("lambda_nm", -795.0),
    ("gamma_a_mhz", -6.0),
    ("mass_amu", 0.0),
    ("c3_erg_ang3", None),
    ("trap_depth_mk", -5.0),
    # out of the float range once converted to CGS (1e-320 nm is 0 cm)
    ("lambda_nm", 1e-320),
    ("lambda_nm", 1e-300),
    ("lambda_nm", math.inf),
    ("gamma_a_mhz", 1e308),
    ("mass_amu", 1e-320),
    ("mass_amu", math.nan),
    ("c3_erg_ang3", 1e-320),
    ("trap_depth_mk", 1e-320),
    ("lambda_nm", "red"),   # not a number
])
def test_rejects_bad_field_naming_it(field, value):
    config = HumanUnitsConfig(**{field: value})
    with pytest.raises(ConfigError, match=f"species.{field}"):
        resolve_params(config)


def test_zero_gamma_needs_explicit_permission():
    config = HumanUnitsConfig(gamma_a_mhz=0.0)
    with pytest.raises(ConfigError, match="species.gamma_a_mhz"):
        resolve_params(config)
    params = resolve_params(config, allow_zero_gamma=True)
    assert params.gamma_a == 0.0
    assert params.gamma_mol == 0.0


def test_constant_table_values():
    assert C_LIGHT == 2.99792458e10
    assert PLANCK_H == 6.62607015e-27
    assert HBAR == pytest.approx(PLANCK_H / (2.0 * math.pi), rel=0.0, abs=0.0)
    assert AMU_G == 1.66053906660e-24
    assert KB_ERG == 1.380649e-16
