"""Kinematics: normalization constant, resonant fraction, in-fall times."""

import importlib.util
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from cavloss import (DomainError, HumanUnitsConfig, collision_times,
                     fraction_f, g0_constant, kinematics, resolve_params,
                     total_time)
from cavloss.kinematics import _infall_integral
from oracles import (TWO_PI_MHZ, DenseFractionOracle, fraction_oracle,
                     g0_oracle, infall_integral_reference, total_time_oracle)

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


#: the kernel that numpy dispatches for float64 exp, and the sha256 of the
#: in-fall integral over 100 000 uniform r in [0, 1)
DISPATCH_CHILD = (
    "import hashlib\n"
    "import numpy as np\n"
    "from cavloss.kinematics import _infall_integral\n"
    "info = np.lib.introspect.opt_func_info(func_name='^exp$', "
    "signature='float64')\n"
    "print(*(kernel['current'] for signatures in info.values() "
    "for kernel in signatures.values()))\n"
    "r = np.random.default_rng(0).uniform(0.0, 1.0, 100_000)\n"
    "print(hashlib.sha256(_infall_integral(r).tobytes()).hexdigest())\n")


#: r at the ends of the two forms and at the bottom of the float range
EDGES = [0.0, 0.5, math.nextafter(0.5, 0.0), 1.0e-300, 1.0]

#: r ranges of the head form, the tail form and both
RANGES = {"head": (0.0, math.nextafter(0.5, 0.0)), "tail": (0.5, 1.0),
          "mixed": (0.0, 1.0)}


def with_edges(size, low=0.0, high=1.0, seed=7):
    """``size`` uniform r in [low, high], led by the edges that lie there."""
    r_ratio = np.random.default_rng(seed).uniform(low, high, size)
    edges = [r for r in EDGES if low <= r <= high][:size]
    r_ratio[:len(edges)] = edges
    return r_ratio


#: the in-fall integral to 30 digits at r exactly the double nearest each
#: key, from mpmath.quad at 40 digits on the tail form
INFALL_30_DIGITS = {
    0.3: "0.726993578974260911681690320881",
    0.45: "0.691319680987440379691559754792",
    0.4815: "0.680756209959768439957672986733",
    0.4999: "0.674020346804954395587605231986",
    0.5005: "0.673793412553531619850617747609",
}


class TestPolynomialRule:
    def test_reference_within_4e16_of_30_digit_values(self):
        # worst 3.7e-16, at r = 0.45; Decimal holds the literals exactly
        r_ratio = np.array(list(INFALL_30_DIGITS))
        for r, value in zip(r_ratio.tolist(),
                            infall_integral_reference(r_ratio).tolist()):
            error = Decimal(value) - Decimal(INFALL_30_DIGITS[r])
            assert abs(error) <= Decimal("4e-16"), (r, error)

    def test_within_5e16_of_the_reference(self):
        r_ratio = np.concatenate([np.linspace(0.0, 1.0, 200_001),
                                  with_edges(5)])
        error = np.abs(_infall_integral(r_ratio)
                       - infall_integral_reference(r_ratio))
        assert error.max() <= 5.0e-16

    def test_limits_are_exact(self):
        assert _infall_integral(0.0) == kinematics._G0
        assert _infall_integral(1.0e-300) == kinematics._G0
        assert _infall_integral(1.0) == 0.0

    @pytest.mark.parametrize("size, forms", [
        *((size, forms) for size in (1, 2, 3, 40, 300, 2048)
          for forms in RANGES), (20_050, "mixed")])
    def test_grid_elements_equal_single_points_bitwise(self, size, forms):
        # the tail form runs over the whole grid and the head form is
        # written over r < 1/2, yet each element keeps its one-point bits,
        # and a one-element grid keeps its shape
        r_ratio = with_edges(size, *RANGES[forms], seed=size)
        grid = _infall_integral(r_ratio)
        alone = [_infall_integral(r) for r in r_ratio.tolist()]
        assert grid.tobytes() == np.array(alone).tobytes()
        for shape in ((1,), (1, 1)):
            one = _infall_integral(r_ratio[:1].reshape(shape))
            assert one.shape == shape and one.tobytes() == grid[:1].tobytes()

    def test_same_bits_under_another_numpy_dispatch(self):
        # only +, * and sqrt, each correctly rounded by every kernel
        src = str(Path(kinematics.__file__).resolve().parent.parent)
        default = dict(os.environ, PYTHONPATH=src)
        runs = [subprocess.run([sys.executable, "-c", DISPATCH_CHILD],
                               env=env, capture_output=True, text=True,
                               check=True).stdout.split("\n")[:2]
                for env in (default, dict(default, NPY_DISABLE_CPU_FEATURES=
                                          "AVX512_SPR AVX512_ICL X86_V4"))]
        (dispatch, digest), (other_dispatch, other_digest) = runs
        if other_dispatch == dispatch:
            pytest.skip(f"numpy dispatches float64 exp to {dispatch} with the "
                        f"AVX-512 kernels off too, so nothing can move")
        assert other_digest == digest

    def test_numpy_fit_reproduces_the_literals(self):
        # the float64 fallback of the script that wrote the literals
        path = Path(__file__).resolve().parent.parent / "scripts" \
            / "infall_coefficients.py"
        spec = importlib.util.spec_from_file_location("coefficients", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        for name, _, upper, degree in script.FITS:
            literal = getattr(kinematics, name)
            assert len(literal) == degree + 1
            fit = script.fit_numpy(name, upper, degree)
            x = np.linspace(0.0, upper, 10_001)
            assert np.abs(np.polyval(fit, x)
                          - np.polyval(literal, x)).max() <= 2.0e-15


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
        exact = 0
        for _ in range(50):
            delta = -rng.uniform(350.0, 1000.0) * TWO_PI_MHZ
            omega = rng.uniform(1.0, 400.0) * TWO_PI_MHZ
            times = collision_times(delta, omega, RB85)
            split = times.t_resonant + times.t_escape_region
            assert split == pytest.approx(times.t_total, rel=1.0e-15)
            if times.frac_resonant >= 0.5:   # t_total - t_resonant is exact
                assert split == times.t_total
                exact += 1
            assert times.t_resonant == times.t_total * times.frac_resonant
        assert exact > 0

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

