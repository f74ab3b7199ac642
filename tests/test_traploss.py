"""Single- and multiple-passage loss, closed forms, and the detuning scan."""

import math
from pathlib import Path

import numpy as np
import pytest

from cavloss import (CavityConfig, CollisionTimes, ConfigError,
                     DivergenceError, DomainError, HumanUnitsConfig,
                     collision_times, loss_closed_form, loss_grid,
                     loss_no_cavity, loss_point, loss_series, p_omega_approx,
                     resolve_params, single_passage_loss, traploss)
from oracles import (TWO_PI_MHZ, DenseFractionOracle, loss_series_per_point,
                     loss_series_reference)

RB85 = resolve_params(HumanUnitsConfig())
GAMMA = RB85.gamma_mol
DELTA_350 = -350.0 * TWO_PI_MHZ
OMEGA_200 = 200.0 * TWO_PI_MHZ


def make_cavity(mode="anchored"):
    return CavityConfig(length=1.0, n_atoms_total=2.0e9, density=4.0e13,
                        coupling_mode=mode,
                        omega_tilde_ref=OMEGA_200, delta_ref=DELTA_350)


def synthetic_times(t_c, t_e, t_prime=0.0):
    total = t_c + t_e
    return CollisionTimes(t_total=total,
                          frac_resonant=t_c / total if total else 0.0,
                          t_resonant=t_c, t_escape_region=t_e,
                          t_prime=t_prime)


def reduced(draws):
    """Tuples (gamma, t_c, t_e, t', omega) as one grid in units of 1/gamma.

    Returns the times and omega_tilde of every tuple measured in its own
    1/gamma, so that the grid runs at gamma = 1.
    """
    gamma, t_c, t_e, t_prime, omega = map(np.array, zip(*draws))
    t_c, t_e = gamma * t_c, gamma * t_e
    return CollisionTimes(t_total=t_c + t_e, frac_resonant=t_c / (t_c + t_e),
                          t_resonant=t_c, t_escape_region=t_e,
                          t_prime=gamma * t_prime), omega / gamma


def decay_kernel(t, _omega, gamma):
    return math.exp(-gamma * t)


@pytest.fixture(scope="module")
def default_grid():
    deltas = [m * TWO_PI_MHZ for m in np.linspace(-1000.0, -350.0, 200)]
    return loss_grid(deltas, make_cavity(), RB85, "approx")


@pytest.fixture(scope="module")
def default_scan(default_grid):
    return [loss_point(delta, make_cavity(), RB85, "approx")
            for delta in default_grid.delta.tolist()]


class TestSinglePassage:
    def test_no_escape_region(self):
        times = synthetic_times(5.0e-9, 0.0)
        assert single_passage_loss(times, OMEGA_200, GAMMA, "approx") == 0.0

    def test_no_decay_no_loss(self):
        times = synthetic_times(5.0e-9, 4.0e-9)
        assert single_passage_loss(times, OMEGA_200, 0.0, "approx") == 0.0

    def test_preset_composition(self):
        times = collision_times(DELTA_350, OMEGA_200, RB85)
        expected = (p_omega_approx(times.t_resonant, OMEGA_200, GAMMA)
                    * (1.0 - math.exp(-2.0 * GAMMA * times.t_escape_region)))
        got = single_passage_loss(times, OMEGA_200, GAMMA, "approx")
        assert got == pytest.approx(expected, rel=1.0e-12)

    def test_walkoff_interval_decays(self):
        with_tp = synthetic_times(5.0e-9, 4.0e-9, t_prime=3.0e-9)
        without = synthetic_times(5.0e-9, 4.0e-9)
        ratio = (single_passage_loss(with_tp, OMEGA_200, GAMMA, "approx")
                 / single_passage_loss(without, OMEGA_200, GAMMA, "approx"))
        assert ratio == pytest.approx(math.exp(-3.0e-9 * GAMMA), rel=1.0e-12)


class TestSeriesAndClosedForm:
    def test_single_term_when_ratio_vanishes(self):
        # an enormous escape interval kills every return passage
        times = synthetic_times(2.0e-9, 2.0e-6)
        value, terms = loss_series(times, OMEGA_200, GAMMA, "approx")
        assert terms == 1
        assert value == single_passage_loss(times, OMEGA_200, GAMMA, "approx")

    def test_matches_closed_form_on_preset(self):
        times = collision_times(DELTA_350, OMEGA_200, RB85)
        for p_model in ("approx", "analytic"):
            series, _ = loss_series(times, OMEGA_200, GAMMA, p_model)
            closed = loss_closed_form(times, OMEGA_200, GAMMA, p_model)
            assert abs(series - closed) <= 1.0e-12

    def test_preset_values_frozen_from_oracle_chain(self):
        # frozen from the independent chain: Simpson fraction -> scalar
        # time formula -> naive damped-cosine kernel -> printed closed form
        times = collision_times(DELTA_350, OMEGA_200, RB85)
        assert loss_closed_form(times, OMEGA_200, GAMMA, "analytic") \
            == pytest.approx(0.11720849, abs=1.0e-7)
        assert loss_closed_form(times, OMEGA_200, GAMMA, "approx") \
            == pytest.approx(0.12228024, abs=1.0e-7)

    def test_matches_closed_form_random_tuples(self):
        rng = np.random.default_rng(37)
        draws = []
        for _ in range(1000):
            gamma = rng.uniform(1.0e7, 1.0e9)
            t_c = rng.uniform(0.01, 3.0) / gamma
            t_e = rng.uniform(0.01, 2.0) / gamma
            t_prime = rng.choice([0.0, rng.uniform(0.01, 1.0) / gamma])
            draws.append((gamma, t_c, t_e, t_prime,
                          gamma * rng.uniform(0.05, 20.0)))
        times, omega = reduced(draws)
        series, terms = loss_series(times, omega, 1.0, "approx")
        closed = loss_closed_form(times, omega, 1.0, "approx")
        bad = ~(np.abs(series - closed) <= 1.0e-12)
        assert not bad.any(), draws[np.argmax(bad)]
        assert np.all(terms < 10_000)
        assert np.all((0.0 <= closed) & (closed <= 1.0))

    def test_term_by_term_reference(self):
        times = collision_times(DELTA_350, OMEGA_200, RB85)
        p_tc = p_omega_approx(times.t_resonant, OMEGA_200, GAMMA)
        p_2tc = p_omega_approx(2.0 * times.t_resonant, OMEGA_200, GAMMA)
        reference = loss_series_reference(p_tc, p_2tc, GAMMA,
                                          times.t_escape_region, 0.0,
                                          n_terms=500)
        closed = loss_closed_form(times, OMEGA_200, GAMMA, "approx")
        assert closed == pytest.approx(reference, rel=1.0e-12)

    def test_divergence_on_lossless_full_revival(self):
        # gamma = 0 with a full-revival phase: every passage is lossless
        omega = math.pi / (2.0 * 2.0e-9)   # omega * t_c = pi/2 -> 2 t_c phase pi
        times = synthetic_times(2.0e-9, 1.0e-9)
        assert p_omega_approx(2.0 * times.t_resonant, omega, 0.0) \
            == pytest.approx(1.0, abs=1.0e-24)
        with pytest.raises(DivergenceError):
            loss_series(times, omega, 0.0, "approx")

    def test_divergence_names_the_diverging_element(self):
        # only the middle element has a full revival at 2 t_c
        omegas = np.array([1.0e8, math.pi / (2.0 * 2.0e-9), 2.0e8])
        times = synthetic_times(2.0e-9, 1.0e-9)
        ratio = p_omega_approx(2.0 * times.t_resonant, omegas[1], 0.0)
        with pytest.raises(DivergenceError) as caught:
            loss_series(times, omegas, 0.0, "approx")
        assert str(caught.value) == (
            "multiple-passage sum diverges: lossless passage with full "
            f"revival (ratio={ratio!r})")

    def test_zero_gamma_converging_series_is_zero(self):
        times = synthetic_times(2.0e-9, 1.0e-9)
        omega = 1.0e8   # no full revival: ratio < 1, every term zero
        assert loss_series(times, omega, 0.0, "approx") == (0.0, 1)

    def test_no_escape_region_series_is_zero(self):
        # t_e = 0: no passage can decay below the escape radius
        times = synthetic_times(2.0e-9, 0.0)
        assert loss_series(times, OMEGA_200, GAMMA, "approx") == (0.0, 1)

    @pytest.mark.parametrize("p_model", ["approx", "analytic"])
    def test_grid_matches_per_point_reference(self, p_model):
        # validate's 50-point grid, summed point by point in math; the
        # reference sums past its default cutoff so that its own truncation
        # stays below the 1e-15 tolerance
        deltas = np.linspace(-1000.0, -350.0, 50) * TWO_PI_MHZ
        grid = loss_grid(deltas, make_cavity(), RB85, p_model)
        values, terms = loss_series(grid.times, grid.omega_tilde, GAMMA,
                                    p_model)
        kernel = traploss.P_MODELS[p_model]
        for i, delta in enumerate(grid.delta.tolist()):
            point = loss_point(delta, make_cavity(), RB85, p_model)
            args = point.times, point.omega_tilde, GAMMA, kernel
            value, _ = loss_series_per_point(*args, cutoff=1.0e-17)
            assert abs(values[i] - value) <= 1.0e-15 * value, i
            # doubling stops within one doubling of the reference's count
            count = loss_series_per_point(*args)[1]
            assert terms[i] & (terms[i] - 1) == 0, i
            assert count <= terms[i] <= 2 * count, i

    def test_slow_decay_sums_past_ten_thousand_terms(self):
        # validate's grid for a 10 kHz atomic linewidth, microscopic coupling
        params = resolve_params(HumanUnitsConfig(gamma_a_mhz=0.01))
        deltas = np.linspace(-1000.0, -350.0, 50) * TWO_PI_MHZ
        grid = loss_grid(deltas, make_cavity("microscopic"), params)
        values, terms = loss_series(grid.times, grid.omega_tilde,
                                    params.gamma_mol, "approx")
        assert np.all(np.abs(values - grid.loss_cavity) <= 1.0e-12)
        assert np.all(terms > 10_000)

    def test_ratio_just_below_one_stops(self):
        # a constant kernel and a vanishing decay rate put the ratio at the
        # largest double below 1, where the sum is l_1/(1 - q)
        q = float(np.nextafter(1.0, 0.0))
        kernel = lambda t, _w, _g: np.full(np.shape(t), q)
        times = synthetic_times(1.0, 1.0)
        value, terms = loss_series(times, 1.0, 1.0e-300, kernel)
        first = single_passage_loss(times, 1.0, 1.0e-300, kernel)
        assert math.isfinite(value) and terms <= 2**60
        assert value == pytest.approx(first / (1.0 - q), rel=1.0e-7,
                                      abs=0.0)

    def test_closed_form_requires_decay(self):
        times = synthetic_times(2.0e-9, 1.0e-9)
        with pytest.raises(DomainError):
            loss_closed_form(times, OMEGA_200, 0.0, "approx")
        with pytest.raises(DomainError, match=r"got -2\.0$"):
            loss_closed_form(times, OMEGA_200, np.array([GAMMA, -2.0, 0.0]),
                             "approx")

    @pytest.mark.parametrize("p_model", ["approx", "analytic"])
    def test_array_decay_rates_are_elementwise(self, p_model):
        # the rates put the analytic kernel on all four of its branches
        times = synthetic_times(2.0e-9, 1.0e-9, t_prime=0.5e-9)
        omega = np.array([OMEGA_200, 1.0e6, 0.0, 2.0e8])
        gamma = np.array([GAMMA, 1.0e7, GAMMA, 4.0e9])
        closed = loss_closed_form(times, omega, gamma, p_model)
        free = loss_no_cavity(times, gamma)
        assert closed.tolist() == [
            loss_closed_form(times, w, g, p_model)
            for w, g in zip(omega.tolist(), gamma.tolist())]
        assert free.tolist() == [loss_no_cavity(times, g)
                                 for g in gamma.tolist()]

    def test_vanishing_resonant_time_loses_everything(self):
        times = synthetic_times(0.0, 3.0e-9)
        assert loss_closed_form(times, OMEGA_200, GAMMA, "approx") \
            == pytest.approx(1.0, rel=1.0e-12)

    def test_envelope_bound(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            gamma = rng.uniform(1.0e7, 1.0e9)
            times = synthetic_times(rng.uniform(0.01, 3.0) / gamma,
                                    rng.uniform(0.01, 2.0) / gamma)
            omega = gamma * rng.uniform(0.05, 20.0)
            closed = loss_closed_form(times, omega, gamma, "approx")
            assert closed <= p_omega_approx(times.t_resonant, omega, gamma) \
                + 1.0e-15

    def test_probabilities_bounded_on_large_random_sweep(self):
        rng = np.random.default_rng(47)
        draws = []
        for _ in range(10_000):
            gamma = rng.uniform(1.0e6, 1.0e10)
            t_c = rng.uniform(0.0, 4.0) / gamma
            t_e = rng.uniform(0.0, 3.0) / gamma
            t_prime = rng.uniform(0.0, 1.0) / gamma
            draws.append((gamma, t_c, t_e, t_prime,
                          gamma * rng.uniform(0.0, 30.0)))
        times, omega = reduced(draws)
        closed = loss_closed_form(times, omega, 1.0, "approx")
        free = loss_no_cavity(times, 1.0)
        assert np.all((0.0 <= closed) & (closed <= 1.0))
        assert np.all((0.0 <= free) & (free <= 1.0))

    def test_unknown_p_model_rejected(self):
        times = synthetic_times(2.0e-9, 1.0e-9)
        with pytest.raises(ConfigError, match="p_model"):
            loss_closed_form(times, OMEGA_200, GAMMA, "mystery")


class TestNoCavity:
    def test_preset_value(self):
        times = collision_times(DELTA_350, OMEGA_200, RB85)
        expected = (math.sinh(GAMMA * times.t_escape_region)
                    / math.sinh(GAMMA * times.t_total))
        got = loss_no_cavity(times, GAMMA)
        assert got == pytest.approx(expected, rel=1.0e-12)
        # frozen from the sinh-ratio oracle with oracle time scales
        assert got == pytest.approx(0.41376156, abs=1.0e-7)

    def test_limits(self):
        assert loss_no_cavity(synthetic_times(0.0, 3.0e-9), GAMMA) == 1.0
        assert loss_no_cavity(synthetic_times(3.0e-9, 0.0), GAMMA) == 0.0

    def test_requires_decay(self):
        with pytest.raises(DomainError):
            loss_no_cavity(synthetic_times(2.0e-9, 1.0e-9), 0.0)
        with pytest.raises(DomainError, match=r"got 0\.0$"):
            loss_no_cavity(synthetic_times(2.0e-9, 1.0e-9),
                           np.array([GAMMA, 0.0, -1.0]))

    def test_closed_form_with_decay_kernel_is_identity(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            gamma = rng.uniform(1.0e7, 1.0e9)
            times = synthetic_times(rng.uniform(0.01, 3.0) / gamma,
                                    rng.uniform(0.01, 2.0) / gamma)
            closed = loss_closed_form(times, OMEGA_200, gamma, decay_kernel)
            assert abs(closed - loss_no_cavity(times, gamma)) <= 1.0e-12

    def test_decay_kernel_with_walkoff_extends_the_sinh_ratio(self):
        # with t' > 0 the pure-decay closed form generalizes the printed
        # ratio by stretching the denominator interval
        times = synthetic_times(2.0e-9, 1.5e-9, t_prime=0.7e-9)
        closed = loss_closed_form(times, OMEGA_200, GAMMA, decay_kernel)
        expected = (math.sinh(GAMMA * times.t_escape_region)
                    / math.sinh(GAMMA * (times.t_resonant + times.t_prime
                                         + times.t_escape_region)))
        assert closed == pytest.approx(expected, rel=1.0e-12)


class TestScan:
    def test_ordering_and_bounds(self, default_scan):
        deltas = [p.delta for p in default_scan]
        assert deltas == sorted(deltas)
        for point in default_scan:
            assert 0.0 <= point.loss_cavity <= 1.0
            assert 0.0 <= point.loss_free <= 1.0
            assert point.phase >= 0.0

    def test_oscillation_minima_count(self, default_scan):
        lc = [p.loss_cavity for p in default_scan]
        minima = [i for i in range(1, len(lc) - 1)
                  if lc[i] < lc[i - 1] and lc[i] < lc[i + 1]]
        assert len(minima) >= 2

    def test_minima_align_with_quarter_cycle_phases(self, default_scan):
        lc = [p.loss_cavity for p in default_scan]
        phases = [p.phase / math.pi for p in default_scan]
        minima = [i for i in range(1, len(lc) - 1)
                  if lc[i] < lc[i - 1] and lc[i] < lc[i + 1]]
        for i in minima:
            nearest_half_odd = round((phases[i] - 0.5) / 1.0) + 0.5
            # phase at the minimum lies within one grid step of an odd
            # multiple of pi/2
            local_step = abs(phases[i + 1] - phases[i - 1]) / 2.0
            assert abs(phases[i] - nearest_half_odd) <= local_step

    def test_minima_match_dense_oracle(self, default_scan):
        # dense scan with independent vectorized formulas
        oracle = DenseFractionOracle(nodes=2**20)
        mhz = np.linspace(-1000.0, -350.0, 10_000)
        delta = mhz * TWO_PI_MHZ
        omega = OMEGA_200 * abs(DELTA_350) / np.abs(delta)
        ratio = (1.0 + omega / np.abs(delta)) ** (-1.0 / 3.0)
        frac = oracle.fraction(ratio)
        t0 = (oracle.g0 * math.sqrt(RB85.mu / (2.0 * RB85.c3))
              * (RB85.c3 / (1.0545718176461565e-27 * np.abs(delta))) ** (5.0 / 6.0))
        tc = frac * t0
        te = t0 - tc
        p_tc = np.exp(-0.5 * GAMMA * tc) * np.cos(omega * tc) ** 2
        p_2tc = np.exp(-GAMMA * tc) * np.cos(2.0 * omega * tc) ** 2
        lc_dense = (p_tc * np.sinh(GAMMA * te)
                    / (0.5 * (np.exp(GAMMA * te) - p_2tc * np.exp(-GAMMA * te))))
        dense_minima_mhz = [mhz[i] for i in range(1, len(mhz) - 1)
                            if lc_dense[i] < lc_dense[i - 1]
                            and lc_dense[i] < lc_dense[i + 1]]
        lc = [p.loss_cavity for p in default_scan]
        coarse_step = 650.0 / 199.0
        for i in (j for j in range(1, len(lc) - 1)
                  if lc[j] < lc[j - 1] and lc[j] < lc[j + 1]):
            here = default_scan[i].delta / TWO_PI_MHZ
            assert min(abs(here - d) for d in dense_minima_mhz) \
                <= 0.5 * coarse_step + 1.0e-9

    def test_extrema_ordering_against_free_loss(self, default_scan):
        lc = [p.loss_cavity for p in default_scan]
        lo = [p.loss_free for p in default_scan]
        for i in range(1, len(lc) - 1):
            if lc[i] < lc[i - 1] and lc[i] < lc[i + 1]:
                assert lc[i] < lo[i]
            if lc[i] > lc[i - 1] and lc[i] > lc[i + 1]:
                assert lc[i] > lo[i]

    def test_free_loss_smooth(self, default_scan):
        lo = [p.loss_free for p in default_scan]
        extrema = [i for i in range(1, len(lo) - 1)
                   if (lo[i] - lo[i - 1]) * (lo[i + 1] - lo[i]) < 0.0]
        assert len(extrema) <= 1

    def test_series_closed_form_agreement(self, default_grid):
        series, _ = loss_series(default_grid.times, default_grid.omega_tilde,
                                GAMMA, "approx")
        assert np.all(np.abs(series - default_grid.loss_cavity) <= 1.0e-12)

    @pytest.mark.parametrize("mode", ["anchored", "microscopic"])
    def test_detuning_sign_refused_by_the_chain(self, mode):
        message = "red detuning required, got delta=1.0"
        with pytest.raises(DomainError) as grid:
            loss_grid([-1.0e9, 1.0, -2.0], make_cavity(mode), RB85)
        with pytest.raises(DomainError) as point:
            loss_point(1.0, make_cavity(mode), RB85)
        assert str(grid.value) == str(point.value) == message

    @pytest.mark.parametrize("species, length, above_transition, key", [
        # the pair dipole underflows to 0
        (HumanUnitsConfig(gamma_a_mhz=1e-320), 1.0, None,
         "species.gamma_a_mhz"),
        # the field per photon underflows to 0 at a mode frequency of 1 MHz
        (HumanUnitsConfig(), 1e150, 1.0e6, "cavity.length_cm"),
    ])
    def test_unbounded_pair_count_names_its_key(self, species, length,
                                                above_transition, key):
        params = resolve_params(species)
        cavity = CavityConfig(length=length, n_atoms_total=2.0e9,
                              density=4.0e13, omega_tilde_ref=OMEGA_200,
                              delta_ref=DELTA_350)
        delta = (DELTA_350 if above_transition is None
                 else above_transition - params.omega_a)
        with pytest.raises(DomainError) as info:
            loss_grid(delta, cavity, params)
        assert str(info.value).startswith("the resonant pair count is inf: ")
        assert key in str(info.value)

    def test_loss_point_bundle(self):
        point = loss_point(DELTA_350, make_cavity(), RB85, "approx")
        assert point.phase == point.omega_tilde * point.times.t_resonant
        assert point.n_pairs > 0.0

    def test_grid_times_are_the_collision_times_bundle(self, monkeypatch):
        returned = []

        def recorded(*args):
            returned.append(collision_times(*args))
            return returned[-1]

        monkeypatch.setattr(traploss, "collision_times", recorded)
        deltas = np.linspace(-900.0, -400.0, 7) * TWO_PI_MHZ
        grid = loss_grid(deltas, make_cavity(), RB85)
        assert len(returned) == 1 and grid.times is returned[0]
        assert grid.times.t_resonant.shape == (7,)

    def test_points_of_floats_and_of_arrays(self):
        deltas = np.linspace(-900.0, -400.0, 7) * TWO_PI_MHZ
        grid = loss_grid(deltas, make_cavity(), RB85)
        assert grid.loss_cavity.shape == (7,)
        for i, delta in enumerate(deltas.tolist()):
            point = loss_point(delta, make_cavity(), RB85)
            assert point.loss_cavity == grid.loss_cavity[i]
            assert type(point.loss_cavity) is float
            assert type(point.times.geometry.r_condon) is float


def test_readme_library_example_runs(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    block = text.split("## Library use", 1)[1]
    block = block.split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and lines[-1] == "True"
