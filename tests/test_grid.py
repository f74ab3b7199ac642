"""The elementwise helpers of cavloss.grid: as_grid and like."""

import numpy as np
import pytest

import cavloss
from cavloss.grid import as_grid, like


class TestAsGrid:
    @pytest.mark.parametrize("value", [3.0, -2, True, np.float64(0.5),
                                       np.int32(7)])
    def test_number_gives_one_float(self, value):
        grid = as_grid(value)
        assert grid.shape == (1,) and grid.dtype == np.float64
        assert grid[0] == float(value)

    @pytest.mark.parametrize("shape", [(1,), (5,), (2, 3)])
    def test_float_array_is_the_same_object(self, shape):
        values = np.arange(np.prod(shape), dtype=float).reshape(shape)
        grid = as_grid(values)
        assert grid is values
        # loss_series adds into its grid in place with out=
        np.add(grid, 1.0, out=grid)
        assert values.ravel()[0] == 1.0

    @pytest.mark.parametrize("values", [np.arange(4), np.arange(4, dtype=np.int8),
                                        np.array([True, False, True])])
    def test_int_or_bool_array_gives_a_float_copy(self, values):
        kept = values.copy()
        grid = as_grid(values)
        assert grid.dtype == np.float64 and grid.shape == values.shape
        assert not np.shares_memory(grid, values)
        np.testing.assert_array_equal(grid, kept.astype(float))
        grid[...] = -1.0
        np.testing.assert_array_equal(values, kept)

    def test_zero_dimensional_array_gives_shape_one(self):
        grid = as_grid(np.array(2.5))
        assert grid.shape == (1,) and grid.dtype == np.float64
        assert grid[0] == 2.5

    def test_list_gives_a_float_array(self):
        grid = as_grid([1, 2.5, -3])
        assert grid.dtype == np.float64 and grid.tolist() == [1.0, 2.5, -3.0]

    def test_empty_array_stays_empty(self):
        assert as_grid(np.array([])).shape == (0,)


class TestLike:
    def test_numbers_give_a_float(self):
        result = like(np.array([1.5]), 2.0, 3, np.float64(4.0))
        assert type(result) is float and result == 1.5

    def test_integer_result_of_numbers_gives_an_int(self):
        result = like(np.array([4]), 2.0)
        assert type(result) is int and result == 4

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_any_array_input_gives_the_array(self, position):
        inputs = [1.0, 2.0, 3.0]
        inputs[position] = np.array([1.0, 2.0])
        result = np.array([0.25, 0.5])
        assert like(result, *inputs) is result

    def test_zero_dimensional_array_input_gives_the_array(self):
        result = np.array([0.25])
        assert like(result, 1.0, np.array(2.0)) is result

    def test_no_inputs_give_a_float(self):
        assert like(np.array([0.5])) == 0.5


RB85 = cavloss.resolve_params(cavloss.HumanUnitsConfig())
GAMMA = RB85.gamma_mol
DELTAS = [-2.0e9, -3.0e9]                       # rad/s
OMEGAS = [1.0e9, 1.0e9]                         # rad/s
CAVITY = {mode: cavloss.CavityConfig(
    length=1.0, n_atoms_total=2.0e9, density=4.0e13, coupling_mode=mode,
    omega_tilde_ref=1.0e9, delta_ref=-2.0e9)
    for mode in ("anchored", "microscopic")}
TIMES = cavloss.collision_times(np.array(DELTAS), np.array(OMEGAS), RB85)

#: each stage of the scan chain, as a call on its sequence arguments
STAGES = {
    "mode_geometry": lambda x: cavloss.mode_geometry(
        x([1.0e15, 2.0e15]), CAVITY["anchored"]),
    "field_per_photon": lambda x: cavloss.field_per_photon(
        x([1.0e15, 2.0e15]), 3.0),
    "single_rabi": lambda x: cavloss.single_rabi(
        x([1.0e15, 2.0e15]), CAVITY["anchored"], RB85),
    "pair_count": lambda x: cavloss.pair_count(
        x(DELTAS), CAVITY["microscopic"], RB85),
    "coupling-anchored": lambda x: cavloss.coupling(
        x(DELTAS), CAVITY["anchored"], RB85),
    "coupling-microscopic": lambda x: cavloss.coupling(
        x(DELTAS), CAVITY["microscopic"], RB85),
    "landau_zener": lambda x: cavloss.landau_zener(
        x(DELTAS), x(OMEGAS), 1.0, RB85),
    "u_dd": lambda x: cavloss.u_dd(x([1.0e-7, 2.0e-7]), RB85),
    "potential_slope": lambda x: cavloss.potential_slope(
        x([1.0e-7, 2.0e-7]), RB85),
    "condon_radius": lambda x: cavloss.condon_radius(x(DELTAS), RB85),
    "escape_ratio": lambda x: cavloss.escape_ratio(-1.0, x([0.0, 1.0])),
    "resonance_geometry": lambda x: cavloss.resonance_geometry(
        x(DELTAS), x(OMEGAS), RB85),
    "fraction_f": lambda x: cavloss.fraction_f(-1.0, x([0.0, 1.0])),
    "total_time": lambda x: cavloss.total_time(x(DELTAS), RB85),
    "collision_times": lambda x: cavloss.collision_times(
        x(DELTAS), x(OMEGAS), RB85),
    "p_omega_analytic": lambda x: cavloss.p_omega_analytic(
        1.0e-9, x([1.0e9, 2.0e9]), GAMMA),
    # decoupled, oscillating and hyperbolic pairs: the gathered forms
    "p_omega_analytic-mixed": lambda x: cavloss.p_omega_analytic(
        x([1.0e-9, 2.0e-8, 3.0e-7]), x([0.0, 3.0 * GAMMA, 0.1 * GAMMA]),
        x([GAMMA, GAMMA, GAMMA])),
    "p_omega_approx": lambda x: cavloss.p_omega_approx(
        x([1.0e-9, 2.0e-9]), 1.0e9, x([GAMMA, 0.5 * GAMMA])),
    "single_passage_loss": lambda x: cavloss.single_passage_loss(
        TIMES, x(OMEGAS), GAMMA, "analytic"),
    "loss_series": lambda x: cavloss.loss_series(
        TIMES, x(OMEGAS), GAMMA, "approx"),
    "loss_closed_form": lambda x: cavloss.loss_closed_form(
        TIMES, x(OMEGAS), x([GAMMA, GAMMA]), "approx"),
    "loss_no_cavity": lambda x: cavloss.loss_no_cavity(
        TIMES, x([GAMMA, 0.5 * GAMMA])),
    "loss_grid": lambda x: cavloss.loss_grid(
        x(DELTAS), CAVITY["anchored"], RB85),
}


def leaves(result):
    """The values of a result, records and pairs opened field by field; a
    tuple of floats is an argument echoed as given."""
    if isinstance(result, tuple) and not all(isinstance(value, float)
                                             for value in result):
        return [leaf for field in result for leaf in leaves(field)]
    return [result]


class TestSequenceInputs:
    @pytest.mark.parametrize("sequence", [list, tuple])
    @pytest.mark.parametrize("stage", STAGES.values(), ids=STAGES.keys())
    def test_sequences_equal_arrays_bitwise(self, stage, sequence):
        given, wanted = leaves(stage(sequence)), leaves(stage(np.array))
        assert len(given) == len(wanted)
        for value, array in zip(given, wanted):
            # a field that echoes an argument keeps it as given
            if isinstance(array, np.ndarray) and not isinstance(value,
                                                                sequence):
                assert isinstance(value, np.ndarray)
            assert np.asarray(value).dtype == np.asarray(array).dtype
            assert np.asarray(value).shape == np.asarray(array).shape
            assert np.asarray(value).tobytes() == np.asarray(array).tobytes()
