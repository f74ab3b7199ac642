"""The elementwise helpers of cavloss.grid: as_grid and like."""

import numpy as np
import pytest

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
