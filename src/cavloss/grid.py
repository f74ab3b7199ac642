"""Elementwise evaluation shared by the functions of the scan chain.

Every function from the coupling to the loss takes plain numbers or numpy
arrays of them.  An array is computed in one pass; a plain number is
computed as a one-element array, so a scalar call runs exactly the
operations of one element of a grid and agrees with it bit for bit, and
the result comes back as a builtin float.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import DomainError


def as_grid(value) -> np.ndarray:
    """A number or an array of numbers as a float array of >= 1 dimension,
    the array itself (no copy) when it already is one."""
    # not np.array(copy=None, ndmin=1): numpy 1.x refuses copy=None
    grid = np.asarray(value, dtype=float)
    return grid if grid.ndim else grid.reshape(1)


def like(result, *inputs):
    """``result`` in the form of the inputs: a float unless one is an array."""
    for value in inputs:
        if isinstance(value, np.ndarray):
            return result
    return result.item()


def refuse(bad: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raise DomainError naming the first element of ``values`` found ``bad``.

    ``message`` holds one ``{!r}`` field for that element.
    """
    if np.count_nonzero(bad):   # faster than bad.any() on small grids
        raise DomainError(message.format(float(values[bad][0])))


def red_detuning(delta) -> np.ndarray:
    """``delta`` as a grid, refusing any detuning that is not red (< 0)."""
    grid = as_grid(delta)
    refuse(grid >= 0.0, grid, "red detuning required, got delta={!r}")
    return grid


@contextmanager
def float_range(what: str):
    """Raise DomainError where numpy would write inf or NaN inside the block.

    An overflow, a division by zero or an invalid operation stops the
    block with a message saying that ``what`` left the floating-point range.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise DomainError(
            f"{what} left the floating-point range: {exc}") from None
