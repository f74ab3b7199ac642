"""Elementwise evaluation shared by the functions of the scan chain.

Every numeric argument from the coupling to the loss takes a number, or
a list or numpy array of them; a list gives the arrays an array gives,
in every field of every record returned too (a CollisionTimes is taken
as collision_times returns it).  Either is computed in one pass; a
plain number as a one-element array, so a scalar call runs exactly the
operations of one element of a grid, agrees with it bit for bit, and
returns a builtin float.
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
    """``result`` as the inputs: a float unless one is a list or an array."""
    for value in inputs:
        if isinstance(value, (np.ndarray, list, tuple)):
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

    An overflow, a division by zero or an invalid operation, in numpy or in
    builtin floats, stops the block with a message saying that ``what``
    left the floating-point range.  It serves as a decorator too.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (FloatingPointError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(   # an OverflowError's args are (errno, text)
            f"{what} left the floating-point range: {exc.args[-1]}") from None
