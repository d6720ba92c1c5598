"""The composition oracle: each family rebuilt by the operators that engineer it.

A family's operator word (``states.Family.word``) lists the steps that turn
its start block, handed over by its caller, into the state. This module
reads only core's ladder operators, so the closed forms it checks reach it
only through that start: the coherent state |alpha>, or for the binomial
families the plain binomial series.
"""

from __future__ import annotations

import math

import numpy as np

from .core import lower_amplitudes, raise_amplitudes


def composed(word: tuple[str, ...], start: np.ndarray, rows: dict[str, list]) -> np.ndarray:
    """``start``, a block with a row per spec, with the steps of ``word`` applied in order.

    ``rows`` maps each spec field a step reads (n, added, subtracted, alpha,
    chi) to its value for each row. The steps: ``D_n`` is D(alpha)|n> =
    (a† - alpha*)^n |alpha> / sqrt(n!), by the conjugation identity
    D(alpha) a† D†(alpha) = a† - alpha*; ``a†^k`` and ``a^q`` add k and
    subtract q photons by literal ladder steps; ``1+Π`` is |alpha> + |-alpha>,
    as |-alpha> = (-1)^N |alpha>; ``K`` is e^{-i chi N(N-1)}; ``F`` zeroes
    c_0; ``a†`` adds one photon. Each step is elementwise along the basis and
    each row takes its own count of ladder steps in a block of one width, so
    row i's first w + k_i - q_i entries (w the start's width) are bitwise that
    spec composed alone. An overflow leaves inf or NaN for the caller to
    refuse: the steps run under the caller's errstate.
    """
    raw = start
    for token in word:
        width = raw.shape[-1]
        if token == "D_n":
            n, conj = _column(rows["n"]), _column([alpha.conjugate() for alpha in rows["alpha"]])
            for step in range(max(rows["n"])):
                raw = np.where(step < n, raise_amplitudes(raw)[:, :width] - conj * raw, raw)
            raw = np.where(n > 0, raw / _column([_sqrt_factorial(count) for count in rows["n"]]), raw)
        elif token == "a†^k":
            raw = _ladder_power(raw, rows["added"], raise_amplitudes, width + max(rows["added"]))
        elif token == "a^q":
            raw = _ladder_power(raw, rows["subtracted"], lower_amplitudes, width)
        elif token == "1+Π":
            raw = raw + (-1.0) ** np.arange(width) * raw
        elif token == "K":
            j = np.arange(width)
            raw = raw * np.exp(_column([-1j * chi for chi in rows["chi"]]) * j * (j - 1))
        elif token == "F":
            raw = np.where(np.arange(width) > 0, raw, 0.0)
        elif token == "a†":
            raw = raise_amplitudes(raw)[:, :width]
        else:
            raise ValueError(f"no operator step is spelled {token!r}")
    return raw


def _column(values: list) -> np.ndarray:
    """One Python scalar per row as a (rows, 1) operand."""
    return np.array(values)[:, None]


def _sqrt_factorial(n: int) -> float:
    """sqrt(n!) as a float, for n <= 170; from n = 171, n! leaves the float range, and the caller refuses it."""
    return math.sqrt(math.factorial(n))


def _ladder_power(block: np.ndarray, counts: list[int], step, width: int) -> np.ndarray:
    """``step``, a core ladder operator, applied to each row once per unit of its count, in a block of ``width`` columns.

    A raised row is cut back to the width and a lowered one keeps its last
    entries, so only entries past the row's own length differ from stepping
    it alone.
    """
    out = np.zeros((len(block), width), dtype=np.complex128)
    out[:, : block.shape[-1]] = block
    column = np.array(counts)
    for done in range(max(counts)):
        live = column > done
        stepped = step(out[live])[:, :width]
        out[live, : stepped.shape[-1]] = stepped
    return out
