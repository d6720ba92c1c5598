"""Sweep execution and CSV emission.

Quantities are addressed by registered names, optionally carrying an
argument after a colon (``antibunching:3`` for the order, ``klyshko:2``
for the photon index, ``phase_uncertainty:1.5708`` for the interferometer
phase). Undefined values become empty cells; per-point failures land in
the ``error`` column without aborting the sweep. The points' states are
built a chunk at a time by ``states.build_states``, which gives each the
bits ``build_state`` gives it alone, and the quantities are evaluated point
by point in grid order. Output is byte-stable: shortest round-trip floats,
fixed column order.
"""

from __future__ import annotations

import csv
import functools
import math
from collections import deque
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .config import DumpConfig, SweepConfig
from .core import StateVector
from .exceptions import (
    ConfigError,
    DegenerateDenominatorError,
    DimensionError,
    FockLabError,
    PhaseUndefinedError,
    StationaryPointError,
    UndefinedWitnessError,
)
from .interferometry import linear_entropy, phase_estimation_uncertainty
from .moments import moment_oracle
from .phase import barnett_pegg_fluctuations, phase_dispersion, phase_distribution
from .quasiprob import angular_q, phase_space_grid, q_polar
from .states import StateSpec, build_state, build_states
from . import witnesses

# Exceptions that mean "this quantity is undefined here", not "the sweep broke".
_UNDEFINED = (
    UndefinedWitnessError,
    PhaseUndefinedError,
    StationaryPointError,
    DegenerateDenominatorError,
    DimensionError,
)


@dataclass(frozen=True)
class Quantity:
    name: str
    evaluate: Callable[[StateVector, float | None], float | None]
    default_arg: float | None = None
    integer_arg: bool = True


@functools.lru_cache(maxsize=1)
def _fluctuations(state: StateVector):
    """The U, S, Q triple of a state, kept for the last state asked for (states hash by identity).

    The three fluctuation columns of a sweep row read one evaluation; the
    cache holds that one state until the next row's state replaces it.
    """
    return barnett_pegg_fluctuations(state)


def _fluct(which: str):
    def evaluate(state: StateVector, _arg):
        return getattr(_fluctuations(state), which)

    return evaluate


_REGISTRY: dict[str, Quantity] = {
    q.name: q
    for q in (
        Quantity("mean_photon", lambda s, _: moment_oracle(s, 1, 1).real),
        Quantity("mandel_q", lambda s, _: witnesses.mandel_q(s).value),
        Quantity("antibunching", lambda s, a: witnesses.antibunching_d(s, int(a)).value, 2),
        Quantity("hosps", lambda s, a: witnesses.hosps(s, int(a)).value, 2),
        Quantity("hong_mandel", lambda s, a: witnesses.hong_mandel_squeezing(s, int(a)).value, 2),
        Quantity("klyshko", lambda s, a: witnesses.klyshko_b(s, int(a)).value, 0),
        Quantity("vogel", lambda s, _: witnesses.vogel_det(s).value),
        Quantity("agarwal_tara", lambda s, _: witnesses.agarwal_tara_a3(s).value),
        Quantity("phase_dispersion", lambda s, _: phase_dispersion(s)),
        Quantity("fluctuation_u", _fluct("u")),
        Quantity("fluctuation_s", _fluct("s")),
        Quantity("fluctuation_q", _fluct("q")),
        Quantity("linear_entropy", lambda s, _: linear_entropy(s)),
        Quantity(
            "phase_uncertainty",
            lambda s, a: phase_estimation_uncertainty(s, float(a)),
            math.pi / 2.0,
            integer_arg=False,
        ),
    )
}

QUANTITY_NAMES = tuple(sorted(_REGISTRY))


def parse_quantity(token: str) -> tuple[Quantity, float | None, str]:
    """Resolve ``name`` or ``name:arg`` into (quantity, argument, column label)."""
    name, _, arg_text = token.partition(":")
    name = name.strip()
    if name not in _REGISTRY:
        raise ConfigError(f"unknown quantity {name!r}; known: {', '.join(QUANTITY_NAMES)}")
    quantity = _REGISTRY[name]
    if arg_text:
        try:
            arg = int(arg_text) if quantity.integer_arg else float(arg_text)
        except ValueError:
            raise ConfigError(f"bad argument in quantity {token!r}") from None
    else:
        arg = quantity.default_arg
    return quantity, arg, token


def _format_cell(value: float | None) -> str:
    if value is None:
        return ""
    return repr(float(value))


# Points whose states are built in one ``build_states`` call; only one
# chunk's states are alive at a time, whatever the number of steps.
_CHUNK = 64


def _point_states(config: SweepConfig, points: list[tuple[float, ...]]) -> Iterator[StateVector | FockLabError]:
    """Each point's state, or the FockLabError its spec or build raises, in point order.

    A state is handed out and forgotten here, so it lives only as long as
    the caller keeps it.
    """
    for start in range(0, len(points), _CHUNK):
        specs: list[StateSpec | FockLabError] = []
        for point in points[start : start + _CHUNK]:
            try:
                specs.append(config.spec_at(point))
            except FockLabError as exc:
                specs.append(exc)
        built = deque(build_states([s for s in specs if isinstance(s, StateSpec)], config.truncation))
        for spec in specs:
            yield built.popleft() if isinstance(spec, StateSpec) else spec


def run_sweep(config: SweepConfig) -> None:
    """Evaluate the sweep and write one CSV row per grid point."""
    resolved = [parse_quantity(token) for token in config.quantities]
    header = [axis.param for axis in config.axes] + [label for _, _, label in resolved] + ["error"]

    grids = [axis.values() for axis in config.axes]
    points: list[tuple[float, ...]] = [()]
    for grid in grids:
        points = [existing + (v,) for existing in points for v in grid]

    with open(config.output_path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for point, state in zip(points, _point_states(config, points)):
            row = [repr(float(v)) for v in point]
            cells: list[str] = []
            error = ""
            if isinstance(state, FockLabError):
                cells = [""] * len(resolved)
                error = f"{type(state).__name__}: {state}"
            else:
                for quantity, arg, _label in resolved:
                    try:
                        cells.append(_format_cell(quantity.evaluate(state, arg)))
                    except _UNDEFINED:
                        cells.append("")
                    except FockLabError as exc:
                        cells.append("")
                        error = f"{type(exc).__name__}: {exc}"
            writer.writerow(row + cells + [error])


def dump_state(config: DumpConfig) -> None:
    """Write the configured view of the state as CSV.

    ``amplitudes`` (default) emits (n, Re c_n, Im c_n, p_n) rows, omitting
    rows whose magnitude falls below the floor (default 1e-15) so exact
    parity holes and trailing truncation zeros never appear. ``phase`` and
    ``angular_q`` emit (theta, density) profiles; ``husimi_q`` emits
    (re_beta, im_beta, value) over the state's phase-space grid. A profile
    whose mass is off 1 by more than 1e-6 (an angle grid too coarse for the
    state aliases it) raises ConfigError before the output file is opened.
    """
    state = build_state(config.spec, config.truncation)
    if config.kind == "amplitudes":
        header = ["n", "re", "im", "p"]
        # p_n stays the scalar abs(c) ** 2 of each Python complex: the
        # vectorised np.abs(c) ** 2 moves some cells by one ulp.
        rows = (
            (n, c.real, c.imag, abs(c) ** 2)
            for n, c in enumerate(state.amplitudes.tolist())
            if abs(c) >= config.amplitude_floor
        )
    elif config.kind == "husimi_q":
        grid = phase_space_grid(state, n_angles=config.angles, n_radial=config.radial)
        header = ["re_beta", "im_beta", "q"]
        values = q_polar(state, grid.radii, config.angles).ravel()
        rows = zip(grid.beta_samples.real.tolist(), grid.beta_samples.imag.tolist(), values.tolist())
    else:
        if config.kind == "phase":
            profile = phase_distribution(state, config.angles)
        else:
            profile = angular_q(state, config.angles, config.radial)
        if abs(profile.integral_check - 1.0) > 1e-6:
            raise ConfigError(
                f"{config.kind} profile has mass {profile.integral_check:.6g}, not 1 within 1e-6; "
                f"the {config.angles}-angle grid is too coarse for this state"
            )
        header = ["theta", "density"]
        rows = zip(profile.theta.tolist(), profile.density.tolist())
    # Every cell is the shortest round-trip repr of a Python float or int,
    # which holds no comma, quote or newline, so no cell needs CSV quoting.
    line = ",".join(["%r"] * len(header)) + "\n"
    with open(config.output_path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(line % row for row in rows)
