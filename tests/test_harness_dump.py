"""``dump_state`` writes, byte for byte, the csv.writer rows of ``repr(float(...))`` cells.

The reference below is the row-by-row writer over numpy scalars that the
columnar writer replaced; every dump kind must match it exactly.
"""

import csv
import io
import math

import numpy as np
import pytest

from focklab.config import DumpConfig
from focklab.core import DEFAULT_POLICY, TruncationPolicy
from focklab.harness import dump_state
from focklab.phase import phase_distribution
from focklab.quasiprob import angular_q, phase_space_grid, q_polar, radial_nodes
from focklab.states import StateSpec, build_state

PASDFS_15 = StateSpec("PASDFS", alpha=15.0 * np.exp(0.7j), n=2, added=1, subtracted=1)


def _reference_csv(config: DumpConfig) -> bytes:
    state = build_state(config.spec, config.truncation)
    if config.kind == "amplitudes":
        header = ["n", "re", "im", "p"]
        rows = (
            [n, repr(float(c.real)), repr(float(c.imag)), repr(float(abs(c) ** 2))]
            for n, c in enumerate(state.amplitudes)
            if abs(c) >= config.amplitude_floor
        )
    elif config.kind == "husimi_q":
        grid = phase_space_grid(state, n_angles=config.angles, n_radial=config.radial)
        _, radii, _ = radial_nodes(state, config.radial)
        values = q_polar(state, radii, config.angles).ravel()
        header = ["re_beta", "im_beta", "q"]
        rows = (
            [repr(float(beta.real)), repr(float(beta.imag)), repr(float(value))]
            for beta, value in zip(grid.beta_samples, values)
        )
    else:
        if config.kind == "phase":
            profile = phase_distribution(state, config.angles)
        else:
            profile = angular_q(state, config.angles, config.radial)
        header = ["theta", "density"]
        rows = ([repr(float(t)), repr(float(d))] for t, d in zip(profile.theta, profile.density))
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


def _dump(tmp_path, spec, kind, angles=720, radial=160, policy=DEFAULT_POLICY) -> tuple[DumpConfig, bytes]:
    config = DumpConfig(spec, policy, str(tmp_path / f"{kind}.csv"), kind=kind, angles=angles, radial=radial)
    dump_state(config)
    return config, (tmp_path / f"{kind}.csv").read_bytes()


def test_amplitudes_with_parity_holes_and_cells_at_the_floor(tmp_path):
    # At tail 1e-33 the even coherent state keeps c_28 = 1.46e-15, just above
    # the 1e-15 floor, and c_30 = 4.9e-17 below it; every odd c_n is 0.
    policy = TruncationPolicy(tail_tolerance=1e-33)
    config, written = _dump(tmp_path, StateSpec("ECS", alpha=np.exp(0.3j)), "amplitudes", policy=policy)
    assert written == _reference_csv(config)
    rows = list(csv.reader(io.StringIO(written.decode())))[1:]
    assert [int(row[0]) for row in rows] == list(range(0, 29, 2))
    assert 1e-15 <= math.hypot(float(rows[-1][1]), float(rows[-1][2])) < 2e-15


def test_amplitudes_p_cells_are_scalar_squares(tmp_path):
    # Over a third of this state's |c_n|^2 differ by one ulp between the
    # scalar abs(c) ** 2 and the vectorised np.abs(c) ** 2.
    config, written = _dump(tmp_path, PASDFS_15, "amplitudes")
    assert written == _reference_csv(config)


def test_husimi_q_with_underflowing_values_on_an_odd_grid(tmp_path):
    # Q of |150> falls as r^300 towards the origin, so the inner radii give
    # subnormal values and exact zeros.
    config, written = _dump(tmp_path, StateSpec("Fock", n=150), "husimi_q", angles=361, radial=40)
    assert written == _reference_csv(config)
    values = np.array([float(line.rsplit(",", 1)[1]) for line in written.decode().splitlines()[1:]])
    assert len(values) == 361 * 40
    assert np.any(values == 0.0)
    assert np.any((values > 0.0) & (values < np.finfo(float).tiny))


@pytest.mark.parametrize("kind, angles, radial", [("phase", 720, 160), ("angular_q", 360, 128)])
def test_profiles_at_alpha_15(tmp_path, kind, angles, radial):
    config, written = _dump(tmp_path, PASDFS_15, kind, angles=angles, radial=radial)
    assert written == _reference_csv(config)
    assert written.count(b"\n") == angles + 1
