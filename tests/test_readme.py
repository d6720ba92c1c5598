"""The truncation and entropy-limit facts README.md states, each checked."""

import csv

import pytest

from focklab.config import sweep_config_from_text
from focklab.exceptions import ConvergenceError, TruncationOverflowError
from focklab.harness import run_sweep
from focklab.interferometry import linear_entropy_closed_form
from focklab.states import StateSpec, build_by_composition, build_state, ladders, normalization_constant


def test_entropy_ladders_are_their_cut_lengths():
    # A coherent state at |alpha| = 1, 3, 8 and 15 sums a ladder of 31, 67, 185 and 433 terms.
    specs = [StateSpec("Coherent", alpha=mag) for mag in (1.0, 3.0, 8.0, 15.0)]
    assert [len(log_c) for log_c, _ in ladders(specs)] == [31, 67, 185, 433]


@pytest.mark.parametrize(
    "accepted, refused",
    [
        (StateSpec("PABS", p=0.5, M=2046), StateSpec("PABS", p=0.5, M=2047)),
        (StateSpec("Binomial", p=0.5, M=2047), StateSpec("Binomial", p=0.5, M=2048)),
        (StateSpec("VFBS", p=0.5, M=2047), StateSpec("VFBS", p=0.5, M=2048)),
        (StateSpec("Coherent", alpha=39.2), StateSpec("Coherent", alpha=39.3)),
    ],
    ids=["PABS", "Binomial", "VFBS", "Coherent"],
)
def test_the_entropy_closed_form_stops_at_a_4096_term_series(accepted, refused):
    # The series has 2 * ladder - 1 terms: PABS is refused from M = 2047,
    # Binomial and VFBS from M = 2048, and a coherent state from |alpha| ~ 39.3.
    lengths = [len(log_c) for log_c, _ in ladders([accepted, refused])]
    assert 2 * lengths[0] - 1 <= 4096 < 2 * lengths[1] - 1
    assert 0.0 <= linear_entropy_closed_form(accepted) <= 1.0
    with pytest.raises(ConvergenceError):
        linear_entropy_closed_form(refused)


@pytest.mark.parametrize(
    "spec",
    [StateSpec("Coherent", alpha=22.0), StateSpec("Binomial", p=0.5, M=10**6), StateSpec("Fock", n=512)],
    ids=["coherent-22", "binomial-1e6", "fock-512"],
)
def test_a_basis_past_the_default_max_dim_is_refused_alike(spec):
    for evaluate in (build_state, build_by_composition, normalization_constant):
        with pytest.raises(TruncationOverflowError):
            evaluate(spec)


def test_a_sweep_point_past_the_cap_gets_an_error_cell(tmp_path):
    out = tmp_path / "cap.csv"
    text = f"""
state.family = Coherent
sweep.param = alpha.mag
sweep.start = 15.0
sweep.stop = 22.0
sweep.steps = 2
quantities = mandel_q, linear_entropy
output = {out}
"""
    run_sweep(sweep_config_from_text(text))
    with open(out, newline="") as handle:
        inside, past = list(csv.reader(handle))[1:]
    assert inside[1] and inside[2] and inside[3] == ""
    assert past[1:3] == ["", ""] and past[3].startswith("TruncationOverflowError")
