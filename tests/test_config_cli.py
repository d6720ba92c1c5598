import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import focklab

from focklab.cli import main
from focklab.config import (
    dump_config_from_text,
    parse_flat_config,
    sweep_config_from_text,
)
from focklab import harness
from focklab.exceptions import ConfigError
from focklab.harness import dump_state, parse_quantity, run_sweep
from focklab.phase import barnett_pegg_fluctuations
from focklab.states import build_state


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


SWEEP_TEMPLATE = """
# Mandel Q along the displacement amplitude
state.family = PADFS
state.alpha.mag = 0.0
state.n = 1
state.added = 1
sweep.param = alpha.mag
sweep.start = 0.0
sweep.stop = 5.0
sweep.steps = 51
quantities = mandel_q
output = {out}
"""


def test_parse_flat_config_basics():
    cfg = parse_flat_config("a.b = 1\n# comment\n\nc = x  # trailing\n")
    assert cfg == {"a.b": "1", "c": "x"}


def test_parse_flat_config_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_flat_config("a = 1\nbroken line\n")


def test_parse_flat_config_rejects_duplicates():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_flat_config("a = 1\na = 2\n")


def test_sweep_param_must_exist_on_family():
    text = SWEEP_TEMPLATE.format(out="x.csv").replace("alpha.mag\n", "p\n", 1)
    with pytest.raises(ConfigError, match="does not exist"):
        sweep_config_from_text(text.replace("sweep.param = alpha.mag", "sweep.param = p"))


def test_unknown_quantity_rejected():
    with pytest.raises(ConfigError, match="unknown quantity"):
        parse_quantity("wigner_volume")


def test_quantity_argument_parsing():
    quantity, arg, label = parse_quantity("antibunching:3")
    assert quantity.name == "antibunching" and arg == 3 and label == "antibunching:3"
    _, arg, _ = parse_quantity("phase_uncertainty:0.7853981633974483")
    assert arg == pytest.approx(math.pi / 4)


def test_mandel_sweep_reproduces_fock_limit(tmp_path):
    out = tmp_path / "qm.csv"
    config = sweep_config_from_text(SWEEP_TEMPLATE.format(out=out))
    run_sweep(config)
    rows = read_csv(out)
    assert rows[0] == ["alpha.mag", "mandel_q", "error"]
    assert len(rows) == 52  # header + 51 points
    assert float(rows[1][0]) == 0.0
    assert float(rows[1][1]) == pytest.approx(-1.0, abs=1e-8)  # PADFS at alpha=0 is a Fock state
    assert all(row[2] == "" for row in rows[1:])


def test_fluctuation_sweep_coherent_is_half(tmp_path):
    out = tmp_path / "u.csv"
    text = f"""
state.family = Coherent
sweep.param = alpha.mag
sweep.start = 0.5
sweep.stop = 3.0
sweep.steps = 6
quantities = fluctuation_u
output = {out}
"""
    run_sweep(sweep_config_from_text(text))
    rows = read_csv(out)
    assert len(rows) == 7
    for row in rows[1:]:
        assert float(row[1]) == pytest.approx(0.5, abs=1e-8)


def test_fluctuation_columns_share_one_triple_per_point(tmp_path, monkeypatch):
    calls = []

    def counted(state):
        calls.append(state)
        return barnett_pegg_fluctuations(state)

    monkeypatch.setattr(harness, "barnett_pegg_fluctuations", counted)
    out = tmp_path / "usq.csv"
    text = f"""
state.family = PADFS
state.n = 1
state.added = 1
state.alpha.phase = 0.4
sweep.param = alpha.mag
sweep.start = 0.5
sweep.stop = 3.0
sweep.steps = 6
quantities = fluctuation_u, mean_photon, fluctuation_s, fluctuation_q
output = {out}
"""
    config = sweep_config_from_text(text)
    run_sweep(config)
    rows = read_csv(out)
    assert len(calls) == 6
    for row in rows[1:]:
        triple = barnett_pegg_fluctuations(build_state(config.spec_at((float(row[0]),)), config.truncation))
        assert [row[1], row[3], row[4]] == [repr(triple.u), repr(triple.s), repr(triple.q)]


def test_subtracted_coherent_antibunching_sweep(tmp_path):
    out = tmp_path / "d1.csv"
    text = f"""
state.family = PSDFS
state.n = 0
state.subtracted = 1
sweep.param = alpha.mag
sweep.start = 0.5
sweep.stop = 2.0
sweep.steps = 7
quantities = antibunching:2
output = {out}
"""
    run_sweep(sweep_config_from_text(text))
    for row in read_csv(out)[1:]:
        assert abs(float(row[1])) <= 1e-8


def test_sweep_records_errors_without_aborting(tmp_path):
    out = tmp_path / "err.csv"
    text = f"""
state.family = PSDFS
state.n = 0
state.subtracted = 1
sweep.param = alpha.mag
sweep.start = 0.0
sweep.stop = 1.0
sweep.steps = 3
quantities = mean_photon
output = {out}
"""
    run_sweep(sweep_config_from_text(text))
    rows = read_csv(out)
    assert len(rows) == 4
    assert "AnnihilatedStateError" in rows[1][2] and rows[1][1] == ""
    assert rows[2][2] == "" and float(rows[2][1]) > 0


def test_sweep_to_an_alpha_whose_square_overflows_writes_error_rows(tmp_path):
    out = tmp_path / "huge.csv"
    text = f"""
state.family = Coherent
sweep.param = alpha.mag
sweep.start = 0.0
sweep.stop = 1e200
sweep.steps = 3
quantities = mean_photon
output = {out}
"""
    run_sweep(sweep_config_from_text(text))
    rows = read_csv(out)
    assert len(rows) == 4
    assert rows[1][1:] == ["0.0", ""]
    for row in rows[2:]:
        assert row[1] == "" and row[2].startswith("InvalidParameterError: |alpha|")


def test_undefined_witness_gives_empty_cell(tmp_path):
    out = tmp_path / "undef.csv"
    text = f"""
state.family = DFS
state.n = 1
sweep.param = alpha.mag
sweep.start = 0.0
sweep.stop = 1.0
sweep.steps = 3
quantities = fluctuation_u, mean_photon
output = {out}
"""
    run_sweep(sweep_config_from_text(text))
    rows = read_csv(out)
    assert rows[1][1] == ""  # Fock limit: U undefined, never a sentinel number
    assert rows[1][3] == ""  # and not an error either
    assert float(rows[2][1]) != 0.0


def test_two_axis_sweep_row_order(tmp_path):
    out = tmp_path / "grid.csv"
    text = f"""
state.family = Kerr
state.alpha.mag = 1.0
sweep.param = alpha.mag
sweep.start = 0.5
sweep.stop = 1.0
sweep.steps = 2
sweep2.param = chi
sweep2.start = 0.0
sweep2.stop = 0.1
sweep2.steps = 3
quantities = mean_photon
output = {out}
"""
    run_sweep(sweep_config_from_text(text))
    rows = read_csv(out)
    assert rows[0][:2] == ["alpha.mag", "chi"]
    assert len(rows) == 7
    assert [r[0] for r in rows[1:]] == ["0.5"] * 3 + ["1.0"] * 3


def test_sweep_output_is_byte_stable(tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out_a, out_b):
        run_sweep(sweep_config_from_text(SWEEP_TEMPLATE.format(out=out)))
    assert out_a.read_bytes() == out_b.read_bytes()


# --- dump -----------------------------------------------------------------------

def test_dump_fock(tmp_path):
    out = tmp_path / "fock.csv"
    dump_state(dump_config_from_text(f"state.family = Fock\nstate.n = 2\noutput = {out}\n"))
    rows = read_csv(out)
    assert rows == [["n", "re", "im", "p"], ["2", "1.0", "0.0", "1.0"]]


def test_dump_ecs_even_rows_only(tmp_path):
    out = tmp_path / "ecs.csv"
    dump_state(
        dump_config_from_text(f"state.family = ECS\nstate.alpha.mag = 1.0\noutput = {out}\n")
    )
    rows = read_csv(out)[1:]
    assert rows and all(int(row[0]) % 2 == 0 for row in rows)


def test_dump_vfbs_no_vacuum_row(tmp_path):
    out = tmp_path / "vfbs.csv"
    dump_state(
        dump_config_from_text(
            f"state.family = VFBS\nstate.p = 0.5\nstate.M = 2\noutput = {out}\n"
        )
    )
    rows = read_csv(out)[1:]
    assert [int(r[0]) for r in rows] == [1, 2]


@pytest.mark.parametrize(
    "lines, message",
    [
        ("dump.kind = angular_q\ndump.angles = 361", "must be even"),
        ("dump.kind = phase\ndump.angles = 45", "must be even"),
        ("dump.kind = husimi_q\ndump.angles = 0", "dump.angles must be an integer >= 1"),
        ("dump.kind = angular_q\ndump.radial = 0", "dump.radial must be an integer >= 1"),
        ("dump.kind = husimi_q\ndump.radial = -3", "dump.radial must be an integer >= 1"),
        ("dump.kind = phase\ndump.angles = 72.5", "dump.angles must be an integer >= 1"),
        ("dump.angles = many", "dump.angles must be an integer >= 1"),
    ],
)
def test_dump_rejects_bad_grid_sizes(lines, message):
    with pytest.raises(ConfigError, match=message):
        dump_config_from_text(f"state.family = Fock\nstate.n = 1\n{lines}\noutput = x.csv\n")


def test_dump_odd_angles_allowed_for_husimi_q():
    config = dump_config_from_text(
        "state.family = Fock\ndump.kind = husimi_q\ndump.angles = 361\noutput = x.csv\n"
    )
    assert config.angles == 361


# --- CLI ------------------------------------------------------------------------

def test_cli_sweep_and_dump(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    out = tmp_path / "out.csv"
    cfg.write_text(SWEEP_TEMPLATE.format(out=out).replace("sweep.steps = 51", "sweep.steps = 3"))
    assert main(["sweep", str(cfg)]) == 0
    assert len(read_csv(out)) == 4

    dump_cfg = tmp_path / "dump.cfg"
    dump_out = tmp_path / "state.csv"
    dump_cfg.write_text(f"state.family = Fock\nstate.n = 1\noutput = {dump_out}\n")
    assert main(["dump", str(dump_cfg)]) == 0
    assert read_csv(dump_out)[1][0] == "1"


def test_cli_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("state.family = PADFS\nsweep.param = alpha.mag\n")
    assert main(["sweep", str(cfg)]) == 2
    assert main(["sweep", str(tmp_path / "missing.cfg")]) == 2


def test_cli_sweep_with_an_unknown_quantity_writes_no_csv(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    out = tmp_path / "out.csv"
    cfg.write_text(SWEEP_TEMPLATE.format(out=out).replace("quantities = ", "quantities = wigner_volume, "))
    assert main(["sweep", str(cfg)]) == 2
    assert "unknown quantity 'wigner_volume'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_verify_small_seed_runs():
    # The full verification runs in the acceptance suite; here only the exit path.
    assert main(["verify", "--seed", "3"]) == 0


def test_python_m_focklab_exits_2_on_bad_dump_config(tmp_path):
    cfg = tmp_path / "bad_dump.cfg"
    cfg.write_text(
        f"state.family = Fock\ndump.kind = angular_q\ndump.angles = 361\n"
        f"output = {tmp_path / 'q.csv'}\n"
    )
    paths = [str(Path(focklab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, "-m", "focklab", "dump", str(cfg)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert "dump.angles must be even" in done.stderr
    assert not (tmp_path / "q.csv").exists()


# --- numbers in configs -----------------------------------------------------------

@pytest.mark.parametrize(
    "old, new, message",
    [
        ("sweep.steps = 51", "sweep.steps = 2.5", "sweep.steps must be an integer"),
        ("state.n = 1", "state.n = 1.5", "state.n must be an integer"),
        ("state.alpha.mag = 0.0", "state.alpha.mag = abc", "state.alpha.mag must be a finite number"),
        ("output", "truncation.max_dim = 1e3\noutput", "truncation.max_dim must be an integer"),
        ("state.alpha.mag = 0.0", "state.alpha.mag = inf", "state.alpha.mag must be a finite number"),
        ("sweep.stop = 5.0", "sweep.stop = nan", "sweep.stop must be a finite number"),
        ("output", "truncation.tail_tolerance = 2\noutput", "tail_tolerance must lie in"),
        ("output", "truncation.max_dim = 0\noutput", "max_dim must be >= 1"),
    ],
)
def test_bad_config_numbers_are_config_errors(old, new, message):
    text = SWEEP_TEMPLATE.format(out="x.csv").replace(old, new, 1)
    with pytest.raises(ConfigError, match=message):
        sweep_config_from_text(text)


def test_python_m_focklab_exits_2_on_nan_sweep_bound(tmp_path):
    out = tmp_path / "nan.csv"
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(SWEEP_TEMPLATE.format(out=out).replace("sweep.stop = 5.0", "sweep.stop = nan"))
    paths = [str(Path(focklab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, "-m", "focklab", "sweep", str(cfg)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert "sweep.stop must be a finite number" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out.exists()


# --- dump profile mass ------------------------------------------------------------

@pytest.mark.parametrize("kind", ["phase", "angular_q"])
def test_dump_refuses_aliased_profile(tmp_path, kind):
    # dim 351 against 90 angles: the folded profile has mass 0.570 (phase)
    # or 0.915 (angular_q), far from 1.
    out = tmp_path / "aliased.csv"
    config = dump_config_from_text(
        "state.family = PASDFS\nstate.alpha.mag = 15\nstate.n = 1\nstate.added = 1\n"
        f"state.subtracted = 1\ndump.kind = {kind}\ndump.angles = 90\noutput = {out}\n"
    )
    with pytest.raises(ConfigError, match=r"profile has mass 0\.(570|915)"):
        dump_state(config)
    assert not out.exists()


@pytest.mark.parametrize("kind", ["phase", "angular_q"])
def test_shipped_angular_dump_passes_mass_check(tmp_path, kind):
    shipped = Path(__file__).resolve().parents[1] / "configs" / "angular_q_added.cfg"
    out = tmp_path / "profile.csv"
    text = shipped.read_text().replace("output = angular_q_added.csv", f"output = {out}")
    text = text.replace("dump.kind = angular_q", f"dump.kind = {kind}")
    dump_state(dump_config_from_text(text))
    rows = read_csv(out)
    assert rows[0] == ["theta", "density"] and len(rows) == 361
