"""Every shipped figure-reproduction config runs end-to-end within budget."""

import csv
import io
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from focklab.cli import main
from focklab.config import dump_config_from_text, sweep_config_from_text
from focklab.exceptions import FockLabError
from focklab.harness import _UNDEFINED, parse_quantity
from focklab.states import build_state

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SWEEPS = sorted(p for p in CONFIG_DIR.glob("*.cfg") if "dump" not in p.name and "angular" not in p.name)
DUMPS = sorted(p for p in CONFIG_DIR.glob("*.cfg") if "dump" in p.name or "angular" in p.name)


def _rewritten(config: Path, tmp_path) -> Path:
    """Point the config's output at the pytest tmp dir."""
    text = config.read_text()
    out_name = next(
        line.split("=", 1)[1].strip() for line in text.splitlines() if line.startswith("output")
    )
    text = text.replace(out_name, str(tmp_path / out_name))
    rewritten = tmp_path / config.name
    rewritten.write_text(text)
    return rewritten


@pytest.mark.parametrize("config", SWEEPS, ids=lambda p: p.stem)
def test_shipped_sweep_config_runs_under_budget(config, tmp_path):
    start = time.monotonic()
    assert main(["sweep", str(_rewritten(config, tmp_path))]) == 0
    assert time.monotonic() - start < 60.0
    out = next(tmp_path.glob("*.csv"))
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) >= 2
    assert rows[0][-1] == "error"
    assert all(row[-1] == "" for row in rows[1:])


def _reference_sweep_csv(config) -> str:
    """The sweep's CSV written one point at a time with build_state and the quantity registry."""
    resolved = [parse_quantity(token) for token in config.quantities]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([axis.param for axis in config.axes] + [label for _, _, label in resolved] + ["error"])
    for point in itertools.product(*(axis.values() for axis in config.axes)):
        cells, error = [], ""
        try:
            state = build_state(config.spec_at(point), config.truncation)
        except FockLabError as exc:
            cells, error = [""] * len(resolved), f"{type(exc).__name__}: {exc}"
        else:
            for quantity, arg, _ in resolved:
                try:
                    value = quantity.evaluate(state, arg)
                except _UNDEFINED:
                    value = None
                except FockLabError as exc:
                    value, error = None, f"{type(exc).__name__}: {exc}"
                cells.append("" if value is None else repr(float(value)))
        writer.writerow([repr(float(v)) for v in point] + cells + [error])
    return out.getvalue()


@pytest.mark.parametrize("config", SWEEPS, ids=lambda p: p.stem)
def test_shipped_sweep_csv_is_the_per_point_reference(config, tmp_path):
    rewritten = _rewritten(config, tmp_path)
    assert main(["sweep", str(rewritten)]) == 0
    sweep = sweep_config_from_text(rewritten.read_text())
    with open(sweep.output_path, newline="") as handle:
        assert handle.read() == _reference_sweep_csv(sweep)


@pytest.mark.parametrize("config", DUMPS, ids=lambda p: p.stem)
def test_shipped_dump_config_runs_under_budget(config, tmp_path):
    rewritten = _rewritten(config, tmp_path)
    start = time.monotonic()
    assert main(["dump", str(rewritten)]) == 0
    assert time.monotonic() - start < 60.0
    dump = dump_config_from_text(rewritten.read_text())
    with open(dump.output_path, newline="") as handle:
        header, *rows = list(csv.reader(handle))
    values = np.array(rows, dtype=float)
    # The checks the benchmark makes of every dump it writes.
    if dump.kind == "amplitudes":
        assert header == ["n", "re", "im", "p"]
        assert abs(values[:, 3].sum() - 1.0) <= 1e-6
    elif dump.kind == "husimi_q":
        assert header == ["re_beta", "im_beta", "q"]
        assert values.shape == (dump.angles * dump.radial, 3)
        assert np.all(np.isfinite(values)) and np.all(values[:, 2] >= 0.0)
    else:
        assert header == ["theta", "density"]
        assert values.shape == (dump.angles, 2)
        # The periodic trapezoid rule integrates these trigonometric polynomials exactly.
        assert abs(values[:, 1].sum() * 2.0 * math.pi / dump.angles - 1.0) <= 1e-6
