"""Flat dotted-key configuration files for sweeps and state dumps.

The format is one ``key = value`` pair per line (``#`` starts a comment),
with dotted keys grouping related settings, e.g.::

    state.family = PADFS
    state.alpha.mag = 1.0
    state.alpha.phase = 0.0
    state.n = 1
    state.added = 1
    sweep.param = alpha.mag
    sweep.start = 0.0
    sweep.stop = 5.0
    sweep.steps = 51
    quantities = mandel_q, antibunching:2, linear_entropy
    output = qm_padfs.csv

The complex displacement is entered as (magnitude, phase-in-radians) via
``state.alpha.mag`` / ``state.alpha.phase``. A second swept axis may be
given with ``sweep2.*``; rows then iterate the outer sweep first.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .core import TruncationPolicy
from .exceptions import ConfigError, InvalidParameterError
from .states import Family, StateSpec, canonical_family

_STATE_INT_KEYS = ("n", "added", "subtracted", "M")
_STATE_FLOAT_KEYS = ("p", "chi", "alpha.mag", "alpha.phase")


def _number(cfg: dict[str, str], key: str, kind: type, default: str | None = None):
    """``cfg[key]`` (or ``default``) parsed as an int or a finite float."""
    text = cfg.get(key, default)
    if text is None:
        raise ConfigError(f"missing required key {key}")
    try:
        value = kind(text)
    except ValueError:
        value = None
    if value is None or not math.isfinite(value):
        expected = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{key} must be {expected}, got {text!r}")
    return value


def parse_flat_config(text: str) -> dict[str, str]:
    """Parse the flat key = value format, reporting line numbers on errors."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


@dataclass(frozen=True)
class SweepAxis:
    param: str
    start: float
    stop: float
    steps: int

    def values(self) -> list[float]:
        if self.steps == 1:
            return [self.start]
        step = (self.stop - self.start) / (self.steps - 1)
        return [self.start + i * step for i in range(self.steps)]


@dataclass(frozen=True)
class SweepConfig:
    """A state template, one or two swept parameters, and requested outputs."""

    base_spec: StateSpec
    axes: tuple[SweepAxis, ...]
    quantities: tuple[str, ...]
    truncation: TruncationPolicy
    output_path: str

    def spec_at(self, values: tuple[float, ...]) -> StateSpec:
        spec = self.base_spec
        for axis, value in zip(self.axes, values):
            spec = _set_param(spec, axis.param, value)
        return spec


def _set_param(spec: StateSpec, param: str, value: float) -> StateSpec:
    if param == "alpha.mag":
        return replace(spec, alpha=value * cmath.exp(1j * spec.alpha_phase))
    if param == "alpha.phase":
        return replace(spec, alpha=abs(spec.alpha) * cmath.exp(1j * value))
    if param in _STATE_INT_KEYS:
        rounded = round(value)
        if abs(value - rounded) > 1e-9:
            raise InvalidParameterError(f"{param} must take integer values, got {value}")
        return replace(spec, **{param: int(rounded)})
    if param in ("p", "chi"):
        return replace(spec, **{param: value})
    raise ConfigError(f"unknown sweep parameter {param!r}")


def _sweepable(family: Family, param: str) -> bool:
    # "alpha.mag" and "alpha.phase" both belong to the family's "alpha" field.
    return param in _STATE_INT_KEYS + _STATE_FLOAT_KEYS and param.split(".")[0] in family.fields


def state_spec_from_config(cfg: dict[str, str], prefix: str = "state.") -> StateSpec:
    family = cfg.get(prefix + "family")
    if family is None:
        raise ConfigError(f"missing required key {prefix}family")
    kwargs: dict = {"family": canonical_family(family)}
    mag = _number(cfg, prefix + "alpha.mag", float, "0")
    phase = _number(cfg, prefix + "alpha.phase", float, "0")
    kwargs["alpha"] = 0j if mag == 0.0 else mag * cmath.exp(1j * phase)
    for key in _STATE_INT_KEYS:
        if prefix + key in cfg:
            kwargs[key] = _number(cfg, prefix + key, int)
    for key in ("p", "chi"):
        if prefix + key in cfg:
            kwargs[key] = _number(cfg, prefix + key, float)
    return StateSpec(**kwargs)


def truncation_from_config(cfg: dict[str, str]) -> TruncationPolicy:
    max_dim = _number(cfg, "truncation.max_dim", int, "512")
    tail = _number(cfg, "truncation.tail_tolerance", float, "1e-12")
    try:
        return TruncationPolicy(max_dim=max_dim, tail_tolerance=tail)
    except InvalidParameterError as exc:
        raise ConfigError(f"truncation: {exc}") from None


def _parse_axis(cfg: dict[str, str], prefix: str, family: Family) -> SweepAxis:
    param = cfg.get(prefix + "param")
    if param is None:
        raise ConfigError(f"missing required key {prefix}param")
    start = _number(cfg, prefix + "start", float)
    stop = _number(cfg, prefix + "stop", float)
    steps = _number(cfg, prefix + "steps", int)
    if steps < 1:
        raise ConfigError(f"{prefix}steps must be >= 1")
    if not _sweepable(family, param):
        raise ConfigError(f"parameter {param!r} does not exist on family {family.name!r}")
    return SweepAxis(param, start, stop, steps)


def sweep_config_from_text(text: str) -> SweepConfig:
    cfg = parse_flat_config(text)
    spec = state_spec_from_config(cfg)
    axes = [_parse_axis(cfg, "sweep.", spec.info)]
    if any(key.startswith("sweep2.") for key in cfg):
        axes.append(_parse_axis(cfg, "sweep2.", spec.info))
    if "quantities" not in cfg:
        raise ConfigError("missing required key 'quantities'")
    quantities = tuple(q.strip() for q in cfg["quantities"].split(",") if q.strip())
    if not quantities:
        raise ConfigError("'quantities' must name at least one output")
    if "output" not in cfg:
        raise ConfigError("missing required key 'output'")
    return SweepConfig(
        base_spec=spec,
        axes=tuple(axes),
        quantities=quantities,
        truncation=truncation_from_config(cfg),
        output_path=cfg["output"],
    )


DUMP_KINDS = ("amplitudes", "phase", "angular_q", "husimi_q")


@dataclass(frozen=True)
class DumpConfig:
    """What to dump: Fock amplitudes (default), a phase-distribution profile,
    the angular Q profile, or the Husimi Q sampled on its phase-space grid."""

    spec: StateSpec
    truncation: TruncationPolicy
    output_path: str
    kind: str = "amplitudes"
    angles: int = 720
    radial: int = 160
    amplitude_floor: float = 1e-15


def _grid_size(cfg: dict[str, str], key: str, default: int) -> int:
    text = cfg.get(key, str(default))
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigError(f"{key} must be an integer >= 1, got {text!r}")
    return value


def dump_config_from_text(text: str) -> DumpConfig:
    cfg = parse_flat_config(text)
    if "output" not in cfg:
        raise ConfigError("missing required key 'output'")
    kind = cfg.get("dump.kind", "amplitudes")
    if kind not in DUMP_KINDS:
        raise ConfigError(f"dump.kind must be one of {', '.join(DUMP_KINDS)}")
    angles = _grid_size(cfg, "dump.angles", 720)
    if kind in ("phase", "angular_q") and angles % 2:
        # The profile's Simpson mass check needs an even point count.
        raise ConfigError(f"dump.angles must be even for dump.kind = {kind}, got {angles}")
    return DumpConfig(
        spec=state_spec_from_config(cfg),
        truncation=truncation_from_config(cfg),
        output_path=cfg["output"],
        kind=kind,
        angles=angles,
        radial=_grid_size(cfg, "dump.radial", 160),
    )
