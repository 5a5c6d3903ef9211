"""Flat key=value run configuration with strict parsing.

The on-disk format is one `key = value` pair per line, '#' starting a
comment, UTF-8.  Unknown keys are rejected rather than ignored so a typo
cannot silently fall back to a default; serialize/parse round-trips
exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

from .analysis import _suite_names
from .stacker import DEFAULT_LEVELS, DEFAULT_RES


@dataclass(frozen=True)
class RunConfig:
    weight: str = "constant"
    alpha: float | None = None
    layers: str = ""
    resolution: int = DEFAULT_RES
    levels: int = DEFAULT_LEVELS
    switch_level: float = 0.0
    outdir: str = "out"
    experiments: str = "all"
    seed: int = 0

    def __post_init__(self):
        parse_layers(self.layers)
        if not 32 <= self.resolution <= 4096:
            raise ValueError("resolution must lie in [32, 4096]")
        if not 16 <= self.levels <= 20001:
            raise ValueError("levels must lie in [16, 20001]")
        if not 0.0 <= self.switch_level <= 2.0:
            raise ValueError("switch_level must lie in [0, 2]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        _suite_names(self.experiments)


def parse_layers(text: str):
    """'depth:weight,depth:weight' -> ((depth, weight), ...) or None."""
    if not text:
        return None
    out = []
    for item in text.split(","):
        depth, sep, wt = item.partition(":")
        if not sep:
            raise ValueError(f"layer {item!r} must look like depth:weight")
        out.append((float(depth), float(wt)))
    return tuple(out)


def _parse_value(name: str, text: str):
    if name == "alpha":
        return None if text.lower() in ("none", "") else float(text)
    return type(getattr(RunConfig, name))(text)


def parse_config(text: str) -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in known:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, val)
    return RunConfig(**values)


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        val = getattr(cfg, f.name)
        if f.name == "alpha" and val is None:
            val = "none"
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
