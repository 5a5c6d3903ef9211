"""Run-configuration parsing and round-tripping."""
import pytest
from hypothesis import given, strategies as st

from lglab.config import (RunConfig, parse_config, parse_layers,
                          serialize_config)

SAFE_TEXT = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
             "0123456789/._-", min_size=1, max_size=24)


def test_defaults_round_trip():
    cfg = RunConfig()
    assert parse_config(serialize_config(cfg)) == cfg


def test_comments_and_blanks_ignored():
    cfg = parse_config("# header\n\nweight = constant  # trailing\n"
                       "resolution = 64\n")
    assert cfg.resolution == 64 and cfg.weight == "constant"


@pytest.mark.parametrize("text,fragment", [
    ("wieght = constant", "unknown key"),
    ("resolution = 64\nresolution = 64", "duplicate"),
    ("resolution = 8", "resolution"),
    ("levels = 5", "levels"),
    ("switch_level = 2.5", "switch_level"),
    ("seed = -1", "seed"),
    ("experiments = bogus", "unknown experiment"),
    ("experiments = snell,all", "unknown experiment"),
    ("experiments = snell,snell", "unknown experiment"),
    ("just a line", "expected key = value"),
])
def test_rejections(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_config(text)


def test_layers_field():
    assert parse_layers("") is None
    assert parse_layers("0.3:2.0,0.7:4.0") == ((0.3, 2.0), (0.7, 4.0))
    with pytest.raises(ValueError):
        parse_layers("0.3;2.0")
    cfg = RunConfig(weight="layered_horizontal", layers="0.5:2.0")
    assert parse_config(serialize_config(cfg)) == cfg


@given(weight=st.sampled_from(["constant", "heavy_diamond", "three_heavy_diamonds"]),
       alpha=st.one_of(st.none(), st.floats(1.5, 5.0)),
       resolution=st.integers(32, 4096),
       levels=st.integers(16, 20001),
       switch_level=st.floats(0.0, 2.0),
       outdir=SAFE_TEXT,
       seed=st.integers(0, 2**31))
def test_round_trip_property(weight, alpha, resolution, levels, switch_level,
                             outdir, seed):
    cfg = RunConfig(weight=weight, alpha=alpha, resolution=resolution,
                    levels=levels, switch_level=switch_level, outdir=outdir,
                    seed=seed)
    assert parse_config(serialize_config(cfg)) == cfg
