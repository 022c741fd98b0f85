"""Config parsing: strict schema, file/override layering, derived values."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prunemerge.errors import ConfigError
from prunemerge.runconfig import (SCHEMA, load_config, model_config_from,
                                  parse_config_text, resolve_exempt,
                                  resolve_freeze_epoch)
from prunemerge.scoring import ScorerVariant

from helpers import fresh


def test_defaults_cover_every_key():
    cfg = load_config()
    assert set(cfg) == set(SCHEMA)
    assert cfg["rate"] == 0.7
    assert cfg["pm_threshold"] == 0.1
    assert cfg["dataset"] == "synthetic"


def test_parse_accepts_comments_and_blanks():
    text = "# a comment\n\nrate = 0.5\n  epochs=3  \n"
    values = parse_config_text(text)
    assert values == {"rate": 0.5, "epochs": 3}


def test_unknown_key_is_an_error_with_location():
    with pytest.raises(ConfigError, match=r"run\.cfg:2.*learning_rate"):
        parse_config_text("rate=0.5\nlearning_rate=0.1\n", source="run.cfg")


def test_misspelled_key_never_falls_back_to_default():
    # a typo must fail loudly, not silently run with the default
    with pytest.raises(ConfigError, match="pm_treshold"):
        parse_config_text("pm_treshold=0.3\n")


def test_duplicate_key_is_an_error():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("rate=0.5\nrate=0.6\n")


def test_bad_value_reports_key_and_line():
    with pytest.raises(ConfigError, match=r"<config>:1: epochs"):
        parse_config_text("epochs=three\n")


def test_missing_equals_sign_is_an_error():
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_text("just some words\n")


def test_dataset_kind_restricted():
    with pytest.raises(ConfigError, match="synthetic"):
        parse_config_text("dataset=imagenet\n")


def test_scorer_validated_against_variants():
    assert parse_config_text("scorer=attn_only_avg\n") == {
        "scorer": ScorerVariant.ATTN_ONLY_AVG}
    assert load_config()["scorer"] is ScorerVariant.GRAD_WEIGHTED_AVG
    with pytest.raises(ConfigError, match=r"<config>:1: scorer"):
        parse_config_text("scorer=made_up\n")


def test_file_then_overrides_then_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("rate=0.5\nepochs=7\n")
    cfg = load_config(path, overrides={"epochs": "9"})
    assert cfg["rate"] == 0.5        # from file
    assert cfg["epochs"] == 9        # override wins
    assert cfg["alpha"] == 0.4       # schema default


def test_override_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(overrides={"ratee": "0.5"})


def test_override_values_are_cast():
    cfg = load_config(overrides={"batch_size": "16"})
    assert cfg["batch_size"] == 16 and isinstance(cfg["batch_size"], int)


def test_model_config_round_trip():
    cfg = load_config(overrides={"embed_dim": "48", "heads": "4"})
    mc = model_config_from(cfg)
    assert mc.embed_dim == 48 and mc.heads == 4
    assert mc.image_size == cfg["image_size"]


# --- derived settings ------------------------------------------------------

def test_exempt_auto_deep_model_spares_first_and_last_two():
    assert resolve_exempt("auto", 12) == (0, 1, 10, 11)


def test_exempt_auto_shrinks_on_shallow_models():
    assert resolve_exempt("auto", 3) == (0, 2)
    assert resolve_exempt("auto", 2) == (0, 1) or resolve_exempt("auto", 2) == ()
    # at least one layer must stay compressible
    for depth in range(1, 8):
        exempt = resolve_exempt("auto", depth)
        assert len(exempt) < depth


def test_exempt_none_and_explicit():
    assert resolve_exempt("none", 4) == ()
    assert resolve_exempt("0, 3", 4) == (0, 3)
    assert resolve_exempt("3,0,3", 4) == (0, 3)  # dedupe + sort


def test_exempt_explicit_out_of_range():
    with pytest.raises(ConfigError, match="outside"):
        resolve_exempt("4", 4)


def test_freeze_epoch_two_thirds_default():
    assert resolve_freeze_epoch({"freeze_epoch": -1, "epochs": 60}) == 40
    assert resolve_freeze_epoch({"freeze_epoch": -1, "epochs": 5}) == 4
    assert resolve_freeze_epoch({"freeze_epoch": -1, "epochs": 1}) == 1
    assert resolve_freeze_epoch({"freeze_epoch": -1, "epochs": 0}) == 1


@pytest.mark.parametrize("key, raw, low", [("val_count", "-1", 0),
                                           ("freeze_epoch", "-2", -1),
                                           ("freeze_epoch", "-5", -1),
                                           ("batch_size", "0", 1)])
def test_values_below_the_documented_range_are_refused(key, raw, low):
    detail = f"expected an integer >= {low}, got '{raw}'"
    with pytest.raises(ConfigError, match=f"^{detail}$"):
        load_config(overrides={key: raw})
    with pytest.raises(ConfigError, match=f"^run.cfg:1: {key}: {detail}$"):
        parse_config_text(f"{key}={raw}\n", source="run.cfg")


def test_range_edges_keep_their_meaning():
    cfg = load_config(overrides={"val_count": "0", "freeze_epoch": "-1"})
    assert cfg["val_count"] == 0
    assert resolve_freeze_epoch({**cfg, "epochs": 6}) == 4
    assert load_config(overrides={"freeze_epoch": "0"})["freeze_epoch"] == 0


def test_freeze_epoch_explicit_passthrough():
    assert resolve_freeze_epoch({"freeze_epoch": 3, "epochs": 60}) == 3


CONFIG_BLOB = (b"# run\nrate=0.5\nepochs=3\nscorer=attn_only_avg\n"
               b"exempt_layers=0,2\ndataset=synthetic\n")


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(at=st.integers(0, len(CONFIG_BLOB) - 1), byte=st.integers(0, 255),
       how=st.sampled_from(["replace", "insert", "delete"]))
def test_any_one_byte_edit_loads_or_is_a_config_error(tmp_path, at, byte,
                                                      how):
    blob = CONFIG_BLOB[:at] + (b"" if how == "delete" else bytes([byte])) \
        + CONFIG_BLOB[at + (how != "insert"):]
    path = fresh(tmp_path / "run.cfg")
    path.write_bytes(blob)
    try:
        load_config(path)
    except ConfigError as e:
        assert str(e).startswith(str(path)) and "\n" not in str(e)
