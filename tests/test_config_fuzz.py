"""Fuzzed config documents: load_config either returns a RunConfig or
raises InvalidConfig, and every config it returns survives a round trip
through resolved_dict unchanged."""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coinfactors.config import RunConfig, load_config, resolved_dict
from coinfactors.errors import InvalidConfig

ANY_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _label(spec):
    return repr(spec.get("label") if isinstance(spec, dict) else spec)


def _document(tmp_path, level):
    """A document over the real keys. Level 0 draws only values in range,
    level 1 sometimes draws one out of range, and level 2 also draws any
    JSON in place of a value or an object, and unknown keys."""

    def mostly(valid, invalid):
        return valid if level == 0 else st.one_of(valid, valid, valid, invalid)

    def ints(lo, hi, bad_lo):
        return mostly(st.integers(lo, hi), st.integers(bad_lo, lo))

    def floats(lo, hi, bad_lo, bad_hi):
        return mostly(st.floats(lo, hi), st.floats(bad_lo, bad_hi))

    def choice(valid, invalid):
        return mostly(st.sampled_from(valid), st.just(invalid))

    def strings(valid, invalid):
        return st.lists(choice(valid, invalid), min_size=1, max_size=3)

    def value(strategy):
        return st.one_of(strategy, ANY_JSON) if level == 2 else strategy

    def obj(keys, required=()):
        # level 0 always draws the required keys
        needed = required if level == 0 else ()
        chosen = st.fixed_dictionaries(
            {k: value(v) for k, v in keys.items() if k in needed},
            optional={k: value(v) for k, v in keys.items() if k not in needed},
        )
        if level < 2:
            return chosen
        unknown = st.tuples(chosen, st.sampled_from(["bogus", "x"]), ANY_JSON)
        return st.one_of(chosen, ANY_JSON, unknown.map(lambda t: {**t[0], t[1]: t[2]}))

    path = choice(
        [str(tmp_path / "market"), str(tmp_path / "epu.csv")],
        str(tmp_path / "absent.csv"),
    )
    beta = obj({
        "mode": choice(["conditional", "unconditional"], "other"),
        "characteristics": strings(["size", "momentum", "liquidity"], "value"),
        "lagged_return": choice(["btc", "own"], "eth"),
    }, required=["mode"])
    spec = obj({
        "label": choice(["capm-c", "ff3-u", "all"], ""),
        "factors": choice(["CAPM", "FF3", "ALL"], "NONE"),
        "beta": beta,
        "anomalies": strings(["size", "liquidity", "momentum", "value"], "beta"),
        "riskfree_mode": choice(["tbill", "btc"], "gold"),
    }, required=["label", "factors", "beta"])
    sections = {
        "data": obj({"market_dir": path, "epu_file": path, "riskfree_file": path},
                    required=["market_dir", "epu_file", "riskfree_file"]),
        "panel_file": path,
        "universe": obj({
            "top_n": ints(1, 300, -2),
            "min_history_days": ints(0, 400, -2),
            "rank_date": mostly(st.dates().map(lambda d: d.isoformat()),
                                 st.text(max_size=10)),
        }),
        "windows": obj({
            "momentum_days": ints(1, 60, -1),
            "liquidity_days": ints(1, 60, -1),
            "value_near_days": ints(0, 40, -1),
            "value_far_days": ints(40, 400, -1),
            "min_valid_share": floats(0.01, 1, -0.5, 1.5),
        }),
        "panel": obj({
            "riskfree_mode": choice(["tbill", "btc"], "gold"),
            "btc_id": choice(["BTC", "XBT"], ""),
            "ffill_limit_days": ints(0, 10, -1),
            "winsor": mostly(
                st.tuples(st.floats(0, 49), st.floats(51, 100)).map(list),
                st.lists(st.floats(-10, 110), max_size=3),
            ),
        }),
        "factors": obj({
            "min_sort_coins": ints(1, 20, -1),
            "exclude_btc_from_market": st.booleans(),
            "btc_id": choice(["BTC", "ETH"], ""),
        }),
        "econometrics": obj({
            "nw_lags": ints(0, 10, -2),
            "significance_z": floats(0.5, 5, -1, 10),
            "rank_tolerance": floats(0, 1e-6, -1, 2),
        }),
        "pipeline": obj({
            "min_obs_margin": ints(0, 60, -1),
            "floor_base": ints(0, 60, -1),
        }),
        # distinct labels most of the time, so that more documents load
        "specs": mostly(st.lists(spec, max_size=3, unique_by=_label),
                         st.lists(spec, max_size=3)),
        "synth": obj({
            "scenario": choice(["A", "B", "C"], "Z"),
            "n_coins": ints(1, 50, -1),
            "n_days": ints(200, 800, -1),
            "emit_raw": st.booleans(),
        }, required=["scenario", "n_coins", "n_days"]),
        "seed": ints(0, 2**40, -3),
        "output_dir": st.text(max_size=8),
    }
    return obj(sections)


def documents(tmp_path):
    (tmp_path / "market").mkdir(exist_ok=True)
    (tmp_path / "epu.csv").write_text("date,epu\n", encoding="utf-8")
    return st.one_of(*(_document(tmp_path, level) for level in (0, 1, 2)))


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_load_config_accepts_or_rejects_and_round_trips(tmp_path, data):
    doc = data.draw(documents(tmp_path))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        cfg = load_config(path)
    except InvalidConfig:
        return
    assert isinstance(cfg, RunConfig)
    resolved = resolved_dict(cfg)
    path.write_text(json.dumps(resolved), encoding="utf-8")
    assert resolved_dict(load_config(path)) == resolved
