import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seisrate.cli import main
from seisrate.errors import InstanceFormatError
from seisrate.model import (
    ChannelMatrix,
    GatewayState,
    fixture_path,
    generate_gateways,
    generate_rayleigh,
    load_instance,
    save_instance,
)


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["gp_power", "noise_power"])
def test_channel_rejects_non_finite(field, value):
    fields = dict(num_gps=1, num_gws=1, gains=[[1.0]], gp_power=1e-3,
                  noise_power=1e-3)
    fields[field] = value
    with pytest.raises(ValueError, match="finite"):
        ChannelMatrix(**fields)


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["queue_rates", "gains", "noise_power",
                                   "per_gw_power_cap", "total_power_cap"])
def test_gateways_reject_non_finite(field, value):
    fields = dict(num_gws=2, queue_rates=[1.0, 1.0], gains=[1.0, 2.0],
                  noise_power=1e-3, per_gw_power_cap=1.0, total_power_cap=1.0)
    fields[field] = [1.0, value] if field in ("queue_rates", "gains") else value
    with pytest.raises(ValueError, match="finite"):
        GatewayState(**fields)


@pytest.mark.parametrize("argv", [
    ["--gps", "3", "--gws", "2", "--p-mw", "nan"],
    ["--gps", "3", "--gws", "2", "--n0-mw", "inf"],
    ["--kind", "gateways", "--pmax-mw", "nan"],
    ["--kind", "gateways", "--ptotal-max-mw", "inf"],
])
def test_gen_exits_invalid_on_non_finite(argv, tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["gen", *argv, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, key", [("channel", "P_mW"), ("channel", "N0_mW"),
                                       ("gateways", "Q"), ("gateways", "Pmax_mW")])
def test_instance_file_with_non_finite_number(kind, key, tmp_path):
    doc = ({"kind": "channel", "K": 1, "N": 1, "P_mW": 1.0, "N0_mW": 1.0,
            "H": [[1.0]]} if kind == "channel" else
           {"kind": "gateways", "N": 2, "Q": [1.0, 1.0], "G": [1.0, 2.0],
            "N0_mW": 1.0, "Pmax_mW": 1.0})
    doc[key] = [1.0, float("nan")] if key == "Q" else float("nan")
    path = tmp_path / "x.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InstanceFormatError, match="finite"):
        load_instance(path)


class TestChannelMatrix:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            ChannelMatrix(3, 2, np.ones((2, 2)), 1e-3, 1e-3)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            ChannelMatrix(1, 1, np.ones((1, 1)), 0.0, 1e-3)
        with pytest.raises(ValueError):
            ChannelMatrix(1, 1, np.ones((1, 1)), 1e-3, -1.0)

    def test_rejects_negative_gain(self):
        with pytest.raises(ValueError):
            ChannelMatrix(1, 1, [[-0.5]], 1e-3, 1e-3)

    def test_gains_are_immutable(self, paper_channel):
        with pytest.raises(ValueError):
            paper_channel.gains[0, 0] = 9.9

    def test_decode_table(self):
        # descending gain, ties to the lower index; kept and read-only
        gains = np.array([[1.0, 2.0], [3.0, 2.0], [1.0, 0.0]])
        channel = ChannelMatrix(3, 2, gains, 2e-3, 1e-3)
        table = channel.decode_table
        assert channel.decode_table is table
        for i, want in enumerate([[1, 0, 2], [0, 1, 2]]):
            order, inverse, h2, ph2 = table[i]
            assert order.tolist() == want
            assert np.array_equal(order[inverse], np.arange(3))
            assert h2.tolist() == (gains[order, i] ** 2).tolist()
            assert ph2.tolist() == (2e-3 * h2).tolist()
            for array in table[i]:
                with pytest.raises(ValueError):
                    array[0] = 0


class TestGenerateRayleigh:
    def test_deterministic_for_fixed_seed(self):
        a = generate_rayleigh(3, 2, 1e-3, 1e-3, 1234)
        b = generate_rayleigh(3, 2, 1e-3, 1e-3, 1234)
        assert a == b
        assert np.all(a.gains >= 0)

    def test_minimal_dimensions(self):
        ch = generate_rayleigh(1, 1, 1e-3, 1e-3, 5)
        assert ch.gains.shape == (1, 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_rayleigh(0, 2, 1e-3, 1e-3, 1)
        with pytest.raises(ValueError):
            generate_rayleigh(2, 2, -1e-3, 1e-3, 1)

    def test_unit_scale_second_moment(self):
        # E[h^2] = 2 sigma^2 for a Rayleigh amplitude; Monte Carlo at 1e6
        # draws has a standard error of 0.002, so 0.01 is a 5-sigma band.
        ch = generate_rayleigh(1000, 1000, 1e-3, 1e-3, 99)
        assert np.mean(ch.gains ** 2) == pytest.approx(2.0, abs=0.01)


class TestSerialization:
    def test_fixture_round_trip(self, paper_channel, tmp_path):
        path = tmp_path / "ch.json"
        save_instance(paper_channel, path)
        assert load_instance(path) == paper_channel

    def test_shipped_fixture_matches_worked_example(self, paper_channel):
        assert load_instance(fixture_path("channel_3x2.json")) == paper_channel

    def test_small_buffer_fixture_loads(self):
        gw = load_instance(fixture_path("gateways_small_buffer.json"))
        assert isinstance(gw, GatewayState)
        assert gw.num_gws == 8
        assert gw.queue_rates[2] == 1.669

    def test_gateway_round_trip(self, tmp_path):
        gw = generate_gateways(5, 3, per_gw_power_cap=0.25, total_power_cap=2.0)
        path = tmp_path / "gw.json"
        save_instance(gw, path)
        assert load_instance(path) == gw

    def test_dimension_mismatch_is_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"kind": "channel", "K": 3, "N": 2, "P_mW": 1.0, "N0_mW": 1.0,
               "H": [[1.0, 2.0], [3.0, 4.0]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match="H"):
            load_instance(path)

    def test_missing_field_is_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "gateways", "N": 2, "Q": [1, 2]}))
        with pytest.raises(InstanceFormatError, match="'G'"):
            load_instance(path)

    @pytest.mark.parametrize("kind, key, value", [
        ("channel", "P_mW", "1"),
        ("channel", "N0_mW", None),
        ("channel", "K", True),
        ("channel", "H", "[[1.0]]"),
        ("gateways", "Pmax_mW", "5"),
        ("gateways", "Ptotal_max_mW", [1]),
        ("gateways", "N", 1.0),
    ])
    def test_wrong_json_type_is_named(self, tmp_path, capsys, kind, key, value):
        doc = ({"kind": "channel", "K": 1, "N": 1, "H": [[1.0]], "P_mW": 1.0,
                "N0_mW": 1.0} if kind == "channel" else
               {"kind": "gateways", "N": 1, "Q": [1.0], "G": [1.0], "N0_mW": 1.0})
        doc[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError, match=f"field {key!r}: expected"):
            load_instance(path)
        command = ["stage1", "optimize", "--algo", "es"] if kind == "channel" \
            else ["stage2", "min-total"]
        assert main(command + ["--instance", str(path)]) == 2
        assert f"field {key!r}" in capsys.readouterr().err

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(InstanceFormatError):
            load_instance(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        with pytest.raises(InstanceFormatError, match="kind"):
            load_instance(path)

    @settings(max_examples=100, deadline=None)
    @given(
        gains=st.lists(
            st.floats(0.0, 1e6, allow_nan=False, width=64), min_size=4, max_size=4
        ),
        p=st.floats(1e-12, 1e3, allow_nan=False),
        n0=st.floats(1e-12, 1e3, allow_nan=False),
    )
    def test_round_trip_is_exact(self, gains, p, n0, tmp_path_factory):
        ch = ChannelMatrix(2, 2, np.array(gains).reshape(2, 2), p, n0)
        path = tmp_path_factory.mktemp("rt") / "x.json"
        save_instance(ch, path)
        assert load_instance(path) == ch
