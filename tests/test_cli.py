import contextlib
import copy
import csv
import io
import json
import random
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from convtraffic import cli, presets, verify
from convtraffic.cli import load_hw, load_network, main
from convtraffic.errors import ShapeError
from convtraffic.traffic import Phase, StrategySet


@pytest.fixture
def alexnet_doc(bench_workloads) -> dict:
    """A copy of the AlexNet network file that benchmarks/workloads.py states."""
    return copy.deepcopy(bench_workloads.ALEXNET)


TOY2 = {
    "name": "toy2",
    "batch": 1,
    "layers": [
        {"conv": {"n": 2, "m": 3, "k": 3, "stride": 1, "pad": 1},
         "input_h": 8, "input_w": 8, "act": True, "pool": {"p": 2, "stride": 2}},
        {"conv": {"n": 3, "m": 2, "k": 3, "stride": 1, "pad": 1}, "act": True},
    ],
}


class TestParseConfigs:
    def test_alexnet_preset(self):
        net, hw = load_network("alexnet"), load_hw("paper")
        assert len(net.layers) == 5
        assert net.batch == 128
        assert net.groups == (1, 2, 1, 2, 2)
        assert hw.num_cu == 16

    def test_network_round_trip(self, tmp_path, alexnet_doc):
        for doc, preset in ((alexnet_doc, presets.alexnet()), (TOY2, presets.toy2())):
            path = tmp_path / "net.json"
            path.write_text(json.dumps(doc))
            assert load_network(str(path)) == preset

    def test_missing_key_names_path(self, tmp_path, alexnet_doc):
        del alexnet_doc["layers"][0]["conv"]["k"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(alexnet_doc))
        with pytest.raises(ShapeError, match=r"layers\[0\]\.conv\.k"):
            load_network(str(path))

    def test_negative_stride_rejected(self, tmp_path, alexnet_doc):
        alexnet_doc["layers"][0]["conv"]["stride"] = -1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(alexnet_doc))
        with pytest.raises(ShapeError, match="stride"):
            load_network(str(path))

    def test_incompatible_layers_name_index(self, tmp_path, alexnet_doc):
        alexnet_doc["layers"][1]["conv"]["n"] = 47
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(alexnet_doc))
        with pytest.raises(ShapeError, match="layer 2"):
            load_network(str(path))


class TestAnalyze:
    def test_full_network_total(self, capsys):
        assert main(["analyze", "--net", "alexnet", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"]["normalized_bw"] == pytest.approx(1.94, rel=0.003)

    def test_layer2_s1_row(self, capsys):
        assert main(["analyze", "--net", "alexnet", "--strategies", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        layer2 = payload["layers"][1]
        assert layer2["normalized_bw"] == pytest.approx(2085, rel=0.03)

    def test_empty_network(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"name": "empty", "batch": 1, "layers": []}))
        assert main(["analyze", "--net", str(path)]) == 2
        assert capsys.readouterr().err == "error: key '.layers' must list at least one layer\n"

    def test_batch_override_matches_roofline(self, capsys):
        flags = ["--net", "alexnet", "--strategies", "1-4", "--batch", "1", "--format", "json"]
        assert main(["analyze", *flags]) == 0
        total = json.loads(capsys.readouterr().out)["total"]["normalized_bw"]
        assert main(["roofline", *flags]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        ours = next(p for p in points if p["work"] == "this model")
        assert ours["normalized_bw"] == total
        assert total == pytest.approx(10.1425, rel=1e-5)  # not the batch-128 3.18984

    def test_dp_skips_first_layer(self, capsys):
        assert main(["analyze", "--net", "alexnet", "--phase", "dp", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["layer"] for entry in payload["layers"]] == [2, 3, 4, 5]

    def test_usage_error_exit_2(self, capsys):
        assert main(["analyze", "--net", "alexnet", "--strategies", "7"]) == 2

    @pytest.mark.parametrize("text", ["9-x", "3-1"])
    def test_malformed_strategies_rejected(self, capsys, text):
        assert main(["analyze", "--net", "alexnet", "--strategies", text]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: strategies")


def _toy2_with(**first_layer):
    doc = copy.deepcopy(TOY2)
    doc["layers"][0].update(first_layer)
    return doc


def _corrupt_first_gradient(monkeypatch):
    """A negative control for gradcheck: the analytic gradient of the first
    weight of layer 1 comes out 1.0 too large."""
    real = cli.analytic_kernel_gradients

    def corrupted(*args):
        grads = real(*args)
        grads[0][0, 0, 0, 0] += 1.0
        return grads

    monkeypatch.setattr(cli, "analytic_kernel_gradients", corrupted)


class TestFrontDoor:
    """Malformed configuration files exit 2 with exactly one error line."""

    @pytest.mark.parametrize(
        "doc, needle",
        [([_toy2_with()], "must be an object"), (_toy2_with(groups="x"), "layers[0].groups"),
         (_toy2_with(act="no"), "layers[0].act")],
        ids=["top-level-list", "groups-text", "act-text"],
    )
    def test_bad_network_document(self, tmp_path, capsys, doc, needle):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--net", str(path)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and needle in err[0]
        assert captured.out == ""

    @pytest.mark.parametrize("command", [["simulate", "--phase", "dp", "--layer", "2"],
                                         ["gradcheck"]])
    def test_pad_above_k_minus_1_has_no_transpose(self, tmp_path, capsys, command):
        doc = copy.deepcopy(TOY2)
        doc["layers"][1]["conv"]["pad"] = 3
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        assert main([*command, "--net", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: pad 3 exceeds k-1=2, transpose undefined"]

    @pytest.mark.parametrize("command", ["analyze", "simulate", "gradcheck", "roofline"])
    def test_empty_network_rejected(self, tmp_path, capsys, command):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"name": "empty", "batch": 1, "layers": []}))
        assert main([command, "--net", str(path)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and ".layers" in err[0]
        assert captured.out == ""

    @pytest.mark.parametrize(
        "key, value", [("num_cu", "16"), ("clock_hz", float("nan"))], ids=["num-cu-text", "clock-nan"]
    )
    def test_bad_hardware_document(self, tmp_path, capsys, key, value):
        doc = asdict(presets.paper_hw())
        doc[key] = value
        path = tmp_path / "hw.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--net", "toy2", "--hw", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: hardware key '{key}'")

    @pytest.mark.parametrize("flag", ["--net", "--hw"])
    def test_non_utf8_file(self, tmp_path, capsys, flag):
        path = tmp_path / "binary.json"
        path.write_bytes(b'{"name": "\xff\xfe"}')
        args = {"--net": "toy2", "--hw": "paper"}
        args[flag] = str(path)
        assert main(["analyze", "--net", args["--net"], "--hw", args["--hw"]]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "not UTF-8" in err[0]

    @pytest.mark.parametrize("argv", [["gradcheck", "--hw", "paper"],
                                      ["gradcheck", "--strategies", "none"],
                                      ["gradcheck", "--batch", "9"],
                                      ["analyze", "--seed", "7"],
                                      ["roofline", "--seed", "7"]])
    def test_flag_the_command_does_not_read(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["simulate", "gradcheck"])
    def test_negative_seed(self, capsys, command):
        assert main([command, "--net", "toy2", "--seed", "-1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --seed")

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
    def test_bad_tolerance(self, capsys, tolerance):
        assert main(["compare", "table1", "--tolerance", tolerance]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: tolerance")
        assert captured.out == ""

    @pytest.mark.parametrize("argv, needle", [
        (["roofline", "--net", "alexnet", "--dram", ","], "--dram needs"),
        (["roofline", "--net", "alexnet", "--dram="], "--dram needs"),
        (["gradcheck", "--net", "toy2", "--epsilon", "nan"], "epsilon must be"),
        (["gradcheck", "--net", "toy2", "--epsilon", "inf"], "epsilon must be"),
    ])
    def test_value_that_leaves_nothing_to_compute(self, capsys, argv, needle):
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {needle}")
        assert captured.out == ""

    @pytest.mark.parametrize("command, kind, mutate, message", [
        ("analyze", "hw", lambda doc: [doc], "a hardware document must be an object, got list"),
        ("analyze", "hw", lambda doc: {**doc, "relu_pool_units": 2},
         "unknown hardware keys: relu_pool_units"),
        ("analyze", "hw", lambda doc: {k: v for k, v in doc.items() if k != "max_k"},
         "missing hardware keys: max_k"),
        ("analyze", "net", lambda doc: {**doc, "layers": "conv"},
         "key '.layers' must be a list, got 'conv'"),
        ("analyze", "net", lambda doc: {**doc, "layers": [doc["layers"][0], 7]},
         "'layers[1]' must be an object, got 7"),
        ("analyze", "net", lambda doc: {**doc, "layers": [
            {k: v for k, v in doc["layers"][0].items() if not k.startswith("input_")},
            doc["layers"][1]]}, "missing required key 'layers[0].input_h' on first layer"),
        ("analyze", "net", lambda doc: _toy2_with(pool={"p": 0, "stride": 1}),
         "pooling window must be positive, got 0"),
        ("analyze", "net", lambda doc: _toy2_with(groups=0), "group count must be positive, got 0"),
        ("analyze", "net", lambda doc: _toy2_with(input_h=0),
         "input dims must be positive, got 0x8"),
        ("analyze", "net", lambda doc: {**doc, "batch": 0}, "batch must be positive, got 0"),
        ("gradcheck", "net", lambda doc: {"name": "wide", "batch": 1, "layers": [
            {"conv": {"n": 16, "m": 64, "k": 5, "stride": 1, "pad": 2},
             "input_h": 64, "input_w": 64}]}, "gradcheck needs a toy-scale network"),
        ("analyze", "net", lambda doc: {**doc, "name": {"x": [1, 2]}},
         "key '.name' must be a string, got {'x': [1, 2]}"),
    ], ids=["hw-list", "hw-unknown-key", "hw-missing-key", "layers-text", "layer-not-object",
            "first-layer-no-dims", "pool-p-0", "groups-0", "input-h-0", "batch-0",
            "gradcheck-not-toy", "name-not-string"])
    def test_invalid_document(self, tmp_path, capsys, command, kind, mutate, message):
        doc = copy.deepcopy(TOY2) if kind == "net" else asdict(presets.paper_hw())
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(mutate(doc)))
        flags = ["--net", str(path)] if kind == "net" else ["--net", "toy2", "--hw", str(path)]
        assert main([command, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {message}"]
        assert captured.out == ""

    def test_hardware_document_round_trip(self, tmp_path):
        path = tmp_path / "hw.json"
        path.write_text(json.dumps(asdict(presets.paper_hw())))
        assert load_hw(str(path)) == presets.paper_hw()


class TestSimulate:
    def test_layer2_checks_pass(self, capsys):
        code = main([
            "simulate", "--net", "alexnet", "--layer", "2", "--batch", "1",
            "--check-against-model", "--check-against-reference", "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["failures"] == []
        assert payload["layers"][0]["model_match"] is True
        assert payload["layers"][0]["reference_error"] <= 1e-5

    def test_explicit_dp_first_layer_rejected(self, capsys):
        assert main(["simulate", "--net", "alexnet", "--phase", "dp", "--layer", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: delta propagation is undefined for the first super layer"
        ]
        assert captured.out == ""

    @pytest.mark.parametrize("layer", ["0", "6"])
    def test_dp_layer_out_of_range(self, capsys, layer):
        assert main(["simulate", "--net", "alexnet", "--phase", "dp", "--layer", layer]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: layer must be in 1..5, got {layer}"]
        assert captured.out == ""

    def test_layer_index_out_of_range(self, capsys):
        assert main(["simulate", "--net", "alexnet", "--layer", "9"]) == 2
        assert "1..5" in capsys.readouterr().err

    @pytest.mark.parametrize("batch", ["0", "-1"])
    def test_batch_below_one_rejected(self, capsys, batch):
        assert main(["simulate", "--net", "alexnet", "--layer", "2", "--batch", batch]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --batch")

    def test_toy_identity_layer(self, tmp_path, capsys):
        doc = {
            "name": "echo", "batch": 1,
            "layers": [{
                "conv": {"n": 1, "m": 1, "k": 1, "stride": 1, "pad": 0},
                "act": False, "input_h": 4, "input_w": 4,
            }],
        }
        path = tmp_path / "echo.json"
        path.write_text(json.dumps(doc))
        code = main([
            "simulate", "--net", str(path), "--check-against-model",
            "--check-against-reference", "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["failures"] == []


class TestCompare:
    @pytest.mark.parametrize("preset", ["table1", "cascade", "fig6", "table3-fp",
                                        "table3-dp", "table3-ops", "fig14",
                                        "reconfig", "efficiency", "peak", "abstract"])
    def test_presets_pass(self, preset, capsys):
        assert main(["compare", preset, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(row["pass"] for row in payload["rows"])

    def test_ku_preset_flags_inconsistent_total(self, capsys):
        # the embedded reference KU total is arithmetically inconsistent with
        # its own per-layer cells; everything else must pass
        assert main(["compare", "table3-ku", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        failing = [row["metric"] for row in payload["rows"] if not row["pass"]]
        assert failing == ["total normalized BW, ku (MB/GFlop)"]

    def test_all_fails_on_exactly_the_ku_total(self, capsys):
        assert main(["compare", "all", "--format", "json"]) == 1
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["metric"] for r in rows if not r["pass"]] == ["total normalized BW, ku (MB/GFlop)"]
        derived = [r["computed_value"] for r in rows if r["note"].startswith("abstract")]
        assert [round(v, 4) for v in derived] == [0.5499, 5.4802]

    def test_zero_tolerance_fails_on_rounding(self, capsys):
        assert main(["compare", "table3-fp", "--tolerance", "0"]) == 1

    def test_unknown_preset_lists_options(self, capsys):
        assert main(["compare", "nope"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown comparison preset 'nope'; available: abstract, cascade, "
            "efficiency, fig14, fig6, peak, reconfig, table1, table3-dp, table3-fp, "
            "table3-ku, table3-ops, all"
        ]

    def test_rows_carry_provenance_notes(self, capsys):
        assert main(["compare", "table3-fp", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(row["note"] for row in payload["rows"])


class TestGradcheck:
    def test_toy_network_passes(self, capsys):
        assert main(["gradcheck", "--seed", "7", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(l["max_rel_err"] <= 1e-3 for l in payload["layers"])
        assert payload["failures"] == []

    def test_pooled_last_layer_passes(self, tmp_path, capsys):
        doc = copy.deepcopy(TOY2)
        doc["layers"][1]["pool"] = {"p": 2, "stride": 2}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(doc))
        assert main(["gradcheck", "--net", str(path), "--seed", "7", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [l["pass"] for l in payload["layers"]] == [True, True]

    def test_probe_across_a_rectifier_kink_passes(self, tmp_path, capsys):
        # at seed 0 the +1e-3 probe of layer-1 weight (1, 1, 1, 1) flips one
        # layer-1 rectifier mask element; that weight is probed again at 1e-4
        path = tmp_path / "net.json"
        path.write_text(json.dumps(_toy2_with(input_h=185)))
        assert main(["gradcheck", "--net", str(path), "--seed", "0", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["epsilon"] == 1e-3 and payload["failures"] == []

    def test_corrupted_gradient_fails_with_location(self, capsys, monkeypatch):
        _corrupt_first_gradient(monkeypatch)
        assert main(["gradcheck", "--seed", "7", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"]
        assert "layer 1" in payload["failures"][0]
        assert payload["layers"][0]["worst_weight"] == [0, 0, 0, 0]

    def test_grouped_network_rejected(self, capsys, monkeypatch):
        # rejected from the specs alone, before any tensor is drawn
        draws = []
        real = np.random.default_rng

        class Spy:
            def __init__(self, seed):
                self.rng = real(seed)

            def standard_normal(self, shape):
                draws.append(shape)
                return self.rng.standard_normal(shape)

        monkeypatch.setattr(np.random, "default_rng", Spy)
        assert main(["gradcheck", "--net", "alexnet"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: gradcheck runs ungrouped networks only"]
        assert draws == []
        # the spy sees the draws of a network that passes both checks
        assert main(["gradcheck", "--seed", "7"]) == 0
        assert len(draws) == 1 + len(presets.toy2().layers)


class TestRoofline:
    def test_reported_points(self, capsys):
        assert main(["roofline", "--net", "alexnet", "--dram", "19.2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        ours = next(p for p in payload["points"] if p["work"] == "this model")
        assert ours["attainable_flops"] == pytest.approx(9.90e12, rel=0.02)

    def test_prior_work_ordering(self, capsys):
        assert main(["roofline", "--net", "alexnet", "--dram", "19.2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_work = {p["work"]: p["attainable_flops"] for p in payload["points"]}
        assert by_work["this model"] > by_work["memory-centric design"]
        assert by_work["memory-centric design"] > by_work["mobile coprocessor"]
        assert by_work["mobile coprocessor"] > by_work["dataflow processor"]
        assert by_work["dataflow processor"] > by_work["FPGA 2015 design"]

    def test_zero_bandwidth_point(self, capsys):
        assert main(["roofline", "--net", "alexnet", "--dram", "0", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(p["attainable_flops"] == 0.0 for p in payload["points"])

    @pytest.mark.parametrize("dram", ["abc", "nan", "inf", "-inf", "-5", "19.2,x"])
    def test_bad_dram_point_rejected(self, capsys, dram):
        assert main(["roofline", "--net", "alexnet", f"--dram={dram}"]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --dram")
        assert captured.out == ""


def _failure_channel(capsys, argv):
    """Run a command that fails a check as CSV: exit 1, stdout pure CSV, and
    every failure on stderr as one FAILED line. Returns those lines."""
    assert main([*argv, "--format", "csv"]) == 1
    captured = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)
    err = captured.err.splitlines()
    assert err and all(line.startswith("FAILED: ") for line in err)
    return err


class TestFailureChannel:
    def test_compare(self, capsys):
        err = _failure_channel(capsys, ["compare", "table3-ku"])
        assert len(err) == 1 and "total normalized BW, ku (MB/GFlop)" in err[0]

    def test_gradcheck(self, capsys, monkeypatch):
        _corrupt_first_gradient(monkeypatch)
        err = _failure_channel(capsys, ["gradcheck", "--seed", "7"])
        assert len(err) == 1 and err[0].startswith("FAILED: layer 1 weight (0, 0, 0, 0)")

    @staticmethod
    def _input_bytes_one_off(monkeypatch) -> str:
        real = verify.super_traffic
        model = real(1, presets.toy2(), Phase.FP, StrategySet.all_on(), 4).input_bytes

        def one_byte_off(*args):
            report = real(*args)
            return replace(report, input_bytes=report.input_bytes + 1)

        monkeypatch.setattr(verify, "super_traffic", one_byte_off)
        return f"input_bytes: simulator {model} vs model {model + 1}"

    @staticmethod
    def _cycles_one_off(monkeypatch) -> str:
        real = verify.cycle_count
        model = real(presets.toy2().layers[1], presets.paper_hw(), 1)
        monkeypatch.setattr(verify, "cycle_count", lambda *args: real(*args) + 1)
        return f"cycles: simulator {model} vs model {model + 1}"

    @staticmethod
    def _model_check_fails(capsys, message):
        argv = ["simulate", "--net", "toy2", "--layer", "2", "--check-against-model"]
        err = _failure_channel(capsys, argv)
        assert err == [f"FAILED: {message}"]
        assert main([*argv, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == [message]
        assert payload["layers"][0]["model_match"] is False

    def test_simulate(self, capsys, monkeypatch):
        message = f"layer 2: {self._input_bytes_one_off(monkeypatch)}"
        self._model_check_fails(capsys, message)

    def test_simulate_cycles(self, capsys, monkeypatch):
        message = f"layer 2: {self._cycles_one_off(monkeypatch)}"
        self._model_check_fails(capsys, message)

    def test_simulate_bytes_and_cycles_one_line(self, capsys, monkeypatch):
        bytes_off = self._input_bytes_one_off(monkeypatch)
        message = f"layer 2: {bytes_off}; {self._cycles_one_off(monkeypatch)}"
        self._model_check_fails(capsys, message)

    def test_simulate_reference_error(self, capsys, monkeypatch):
        real = verify.reference_phase_result
        monkeypatch.setattr(verify, "reference_phase_result", lambda *args: real(*args) * 1.01)
        argv = ["simulate", "--net", "toy2", "--layer", "2", "--check-against-reference"]
        err = _failure_channel(capsys, argv)
        assert err == ["FAILED: layer 2: max relative error 0.0099 exceeds 1e-05"]

    @pytest.mark.parametrize("batch, nan_image", [(1, 0), (2, 1)])
    def test_simulate_nan_reference_error(self, capsys, monkeypatch, batch, nan_image):
        real = verify.run_super_layer
        calls = []

        def nan_output(*args, **kwargs):
            result = real(*args, **kwargs)
            if len(calls) == nan_image:
                result.outputs[0, 0, 0] = np.nan
            calls.append(1)
            return result

        monkeypatch.setattr(verify, "run_super_layer", nan_output)
        argv = ["simulate", "--net", "toy2", "--layer", "2", "--batch", str(batch),
                "--check-against-reference"]
        err = _failure_channel(capsys, argv)
        assert err == ["FAILED: layer 2: max relative error nan exceeds 1e-05"]
        assert len(calls) == batch


class TestDeterminism:
    def test_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code = main([
                "simulate", "--net", "alexnet", "--layer", "2", "--seed", "42",
                "--check-against-model", "--format", "json", "--out", str(target),
            ])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_analyze_out_file(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            assert main(["analyze", "--net", "alexnet", "--format", "csv",
                         "--out", str(target)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0].startswith("layer,")


# A mutation of a JSON document: (path, op, value). Every step of the path
# but the last must name an entry, an int picking a list entry by position;
# otherwise the mutation does nothing. "set" writes value at the last step (a
# new key where the object has none), "del" removes that entry, "root"
# replaces the whole document.
_LAYER = st.tuples(st.just("layers"), st.integers(0, 5))
_NET_PATHS = st.one_of(
    st.tuples(_LAYER, st.sampled_from(["n", "m", "k", "stride", "pad", "extra"])).map(
        lambda p: (*p[0], "conv", p[1])),
    st.tuples(_LAYER, st.sampled_from(["conv", "input_h", "input_w", "act", "pool", "groups",
                                       "extra"])).map(lambda p: (*p[0], p[1])),
    st.tuples(_LAYER, st.sampled_from(["p", "stride", "extra"])).map(
        lambda p: (*p[0], "pool", p[1])),
    st.sampled_from(["name", "batch", "layers", "extra"]).map(lambda key: (key,)),
    _LAYER,
)
_HW_DOC = asdict(presets.paper_hw())
_HW_PATHS = st.sampled_from([*_HW_DOC, "extra"]).map(lambda key: (key,))
_VALUES = st.one_of(
    st.integers(-1, 12),
    st.integers(13, 300),
    st.sampled_from([0.5, 3.0, float("nan"), float("inf"), True, False, None, "3", "", [], {},
                     [1], {"p": 2}, {"p": 2, "stride": 2}]),
)


def _mutations(paths, sizes):
    return st.lists(st.tuples(paths, st.sampled_from(["set"] * 10 + ["del", "root"]), _VALUES),
                    min_size=sizes[0], max_size=sizes[1])


def _mutated(doc, mutations):
    doc = copy.deepcopy(doc)
    for path, op, value in mutations:
        value = copy.deepcopy(value)  # sampled values are shared objects
        if op == "root":
            doc = value
            continue
        node = doc
        for step in path[:-1]:
            if isinstance(node, list) and node and isinstance(step, int):
                node = node[step % len(node)]
            elif isinstance(node, dict) and step in node:
                node = node[step]
            else:
                break
        else:
            if not isinstance(node, dict):
                continue
            if op == "set":
                node[path[-1]] = value
            else:
                node.pop(path[-1], None)
    return doc


def _argv(command, *named):
    """command with each (flag, valid values, invalid values) left out or
    given a valid value, then, in about one case in three, one invalid value
    or a flag the command does not read, which argparse takes over the
    earlier one."""
    bad = [(flag, v) for flag, _, invalid in named for v in invalid] + [("--bogus", "1")]
    flags = [st.sampled_from([()] + [(flag, v) for v in valid]) for flag, valid, _ in named]
    return st.tuples(*flags, st.sampled_from([()] * (2 * len(bad)) + bad)).map(
        lambda chosen: [command, *(t for flag in chosen for t in flag if t is not None)])


_GARBAGE = ["x", "", "-1", "1.5", "nan"]
_MODEL = (("--phase", ["fp", "dp", "ku"], ["xx"]),
          ("--strategies", ["none", "all", "1-3", "2,4", "1-4"], ["5", "3-1", "1-", ",", "x"]),
          ("--batch", ["1", "2", "3"], ["0", *_GARBAGE]),
          ("--format", ["table", "csv", "json"], ["xml"]))
_SEED = ("--seed", ["0", "7"], _GARBAGE)
_ARGV = st.one_of(
    _argv("simulate", *_MODEL, _SEED, ("--layer", ["1", "2", "3"], ["0", "6", *_GARBAGE]),
          ("--check-against-model", [None], []), ("--check-against-reference", [None], [])),
    _argv("analyze", *_MODEL),
    _argv("roofline", *_MODEL, ("--dram", ["19.2", "1,2", "0"], [",", "1e400", "-3", "inf", "x"])),
    _argv("gradcheck", _SEED, ("--epsilon", ["1e-3", "1e-2"], ["0", "-1", "inf", *_GARBAGE]),
          ("--format", ["table", "json"], [])),
)


class TestFrontDoorFuzz:
    """Any network document, hardware document or flag string gives exit 0,
    1 or 2, and an invalid one exits 2 with exactly one `error:` line. The
    documents are mutations of the TOY2 literal, the AlexNet document of
    benchmarks/workloads.py and random_net output."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @example(source="toy2", net_seed=0, mutations=[(("name",), "set", {"x": [1, 2]})],
             hw_mutations=[], argv=["analyze"])
    @example(source="toy2", net_seed=0, mutations=[(("layers", 0, "conv", "n"), "set", 12),
                                                   (("layers", 0, "input_h"), "set", 300)],
             hw_mutations=[], argv=["gradcheck"])
    @example(source="alexnet", net_seed=0, mutations=[], hw_mutations=[(("max_k",), "set", 5)],
             argv=["simulate", "--phase", "dp", "--layer", "1"])
    @given(source=st.sampled_from(["toy2", "alexnet", "random"]), net_seed=st.integers(0, 47),
           mutations=_mutations(_NET_PATHS, (1, 3)),
           hw_mutations=_mutations(_HW_PATHS, (0, 1)), argv=_ARGV)
    def test_exit_code_and_error_line(self, bench_workloads, tmp_path_factory, source, net_seed,
                                      mutations, hw_mutations, argv):
        # central differences over an ungrouped random net take seconds
        assume(argv[0] != "gradcheck" or source != "random")
        doc = {"toy2": TOY2, "alexnet": bench_workloads.ALEXNET}.get(source)
        if doc is None:
            doc = bench_workloads.random_net(random.Random(net_seed), net_seed)
        folder = tmp_path_factory.mktemp("fuzz")
        net_path, hw_path = folder / "net.json", folder / "hw.json"
        net_path.write_text(json.dumps(_mutated(doc, mutations)))
        hw_path.write_text(json.dumps(_mutated(_HW_DOC, hw_mutations)))
        if source == "alexnet" and "--check-against-reference" in argv:
            argv = [a for a in argv if a != "--check-against-reference"]  # seconds per run
        files = ["--net", str(net_path)] + (["--hw", str(hw_path)] if argv[0] != "gradcheck" else [])
        out, err = io.StringIO(), io.StringIO()
        usage = False
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([*argv, *files])
            except SystemExit as exc:  # argparse's usage errors
                code, usage = exc.code, True
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            if usage:
                assert sum("error:" in line for line in lines) == 1
            else:
                assert len(lines) == 1 and lines[0].startswith("error: ")
        else:
            assert not any(line.startswith("error:") for line in lines)
            assert all(line.startswith("FAILED: ") for line in lines) and (code == 1) == bool(lines)
