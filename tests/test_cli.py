"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _parse_fault, build_parser, main
from repro.faults import standard_universe
from repro.server.cache import reset_default_cache


class TestFaultSpecParsing:
    def test_saf(self):
        fault = _parse_fault("SAF:5:1")
        assert fault.fault_class == "SAF"
        assert fault.cells() == (5,)
        assert fault.stuck_value == 1

    def test_tf(self):
        fault = _parse_fault("TF:3:up")
        assert fault.fault_class == "TF"
        assert fault.rising

    def test_tf_down(self):
        assert not _parse_fault("TF:3:down").rising

    def test_sof(self):
        assert _parse_fault("SOF:7").fault_class == "SOF"

    def test_drf(self):
        fault = _parse_fault("DRF:2:100")
        assert fault.fault_class == "DRF"
        assert fault.retention == 100

    def test_case_insensitive(self):
        assert _parse_fault("saf:0:0").fault_class == "SAF"

    def test_unknown_class(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_fault("XYZ:1")

    def test_missing_args(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_fault("SAF:1")


class TestSelftestCommand:
    def test_healthy_memory_exit_zero(self, capsys):
        code = main(["selftest", "--n", "28"])
        out = capsys.readouterr().out
        assert code == 0
        assert "MEMORY OK" in out

    def test_injected_fault_detected(self, capsys):
        code = main(["selftest", "--n", "28", "--inject", "SAF:5:1"])
        out = capsys.readouterr().out
        assert code == 0  # detection of an injected fault = success
        assert "FAULT DETECTED" in out

    def test_pure_mode(self, capsys):
        code = main(["selftest", "--n", "28", "--pure"])
        assert code == 0
        assert "pure" in capsys.readouterr().out

    def test_wom(self, capsys):
        code = main(["selftest", "--n", "255", "--m", "4",
                     "--poly", "1+z+z^4"])
        assert code == 0

    def test_extended_schedule(self, capsys):
        code = main(["selftest", "--n", "28", "--schedule", "extended"])
        assert code == 0
        assert "5 iterations" in capsys.readouterr().out

    def test_pause(self, capsys):
        code = main(["selftest", "--n", "14", "--pause", "256",
                     "--inject", "DRF:3:100"])
        assert code == 0
        assert "FAULT DETECTED" in capsys.readouterr().out


class TestMarchCommand:
    def test_healthy(self, capsys):
        code = main(["march", "--notation", "{c(w0); u(r0,w1); d(r1,w0)}",
                     "--n", "16"])
        assert code == 0
        assert "5n" in capsys.readouterr().out

    def test_detects_fault(self, capsys):
        code = main(["march", "--notation",
                     "{c(w0); u(r0,w1); d(r1,w0,r0)}",
                     "--n", "16", "--inject", "TF:3:down"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAULT DETECTED" in out

    def test_escaped_fault_exit_one(self, capsys):
        # MATS+ cannot detect a TF-down: the CLI flags the escape.
        code = main(["march", "--notation", "{c(w0); u(r0,w1); d(r1,w0)}",
                     "--n", "16", "--inject", "TF:3:down"])
        assert code == 1


class TestCoverageCommand:
    def test_prt3(self, capsys):
        code = main(["coverage", "--n", "14", "--test", "prt3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall" in out
        assert "SAF" in out

    def test_march_baseline(self, capsys):
        code = main(["coverage", "--n", "14", "--test", "march-c"])
        assert code == 0

    def test_engine_selection_identical_tables(self, monkeypatch, capsys):
        import repro.analysis.coverage as coverage_module

        lane_runs = []
        original = coverage_module.run_campaign_batched

        def spying(*args, **kwargs):
            lane_runs.append(original(*args, **kwargs))
            return lane_runs[-1]

        monkeypatch.setattr(coverage_module, "run_campaign_batched", spying)
        outputs = {}
        for engine in (None, "interpreted", "compiled", "batched"):
            # The engine is not part of the cache key: start each run on
            # an empty default cache so every engine really computes.
            reset_default_cache()
            flags = [] if engine is None else ["--engine", engine]
            code = main(["coverage", "--test", "march-c", "--n", "14",
                         *flags])
            assert code == 0
            outputs[engine] = capsys.readouterr().out
        # The default and batched runs took the lane engine with no
        # scalar fallback; the two oracle engines did not.
        assert [r.faults_batched for r in lane_runs] == \
            [len(standard_universe(14))] * 2
        assert outputs["interpreted"] == outputs["compiled"]
        assert outputs["interpreted"] == outputs["batched"]
        assert outputs["interpreted"] == outputs[None]

    @pytest.mark.parametrize("scheme,cycles", [
        ("dual-schedule", "86 cycles"), ("quad-schedule", "47 cycles"),
    ])
    def test_multi_port_schedule_schemes(self, capsys, scheme, cycles):
        code = main(["coverage", "--n", "12", "--scheme", scheme])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall" in out
        assert cycles in out  # 2n + O(1) / n + O(1) per verifying pass

    def test_schedule_scheme_odd_n_rejected(self):
        with pytest.raises(SystemExit, match="even --n"):
            main(["coverage", "--n", "13", "--scheme", "quad-schedule"])

    def test_json_output_matches_server_schema(self, capsys):
        code = main(["coverage", "--n", "14", "--test", "march-c",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"request", "report", "cached",
                                "cache_key", "elapsed_s"}
        assert payload["request"]["test"] == "march-c"
        assert payload["report"]["test_name"] == "march-c"
        assert 0.0 < payload["report"]["overall"] <= 1.0

    def test_bad_engine_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["coverage", "--n", "14", "--engine", "warp"])
        assert excinfo.value.code == 2  # argparse choices

    def test_bad_polynomial_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["coverage", "--n", "14", "--m", "4",
                  "--poly", "garbage"])
        assert excinfo.value.code == 2  # resolver validation
        assert "bad field polynomial" in capsys.readouterr().err


class TestCompareOverhead:
    def test_compare(self, capsys):
        code = main(["compare", "--n", "14"])
        out = capsys.readouterr().out
        assert code == 0
        assert "March B" in out
        assert "PRT-3" in out

    def test_compare_json(self, capsys):
        code = main(["compare", "--n", "8", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["name"] for row in payload["rows"]] == [
            "PRT-3", "PRT-5", "MATS+", "March C-", "March B"]
        assert len(payload["requests"]) == 5

    def test_overhead(self, capsys):
        code = main(["overhead", "--m", "4", "--ports", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "crossover" in out


class TestVerifyCommand:
    def test_clean_stream_exits_zero(self, capsys):
        code = main(["verify", "--n", "28", "--test", "march-c"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict : OK" in out

    def test_multiport_scheme(self, capsys):
        code = main(["verify", "--n", "16", "--scheme", "dual-schedule"])
        assert code == 0
        assert "verdict : OK" in capsys.readouterr().out

    def test_json_matches_server_schema(self, capsys):
        code = main(["verify", "--n", "28", "--test", "march-c", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["errors"] == 0
        assert payload["stream"]["records"] > 0
        assert payload["request"]["test"] == "march-c"

    def test_no_dataflow_suppresses_warnings(self, capsys):
        main(["verify", "--n", "16", "--test", "march-c",
              "--no-dataflow", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["warnings"] == 0

    def test_unknown_test_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--n", "16", "--test", "nope"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])
