"""JSON schemas: round trips and pointed validation errors."""

import json

import pytest

from repro.analysis.request import CampaignRequest, resolve_campaign
from repro.faults.universe import UniverseSpec, standard_universe
from repro.server.schemas import (
    SchemaError,
    compare_from_dict,
    report_to_dict,
    request_from_dict,
    request_to_dict,
    spec_from_dict,
    spec_to_dict,
)


class TestRequestRoundTrip:
    def test_minimal(self):
        request = request_from_dict({"test": "march-c", "n": 64})
        assert request == CampaignRequest(test="march-c", n=64)

    def test_full(self):
        body = {
            "test": "prt3", "n": 32, "m": 4, "engine": "batched",
            "workers": 2, "pure": True,
            "poly": "1+z+z^4",
            "universe": {"generator": "single_cell",
                         "kwargs": {"n": 32, "m": 4}},
        }
        request = request_from_dict(body)
        assert request.universe == UniverseSpec.call("single_cell", n=32, m=4)
        assert request_from_dict(request_to_dict(request)) == request

    def test_null_optionals_are_defaults(self):
        request = request_from_dict({"test": "mats", "n": 8,
                                     "universe": None, "poly": None})
        assert request == CampaignRequest(test="mats", n=8)

    def test_to_dict_is_json_serializable(self):
        spec = standard_universe(16).spec
        request = CampaignRequest(test="march-c", n=16, universe=spec)
        text = json.dumps(request_to_dict(request))
        assert request_from_dict(json.loads(text)) == request


class TestRequestValidation:
    @pytest.mark.parametrize("body,field", [
        ({"n": 8}, "test"),
        ({"test": "mats"}, "n"),
        ({"test": "mats", "n": "8"}, "n"),
        ({"test": "mats", "n": True}, "n"),
        ({"test": 3, "n": 8}, "test"),
        ({"test": "mats", "n": 8, "workers": 1.5}, "workers"),
        ({"test": "mats", "n": 8, "pure": "yes"}, "pure"),
        ({"test": "mats", "n": 8, "universe": "standard"}, "universe"),
    ])
    def test_type_errors_name_the_field(self, body, field):
        with pytest.raises(SchemaError) as excinfo:
            request_from_dict(body)
        assert excinfo.value.field == field

    def test_unknown_fields_rejected(self):
        with pytest.raises(SchemaError, match="unknown field"):
            request_from_dict({"test": "mats", "n": 8, "speed": "max"})

    def test_not_a_dict(self):
        with pytest.raises(SchemaError, match="expected dict"):
            request_from_dict(["mats", 8])


class TestSpecs:
    def test_nested_union_round_trip(self):
        spec = standard_universe(24, m=2).spec
        assert spec.generator == "union"
        clone = spec_from_dict(spec_to_dict(spec))
        assert clone == spec
        assert repr(clone) == repr(spec)  # same cache-key contribution

    def test_kwargs_lists_become_tuples(self):
        spec = spec_from_dict({"generator": "single_cell",
                               "kwargs": {"n": 8, "classes": ["SAF", "TF"]}})
        assert dict(spec.kwargs)["classes"] == ("SAF", "TF")
        resolved = resolve_campaign(
            CampaignRequest(test="mats", n=8, universe=spec))
        assert resolved.build_universe() is not None

    def test_spec_errors_name_the_path(self):
        with pytest.raises(SchemaError) as excinfo:
            request_from_dict({"test": "mats", "n": 8,
                               "universe": {"kwargs": {}}})
        assert excinfo.value.field == "universe.generator"
        with pytest.raises(SchemaError) as excinfo:
            spec_from_dict({"generator": "union",
                            "parts": [{"bogus": 1}]})
        assert excinfo.value.field == "universe.parts[0]"


class TestCompareBodies:
    def test_requests_form(self):
        requests = compare_from_dict({"requests": [
            {"test": "mats", "n": 8}, {"test": "march-c", "n": 8}]})
        assert [r.test for r in requests] == ["mats", "march-c"]

    def test_tests_shorthand_shares_options(self):
        requests = compare_from_dict({"tests": ["prt3", "march-c"],
                                      "n": 28, "engine": "batched"})
        assert all(r.n == 28 and r.engine == "batched" for r in requests)

    @pytest.mark.parametrize("body", [
        {},
        {"requests": []},
        {"tests": []},
        {"requests": [{"test": "mats", "n": 8}], "tests": ["mats"]},
        {"requests": [{"test": "mats", "n": 8}], "n": 8},
    ])
    def test_malformed_bodies(self, body):
        with pytest.raises(SchemaError):
            compare_from_dict(body)


class TestReportSerialization:
    def test_report_shape(self):
        from repro.analysis.request import run_request

        report = run_request(CampaignRequest(test="march-c", n=12),
                             cache=False)
        data = report_to_dict(report)
        assert data["test_name"] == "march-c"
        assert data["overall"] == report.overall
        assert set(data["classes"]) == set(report.classes)
        for name, row in data["classes"].items():
            assert row["detected"] <= row["total"]
            assert row["coverage"] == report.coverage_of(name)
        json.dumps(data)  # fully JSON-serializable
