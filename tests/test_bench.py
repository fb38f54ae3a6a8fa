import json
import math
from dataclasses import asdict

import pytest

from trisparse import ExperimentRecord, SpeedupSummary, expected_speedup
from trisparse.bench import (
    format_table,
    load_json_report,
    make_payload,
    write_json_report,
)


class TestExpectedSpeedup:
    def test_values(self):
        assert expected_speedup(0.02) == pytest.approx(2500.0)
        assert expected_speedup(1.0) == 1.0
        assert expected_speedup(0.005) == pytest.approx(40000.0)

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.1])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            expected_speedup(p)


class TestExperimentRecord:
    def test_ratio_auto_computed(self):
        rec = ExperimentRecord(graph_id="g", method="doulion",
                               estimate=90.0, exact_t=100)
        assert rec.ratio == pytest.approx(0.9)

    def test_ratio_absent_without_exact(self):
        rec = ExperimentRecord(graph_id="g", method="doulion", estimate=90.0)
        assert rec.ratio is None

    def test_round_trip(self):
        rec = ExperimentRecord(graph_id="g", method="adaptive",
                               parameters={"p0": 0.1}, estimate=42.0,
                               exact_t=40, timings={"load": 0.2, "count": 0.1},
                               seed=7)
        assert ExperimentRecord(**asdict(rec)) == rec

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRecord(graph_id="g", method="magic")


class TestReports:
    def test_payload_round_trips_through_json(self, tmp_path):
        rec = ExperimentRecord(graph_id="g", method="naive", parameters={"r": 10},
                               estimate=5.0, exact_t=5, timings={"count": 0.01},
                               seed=1)
        payload = make_payload("baseline", {"id": "g", "n": 5, "m": 4, "weighted": False},
                               [rec], summary={"r": 10})
        path = tmp_path / "report.json"
        write_json_report(path, payload)
        assert load_json_report(path) == payload
        assert json.loads(json.dumps(payload)) == payload

    def test_schema_version_present(self):
        payload = make_payload("count", {"id": "g"}, [])
        assert payload["schema_version"] == 1

    def test_speedup_summary(self):
        s = SpeedupSummary(xfaster1=100.0, xfaster2=10.0)
        assert asdict(s) == {"xfaster1": 100.0, "xfaster2": 10.0}
        assert s.xfaster2 <= s.xfaster1

    def test_speedup_measure(self):
        assert SpeedupSummary.measure(6.0, 0.5, 2.0) == SpeedupSummary(12.0, 3.0)
        assert SpeedupSummary.measure(6.0, 0.0, 0.0) == SpeedupSummary(math.inf, math.inf)


class TestFormatTable:
    def test_renders_none_as_dash(self):
        out = format_table(["a", "b"], [[1, None]])
        assert "-" in out

    def test_aligned_columns(self):
        out = format_table(["name", "value"], [["x", 1.25], ["longer", 3]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
