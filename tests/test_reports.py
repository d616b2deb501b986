import json

import numpy as np

from eblab.reports import (
    ExperimentReport,
    ExperimentSpec,
    format_value,
)


def test_format_value_variants():
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(np.float64(0.1)) == "0.10000000000000001"
    assert format_value(1.0) == "1"
    assert format_value(True) == "1"
    assert format_value(np.bool_(False)) == "0"
    assert format_value(np.int64(3)) == "3"
    assert format_value(7) == "7"
    assert format_value("label") == "label"


def test_spec_echo_omits_thread_count():
    spec = ExperimentSpec(name="demo", params={"a": 1}, seed=4)
    echoed = spec.to_json_dict()
    assert "threads" not in echoed
    assert echoed == {"name": "demo", "params": {"a": 1}, "seed": 4}


def _tiny_report():
    spec = ExperimentSpec(name="demo")
    rows = [{"x": 1, "y": 0.5}, {"x": 2, "y": 0.25}]
    return ExperimentReport(spec=spec, columns=["x", "y"], rows=rows, summary={"best": 0.25})


def test_csv_text_layout():
    text = _tiny_report().csv_text()
    assert text == "x,y\n1,0.5\n2,0.25\n"
    assert "\r" not in text


def test_write_outputs_both_files(tmp_path):
    report = _tiny_report()
    report.write(tmp_path / "run.csv")  # .csv suffix is normalized away
    csv_bytes = (tmp_path / "run.csv").read_bytes()
    json_bytes = (tmp_path / "run.json").read_bytes()
    assert csv_bytes == b"x,y\n1,0.5\n2,0.25\n"
    assert json_bytes.endswith(b"\n")
    parsed = json.loads(json_bytes)
    assert parsed["row_count"] == 2
    assert parsed["columns"] == ["x", "y"]
    assert parsed["spec"]["name"] == "demo"
    # keys are emitted sorted so reruns are byte-comparable
    assert json_bytes == json.dumps(parsed, indent=2, sort_keys=True).encode() + b"\n"


def test_write_keeps_any_other_suffix_in_the_stem(tmp_path):
    report = _tiny_report()
    written = report.write(tmp_path / "run.v2")
    assert written == (tmp_path / "run.v2.csv", tmp_path / "run.v2.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.v2.csv", "run.v2.json"]
    assert report.write(tmp_path / "run.json") == (tmp_path / "run.csv", tmp_path / "run.json")
