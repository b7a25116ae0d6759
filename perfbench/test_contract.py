"""BENCHMARK.json names exactly the metrics the runner reports."""

import json
import os

import run

SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "BENCHMARK.json")


def test_benchmark_json_matches_runner():
    with open(SPEC, encoding="ascii") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_span_names_pool_io_and_leave_cli_to_the_runner():
    assert run.span_name("io", "write_flux_csv") == "io.write"
    assert run.span_name("io", "read_polyline_csv") == "io.read"
    assert run.span_name("cli", "main") is None
    assert run.span_name("fem", "solve_neumann") == "fem.solve_neumann"
