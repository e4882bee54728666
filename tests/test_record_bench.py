import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_record_bench_writes_the_trajectory_schema(tmp_path):
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "record_bench.py"),
         "--out", str(out), "--size", "tiny", "--seconds", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(data) == {"machine", "seed", "seconds", "size", "workloads"}
    assert data["size"] == "tiny"
    assert data["machine"]["cpu_count"] >= 1 and data["machine"]["python"]
    assert sorted(data["workloads"]) == sorted(w["name"] for w in spec["workloads"])
    for name, entry in data["workloads"].items():
        assert entry["correct"], name
        assert set(entry["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
        for metric in entry["end_to_end"].values():
            assert metric["median"] > 0 and metric["samples"] and metric["unit"]
        assert set(entry["per_layer"]) == {m["name"] for m in spec["per_layer"]}
        trace = entry["trace"]
        assert "unattributed" in trace["spans"]
        self_sum = sum(span["self_s"] for span in trace["spans"].values())
        assert abs(self_sum - trace["wall_s"]) <= 1e-9 * max(trace["wall_s"], 1.0)
        for span in trace["spans"].values():
            assert set(span) == {"calls", "self_s", "total_s"}
        # null marks a layer the traced run never entered, and only that
        for metric, value in entry["per_layer"].items():
            layer = metric.split(".")[0].removesuffix("_s")
            entered = any(s.startswith(layer + ".") for s in trace["spans"])
            whole_run = layer in ("trace", "unattributed")
            assert (value is None) == (not whole_run and not entered), metric
    # the content scan enumerates its words through the traced words layer
    assert data["workloads"]["exotic-scan"]["per_layer"]["words.enumerated"] > 0
