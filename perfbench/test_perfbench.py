"""The benchmark's own tests: tiny-scale runs of every workload.

Run from the root of the repository:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each test builds the benchmark (once; later builds are no-ops) and runs it
with `--tiny`, which shrinks every generated input.
"""

import json
import os
import shutil
import subprocess
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

WORKLOADS = {"build-pipeline", "serve-read", "layered-churn"}
# Every workload reports every metric: the end-to-end ones untraced, the
# per-layer ones traced.
E2E = {
    "setup_s", "peak_rss_mb", "ingest_interactions_per_s", "arena_bytes_per_interaction",
    "query_qps", "query_frame_p50_us", "query_frame_p99_us", "topk_p50_ms", "vhll_rel_error",
}
LAYERS = {
    "temporal_graph.parse_s", "engine.exact_build_s", "engine.vhll_build_s",
    "engine.vhll_ns_per_interaction", "frozen.freeze_exact_s", "frozen.freeze_vhll_s",
    "frozen.exact_arena_bytes", "frozen.approx_arena_bytes", "persist.publish_s",
    "arena.load_s", "kernel.approx_query_ns", "kernel.exact_query_ns",
    "par.batch_speedup_w1", "par.batch_speedup_w16", "par.batch_speedup_w256",
    "oracle.seed_dedup_ratio", "serve.encode_us", "serve.decode_us",
    "serve.answer_frame_us", "serve.wire_overhead_us", "maximize.greedy_ms",
    "delta.append_ns", "delta.persist_pending_ms", "delta.refresh_ms", "delta.query_ns",
    "delta.query_vs_frozen_ratio", "delta.compact_ms", "delta.save_layered_ms",
    "delta.survivor_ratio",
}


def run(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        ["python3", script] + list(args), cwd=cwd, capture_output=True, text=True,
        timeout=600,
    )


def result(workload, trace, *extra):
    out = run("--workload", workload, "--seed", "7", "--seconds", "0",
              "--trace", str(trace), "--tiny", *extra)
    if out.returncode != 0:
        raise AssertionError(out.stderr[-2000:])
    return json.loads(out.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def test_spec_names_every_metric(self):
        self.assertEqual(E2E, {m["name"] for m in SPEC["end_to_end"]})
        self.assertEqual(LAYERS, {m["name"] for m in SPEC["per_layer"]})
        self.assertEqual(WORKLOADS, {w["name"] for w in SPEC["workloads"]})

    def test_every_metric_prints_with_its_unit(self):
        for workload in sorted(WORKLOADS):
            for trace, names in ((0, E2E), (1, LAYERS)):
                with self.subTest(workload=workload, trace=trace):
                    r = result(workload, trace)
                    self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(r["correct"], True)
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(r["failed"], 0)
                    self.assertEqual(set(r["metrics"]), names)
                    for name, m in r["metrics"].items():
                        self.assertEqual(m["unit"], UNITS[name], name)
                        self.assertIsInstance(m["value"], (int, float), name)
                        self.assertGreater(m["value"], 0, name)

    def test_traced_run_writes_the_layer_report(self):
        result("build-pipeline", 1)
        path = os.path.join(HERE, "out", "build-pipeline-seed7-trace1", "trace-report.json")
        with open(path) as f:
            report = json.load(f)
        layers = {l["metric"]: l for l in report["per_layer"]}
        self.assertEqual(set(layers), LAYERS)
        self.assertTrue(all(l["feeds"] for l in layers.values()))
        # Layers the workload drives are its own; the idle delta layers come
        # from a tiny layered-churn run, and the report says so.
        self.assertEqual(layers["engine.vhll_build_s"]["measured_by"], "build-pipeline")
        self.assertEqual(layers["serve.answer_frame_us"]["measured_by"], "build-pipeline")
        self.assertEqual(layers["delta.refresh_ms"]["measured_by"], "layered-churn (tiny)")
        self.assertEqual({o["metric"] for o in report["tracing_overhead"]}, E2E)
        spans = {s["span"]: s for s in report["span_layers"]}
        self.assertGreater(spans["engine.vhll_build"]["samples"], 0)
        self.assertLessEqual(spans["pipeline"]["self_s"], spans["pipeline"]["total_s"])

    def test_a_flipped_reference_bit_fails_the_run(self):
        for workload in sorted(WORKLOADS):
            with self.subTest(workload=workload):
                self.assertIs(result(workload, 0, "--plant-flip")["correct"], False)

    def test_same_seed_same_inputs(self):
        def input_hash(seed):
            out = run("--workload", "serve-read", "--seed", str(seed), "--seconds", "0",
                      "--trace", "0", "--tiny")
            line = next(l for l in out.stdout.splitlines() if l.startswith("fingerprint "))
            return json.loads(line[len("fingerprint "):])["input_hash"]
        self.assertEqual(input_hash(3), input_hash(3))
        self.assertNotEqual(input_hash(3), input_hash(4))

    def test_bare_directory_fails_without_a_result(self):
        bare = os.path.join(HERE, "out", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "target", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = run("--workload", "serve-read", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=bare,
                  script=os.path.join(bare, "perfbench", "run.py"))
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
