#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py      # from the repo root

Builds the benchmark through run.py (into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench), then checks that:

  - metric names are well formed and match BENCHMARK.json;
  - every BENCHMARK.json metric is printed, with its unit, by every
    workload in the mode that reports it;
  - the traced and untraced runs of one seed report the same digest;
  - the output records git describe and nproc;
  - the policy decorator forwards every hook (perfbench_selftest);
  - the build guard refuses unoptimised and sanitizer builds.
"""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
REPO = BENCH.parent
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
run_py = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_py)


def load_benchmark():
    with open(REPO / "BENCHMARK.json") as f:
        return json.load(f)


_outputs = {}


def run_bench(workload, trace, seed=4):
    """stdout of one short run (cached per workload/mode)."""
    key = (workload, trace, seed)
    if key not in _outputs:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
            cwd=REPO, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise AssertionError(f"{workload} trace={trace} exited "
                                 f"{proc.returncode}:\n{proc.stderr[-2000:]}")
        _outputs[key] = proc.stdout
    return _outputs[key]


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def digest_of(stdout):
    m = re.search(r" digest ([0-9a-f]{16}) ", stdout)
    return m.group(1) if m else None


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        bench = load_benchmark()
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME_RE)
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", [m["name"] for m in bench["end_to_end"]])

    def test_every_metric_is_printed_with_its_unit(self):
        bench = load_benchmark()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in bench[key]}
            for wl in (w["name"] for w in bench["workloads"]):
                with self.subTest(workload=wl, trace=trace):
                    res = result_of(run_bench(wl, trace))
                    self.assertEqual(set(res), run_py.RESULT_KEYS)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, v in res["metrics"].items():
                        self.assertRegex(name, NAME_RE)
                        self.assertIsInstance(v["value"], (int, float))


class Outputs(unittest.TestCase):
    def test_traced_digest_matches_untraced(self):
        for wl in ("batch-rd", "batch-hd", "svc-ladder"):
            with self.subTest(workload=wl):
                plain = digest_of(run_bench(wl, 0))
                self.assertIsNotNone(plain)
                self.assertEqual(plain, digest_of(run_bench(wl, 1)))

    def test_records_git_describe_and_nproc(self):
        out = run_bench("svc-ladder", 0)
        meta = [l for l in out.splitlines() if l.startswith("# meta ")]
        self.assertEqual(len(meta), 1)
        fields = json.loads(meta[0][len("# meta "):])
        self.assertTrue(fields["git_describe"])
        self.assertGreaterEqual(fields["nproc"], 1)


class Instrumentation(unittest.TestCase):
    def test_decorator_forwards_every_hook(self):
        bdir = run_py.build_dir()
        self.assertTrue(run_py.build(bdir))
        self.assertTrue(run_py.cmake(["--build", str(bdir), "--target",
                                      "perfbench_selftest"], 840))
        proc = subprocess.run([str(bdir / "perfbench_selftest")],
                              capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout)


GUARD_MAIN = """
#include <cstdio>
#include "BuildGuard.hh"
int main() {
    const char *why = perfbench::timingRefusal();
    std::printf("%s\\n", why ? why : "ok");
    return 0;
}
"""


class BuildGuard(unittest.TestCase):
    def guard_says(self, flags):
        cxx = shutil.which("c++") or shutil.which("g++")
        if cxx is None:
            self.skipTest("no C++ compiler")
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "guard.cc"
            src.write_text(GUARD_MAIN)
            exe = Path(tmp) / "guard"
            build = subprocess.run(
                [cxx, "-std=c++20", *flags, "-I", str(BENCH / "src"),
                 str(src), "-o", str(exe)], capture_output=True, text=True)
            if build.returncode != 0:
                return None
            return subprocess.run([str(exe)], capture_output=True,
                                  text=True).stdout.strip()

    def test_refuses_unoptimised_build(self):
        self.assertIn("unoptimised", self.guard_says(["-O0"]))

    def test_accepts_optimised_build(self):
        self.assertEqual(self.guard_says(["-O2"]), "ok")

    def test_refuses_sanitizer_build(self):
        said = self.guard_says(["-O2", "-fsanitize=address"])
        if said is None:
            self.skipTest("address sanitizer unavailable")
        self.assertIn("sanitizer", said)

    def test_main_checks_the_guard_before_measuring(self):
        main = (BENCH / "src" / "main.cc").read_text()
        self.assertLess(main.index("timingRefusal()"),
                        main.index("runBatch(opt)"))


if __name__ == "__main__":
    unittest.main()
