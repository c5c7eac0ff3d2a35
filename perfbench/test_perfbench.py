"""Self-check of the benchmark: BENCHMARK.json's schema, the result line of
a quick run of every workload, and the refusal to run without the package.

    python3 -m unittest perfbench/test_perfbench.py

Run from the root of a checkout; it takes about a minute.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class BenchmarkSpec(unittest.TestCase):
    def test_keys_and_limits(self):
        s = spec()
        self.assertEqual(
            set(s), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual((ROOT / "BENCHMARK.json").stat().st_size, 64 * 1024)
        self.assertTrue(1 <= len(s["paths"]) <= 16)
        for path in s["paths"]:
            self.assertRegex(path, PATH)
            self.assertFalse(path.startswith("/") or ".." in path.split("/"))
        self.assertTrue(len(s["command"]) <= 32 and all(len(c) <= 200 for c in s["command"]))
        self.assertIsInstance(s["run_seconds"], int)
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
        self.assertTrue(1 <= len(s["end_to_end"]) <= 16)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in s["end_to_end"]))
        self.assertTrue(1 <= len(s["per_layer"]) <= 128)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in s[key]]
        for name in names:
            self.assertRegex(name, NAME)
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)))

    def test_oracle_agrees_with_reference_suite(self):
        text = (ROOT / "tests" / "golden" / "verify.txt").read_text()
        self.assertEqual(oracle.cross_check_reference(text), [])

    def test_oracle_kernel_enumeration(self):
        # w*C(w+1,2) + C(w+1,2) + C(w+3,4) for w = 10 and w = 20 twists
        self.assertEqual(len(oracle.rank4_kernels(-6, 3)), 1320)
        self.assertEqual(len(oracle.rank4_kernels(-16, 3)), 13265)
        row84 = dict(zip(range(7), [0, 0, 0, 0, 8, 32, 80]))
        self.assertEqual(oracle.kernel_fits(row84, (0, 6)), ["2*E0(-2)"])


class QuickRuns(unittest.TestCase):
    def check_result(self, proc, key):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = {m["name"]: m["unit"] for m in spec()[key]}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], units[name])
            self.assertIsInstance(metric["value"], (int, float))
            self.assertNotIsInstance(metric["value"], bool)
        return result

    def test_every_workload_untraced(self):
        # cli is not in BENCHMARK.json (see README.md) but must still run
        for name in sorted({w["name"] for w in spec()["workloads"]} | {"cli"}):
            with self.subTest(workload=name):
                proc = run("--workload", name, "--seed", "3", "--seconds", "1",
                           "--trace", "0", "--quick")
                result = self.check_result(proc, "end_to_end")
                for name in ("ops_per_s", "latency_p50_ms", "setup_s"):
                    self.assertGreater(result["metrics"][name]["value"], 0)

    def test_traced(self):
        proc = run("--workload", "resolve", "--seed", "3", "--seconds", "1", "--trace", "1",
                   "--quick")
        metrics = self.check_result(proc, "per_layer")["metrics"]
        self.assertEqual(metrics["verify.checks"]["value"], 40)  # one traced `ql verify`
        self.assertIn(metrics["scale.classify.b-16_3.capped"]["value"], (0, 1))
        self.assertGreater(metrics["cli.main.self_ms"]["value"], 0)

    def test_traced_run_refuses_a_missing_layer(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for name in ("perfbench", "src", "tests"):
                shutil.copytree(ROOT / name, Path(tmp) / name,
                                ignore=shutil.ignore_patterns("__pycache__", "out"))
            # a later change renames a traced function everywhere
            for source in (Path(tmp) / "src" / "quadliaison").glob("*.py"):
                source.write_text(source.read_text().replace("match_acm_kernel", "match_kernel"))
            proc = run("--workload", "resolve", "--seed", "1", "--trace", "1", "--quick", cwd=tmp)
            self.assertEqual(proc.returncode, 2, proc.stderr[-2000:])
            self.assertIn("classify.match_acm_kernel", proc.stderr)
            self.assertNotIn('"correct"', proc.stdout)

    def test_refuses_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__", "out"))
            proc = run("--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0",
                       cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
