"""Tests of the benchmark itself: generators, oracle and command line.

Run from the repository root with either of

    python3 -m pytest bench/tests
    python3 -m unittest discover -s bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from equicoh import image_basis_xray, parse_graph, parse_xray, validate_graph, validate_xray  # noqa: E402
import equicoh.cli  # noqa: E402

import run  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_documents_and_queries(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                a = workloads.build(name, 7, "work")
                b = workloads.build(name, 7, "work")
                self.assertEqual(a.files, b.files)
                self.assertEqual([q.argv for q in a.queries], [q.argv for q in b.queries])
                c = workloads.build(name, 8, "work")
                self.assertNotEqual(
                    (a.files, [q.qid for q in a.queries]), (c.files, [q.qid for q in c.queries]))

    def test_chain_graphs_and_cube_xrays_validate_clean(self):
        rng = workloads.random.Random(3)
        for genus in (0, 1, 2):
            for n in (1, 5, 20, 80):
                doc = workloads.chain_graph(rng, genus, n, edges=n < 20)
                self.assertEqual(validate_graph(parse_graph(doc)), [], (genus, n))
        for rank, genus in workloads.CUBES:
            self.assertEqual(validate_xray(parse_xray(workloads.cube_xray(rng, rank, genus))), [])
        self.assertEqual(validate_xray(parse_xray(workloads.cp3_xray((2, -1)))), [])

    def test_planted_violations_are_the_only_ones(self):
        rng = workloads.random.Random(5)
        for _ in range(40):
            doc = workloads.chain_graph(rng, rng.randrange(3), rng.randint(1, 6), edges=True)
            codes = workloads._mutate_graph(rng, doc)
            self.assertEqual([v.code for v in validate_graph(parse_graph(doc))], codes)

    def test_cube_r2_g1_reproduces_x2_dimensions(self):
        numerator = oracle.poly_mul([1, 2, 2, 2, 1], [1, 0, 1])
        self.assertEqual(oracle.cube_series(2, 1), (numerator, 2))
        xray = parse_xray(workloads.cube_xray(workloads.random.Random(1), 2, 1))
        for k in range(9):
            self.assertEqual(len(image_basis_xray(xray, k)), oracle.series_coefficient(numerator, 2, k), k)


class OracleTests(unittest.TestCase):
    """A correct answer passes its check and every corruption of it is flagged."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.mkdtemp()
        cls.plans = {}
        for name in ("graph_basis", "xray_basis", "membership", "validate_batch"):
            plan = workloads.build(name, 1, cls.tmp)
            plan.write()
            cls.plans[name] = plan

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def answer(self, workload: str, qid: str):
        query = next(q for q in self.plans[workload].queries if q.qid == qid)
        outcome = run.run_query(equicoh.cli, query.argv)
        self.assertIsNone(query.check(outcome.stdout, outcome.status), qid)
        return query, outcome.stdout, outcome.status

    def test_graph_basis_corruptions(self):
        query, out, status = self.answer("graph_basis", "basis/n16/k2/json")
        basis = json.loads(out)
        comps = basis[0]["components"]
        point = next(cid for cid in comps if cid.startswith("p") and comps[cid])
        changed = json.loads(out)
        changed[0]["components"][point]["2"] = "12345"
        for bad in (json.dumps(basis[1:]), json.dumps(basis[::-1]), json.dumps(changed)):
            self.assertIsNotNone(query.check(bad, status))
        self.assertIsNotNone(query.check(out, 1))
        query, out, status = self.answer("graph_basis", "basis/n24/k4/text")
        header, *rows = out.splitlines()
        self.assertIsNotNone(query.check("\n".join([header] + rows[:-1]) + "\n", status))

    def test_xray_basis_corruptions(self):
        query, out, status = self.answer("xray_basis", "xray-basis/cube_r2_g1/k4")
        basis = json.loads(out)
        self.assertIsNotNone(query.check(json.dumps(basis + basis[:1]), status))
        last = basis[-1]["components"]
        cid = next(c for c in sorted(last) if last[c].get("4", {}).get("c0"))
        last[cid]["4"]["c0"][0][1] = "99"
        self.assertIsNotNone(query.check(json.dumps(basis), status))

    def test_membership_corruptions(self):
        for qid in ("check/n16/0", "check/n16/1", "xray-check/cp3/0", "xray-check/cp3/1"):
            query, out, status = self.answer("membership", qid)
            member = out == "member\n"
            self.assertEqual(member, qid.endswith("/0"))
            self.assertIsNotNone(query.check(out, 1 - status))
            flipped = "degree0-constancy: x\n" if member else "member\n"
            self.assertIsNotNone(query.check(flipped, status))

    def test_batch_corruptions(self):
        query, out, status = self.answer("validate_batch", "validate/dir0/json")
        report = json.loads(out)
        entry = next(e for e in report["results"] if e["status"] == 1)
        entry["status"] = 0
        self.assertIsNotNone(query.check(json.dumps(report), status))
        report = json.loads(out)
        report["results"].pop()
        self.assertIsNotNone(query.check(json.dumps(report), status))
        self.assertIsNotNone(query.check(out, 0))


class CommandLineTests(unittest.TestCase):
    def _run(self, *argv, cwd=ROOT):
        return subprocess.run([sys.executable, "bench/run.py", *argv], cwd=cwd,
                              capture_output=True, text=True, timeout=170)

    def test_help_documents_workloads_metrics_and_trace(self):
        result = self._run("--help")
        self.assertEqual(result.returncode, 0)
        spec = _spec()
        for item in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
            self.assertIn(item["name"], result.stdout)
        self.assertIn("--trace 1", result.stdout)

    def test_traced_run_prints_the_contract_line(self):
        result = self._run("--workload", "validate_batch", "--seed", "3", "--trace", "1")
        self.assertEqual(result.returncode, 0, result.stderr)
        line = json.loads(result.stdout.splitlines()[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"])
        self.assertEqual(list(line["metrics"]), [m["name"] for m in _spec()["per_layer"]])
        self.assertEqual(line["metrics"]["linalg.nullspace.calls"]["value"], 0)

    def test_compare_refuses_records_from_different_machines(self):
        record = {"environment": {"python": "3.11.7", "implementation": "CPython", "platform": "p",
                                  "machine": "x86_64", "nproc": 2, "workload": "membership", "trace": 0},
                  "metrics": {"query_p50_ms": {"value": 1.0, "unit": "ms"}}}
        with tempfile.TemporaryDirectory() as base, tempfile.TemporaryDirectory() as new:
            Path(base, "a.json").write_text(json.dumps(record))
            record["environment"]["nproc"] = 4
            Path(new, "b.json").write_text(json.dumps(record))
            self.assertEqual(run.compare(base, new, _spec()), 2)

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
            result = self._run("--workload", "membership", "--seconds", "1", cwd=tmp)
        self.assertNotEqual(result.returncode, 0)
        self.assertNotIn('"correct"', result.stdout)


if __name__ == "__main__":
    unittest.main()
