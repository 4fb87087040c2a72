"""Self-test of the benchmark's checks: clean outputs pass, corrupted ones fail.

    python3 perfbench/selftest.py

Every workload runs one pass over its population twice: once as is, where no
op may fail, and once with each op's output perturbed by one part in 10^3
before it is checked, where every op must be counted as failed.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3
SHIFT = 1e-3


def _shift(a):
    return np.asarray(a, dtype=float) * (1.0 + SHIFT) + SHIFT


def _corrupt_ball_bytes(data: bytes) -> bytes:
    """Shift the first printed output value of the first row."""
    lines = data.decode("utf-8").split("\n")
    cols = lines[1].split(",")
    d = (len(cols) - 1) // 2
    cols[d] = repr(float(_shift(float(cols[d]))))
    lines[1] = ",".join(cols)
    return "\n".join(lines).encode("utf-8")


def corrupt(name, out):
    if name == "ball":
        code, data, err = out
        return code, _corrupt_ball_bytes(data), err
    if name == "scaling":
        return [dataclasses.replace(r, delta_rho_plus=_shift(r.delta_rho_plus)) for r in out]
    if name == "oracle":
        sampled, cones, results, split, routes = out
        results = [dataclasses.replace(r, delta_rho_plus=_shift(r.delta_rho_plus)) for r in results]
        return sampled, cones, results, split, routes
    res, bfd, applied, quotients = out
    return res, bfd, [_shift(a) for a in applied], quotients


class Corrupted:
    """The workload with every op output corrupted before its check."""

    def __init__(self, wl):
        self.wl, self.size = wl, wl.size

    def op(self, i, tr):
        return corrupt(self.wl.name, self.wl.op(i, tr))

    def check(self, i, out):
        return self.wl.check(i, out)


class CorruptedOutputsFail(unittest.TestCase):
    def test_every_workload(self):
        with tempfile.TemporaryDirectory() as tmp:
            for name in harness.ORDER:
                with self.subTest(workload=name):
                    cls = WORKLOADS[name]
                    wl = harness.build(cls, SEED, tmp)
                    wl.prepare()
                    clean = harness.op_loop(wl, wl.size)
                    self.assertEqual(clean["failed"], 0, clean["failure_reasons"])

                    wl = harness.build(cls, SEED, tmp)
                    wl.prepare()
                    bad = harness.op_loop(Corrupted(wl), wl.size)
                    self.assertEqual(bad["failed"], bad["attempted"], bad["failure_reasons"])


if __name__ == "__main__":
    unittest.main()
