"""One pass of every benchmark workload on the current program.

``bench/run.py`` drives each workload of ``bench/workloads.py`` through
``prepare``, ``setup`` and ``run_pass``. One pass of each at a fixed seed
shows that the entry points those call still exist and accept what the
benchmark passes them, and that no operation fails.
"""
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))

import workloads  # noqa: E402

SEED = 901


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_one_pass_runs_without_failures(name):
    workload = workloads.WORKLOADS[name]
    result = workload.run_pass(workload.setup(SEED, **workload.prepare(SEED)))
    assert result.attempted > 0
    assert (result.failed, result.failures) == (0, [])
    assert result.spans > 0
    assert math.isfinite(result.mean_loss)
