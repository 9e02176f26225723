import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SELFTEST = PERFBENCH / "selftest.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def test_benchmark_selftest_passes():
    # the traced benchmark wraps named package functions; a refactor that
    # drops one of them fails here, not only in a benchmark run
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("name", ["scalar-curve", "mimo-certify", "fano-cli"])
@pytest.mark.parametrize("seed", [1, 2])
def test_workload_operations_pass_their_checks(name, seed, tmp_path):
    # every benchmark operation must pass its own check and repeat with the
    # same digest, or the benchmark counts it as failed
    workload = _workloads()[name](seed, tmp_path)
    for variant in workload.variants:
        digests = []
        for _ in range(2):
            result = workload.run(variant)
            assert workload.check(variant, result) == [], variant
            digests.append(workload.digest(result))
        assert digests[0] == digests[1], variant
