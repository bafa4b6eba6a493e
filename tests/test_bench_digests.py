"""The benchmark's first-pass output digests at seed 1 stay fixed.

``bench/run.py`` hashes ``serialize(item, run(item))`` over the first
pass of each workload and reports the SHA-256.  A speed-up must leave
the exact outputs alone, so this test rebuilds each workload at seed 1
from ``bench/workloads.py`` (read with ``runpy``, so nothing is written
under ``bench/``), runs one pass and compares the digest with the one
recorded here.  ``pipeline-batch`` writes its documents under the test's
temporary directory.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "bench" / "workloads.py"

SEED_1_DIGESTS = {
    "exact-sweep": "3c91e960e8fe40a4656755af46656864198cda7621be18ed4231f624b937ac52",
    "pipeline-batch": "ad4baf59282d12e3cd0e610fb77b3bec1e232bcbff370785058b60a40ca8699f",
    "metric-verify": "e7c22baa6aed578cbf93cd157c8b2fd8f84099de73826a29964c6a26fb81d6e5",
}


@pytest.mark.parametrize("name", sorted(SEED_1_DIGESTS))
def test_seed_1_digest(name, tmp_path):
    workload = runpy.run_path(str(WORKLOADS))["WORKLOADS"][name](1, str(ROOT), str(tmp_path))
    digest = hashlib.sha256()
    for item in workload.items:
        digest.update(workload.serialize(item, workload.run(item)).encode())
    assert digest.hexdigest() == SEED_1_DIGESTS[name]
