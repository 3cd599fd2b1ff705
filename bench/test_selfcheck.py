"""Each benchmark check rejects a corrupted copy of a real result.

Run with ``python3 -m pytest bench``; the small workloads run once per
module (about 10 s, most of it writing and certifying LeNet-5).
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_package()
import selfcheck  # noqa: E402
import workloads  # noqa: E402

workloads.bind_package(sys.modules["unrectify"])


@pytest.fixture(scope="module")
def runs():
    return selfcheck.run_small(run.WORKDIR)


def test_small_workloads_pass_every_check(runs):
    for name, (*_, tally) in runs.items():
        assert tally.attempted > 0, name
        assert not tally.problems, (name, tally.problems)


def test_only_certify_keeps_failed_operations(runs):
    assert {name for name, (*_, tally) in runs.items() if tally.failed} == {"certify"}


@pytest.mark.parametrize("case", selfcheck.CORRUPTIONS, ids=lambda c: c.__name__)
def test_check_rejects_corrupted_result(runs, case):
    assert case(runs)
