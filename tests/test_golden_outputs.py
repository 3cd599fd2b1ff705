"""Byte-for-byte checks of the experiment CSVs at small fixed-seed sizes.

The files under ``data/golden/`` hold what the four runners below write.  A
change that moves a digit regenerates them with
``PYTHONPATH=src python tests/test_golden_outputs.py`` and names every moved
digit in ``CHANGES.md``.
"""
from pathlib import Path

import pytest

from unrectify.experiments import (
    ExperimentConfig,
    run_fusion_stack,
    run_lenet_partition,
    run_regions_2d,
    run_stability_gain,
)

GOLDEN = Path(__file__).parent / "data" / "golden"
CSVS = (
    "fusion_stats.csv",
    "levels_unscaled.csv",
    "levels_rescaled.csv",
    "gain_unscaled.csv",
    "gain_rescaled.csv",
    "lenet_stats.csv",
    "regions_2d.csv",
)


def run_all(out: Path) -> None:
    fusion = dict(dims=6, layer_count=3, sample_count=200, output_dir=str(out))
    run_fusion_stack(ExperimentConfig("fusion_stack", **fusion))
    run_stability_gain(ExperimentConfig("stability_gain", **fusion))
    run_lenet_partition(
        ExperimentConfig("lenet_partition", output_dir=str(out)), synthetic=True, subset=24
    )
    run_regions_2d(ExperimentConfig("regions_2d", grid_n=101, output_dir=str(out)))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("golden")
    run_all(out)
    return out


def test_runners_write_exactly_the_golden_files(outputs):
    assert sorted(p.name for p in outputs.iterdir()) == sorted(CSVS)


@pytest.mark.parametrize("name", CSVS)
def test_csv_bytes_match_golden(outputs, name):
    assert (outputs / name).read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    run_all(GOLDEN)
