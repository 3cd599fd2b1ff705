import numpy as np
import pytest

from unrectify import build_demo_network, build_series_stack, save_network, svd_spectral_norm
from unrectify.cli import main
from unrectify.experiments import GAIN_HEADER, LEVEL_HEADER, REGIONS_HEADER, STATS_HEADER


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    save_network(build_demo_network(), path)
    return str(path)


def test_validate_ok(demo_file, capsys):
    assert main(["validate", demo_file]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "12 nodes" in out


def test_validate_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    assert main(["validate", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_levels_table(demo_file, capsys):
    assert main(["levels", demo_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "node,role,level,label"
    row_a = next(line for line in out if line.endswith(",a"))
    assert row_a.split(",")[2] == "4"
    assert out[-1] == "max level: 6"


def test_eval_identity_echoes_input(tmp_path, capsys):
    from unrectify import identity_dag, series, Identity

    path = tmp_path / "id.json"
    save_network(series(identity_dag(3), Identity(3)), path)
    assert main(["eval", str(path), "--input", "1,2.5,-3"]) == 0
    assert capsys.readouterr().out.strip() == "1,2.5,-3"


def test_eval_bad_input_vector(demo_file, capsys):
    assert main(["eval", demo_file, "--input", "a,b,c"]) == 2


def test_certify_exit_codes(tmp_path, capsys):
    rng = np.random.default_rng(0)
    w = rng.standard_normal((4, 4))
    stable = [w * (0.5 / svd_spectral_norm(w))]
    unstable = [w * (3.0 / svd_spectral_norm(w))]
    p1 = tmp_path / "stable.json"
    p2 = tmp_path / "unstable.json"
    save_network(build_series_stack(stable), p1)
    save_network(build_series_stack(unstable), p2)
    assert main(["certify", str(p1)]) == 0
    assert "certified stable" in capsys.readouterr().out
    assert main(["certify", str(p2)]) == 1
    assert main(["certify", str(tmp_path / "missing.json")]) == 2


def test_rescale_writes_certified_network(tmp_path, capsys):
    rng = np.random.default_rng(1)
    w = rng.standard_normal((4, 4))
    net = build_series_stack([w * (3.0 / svd_spectral_norm(w))])
    src = tmp_path / "net.json"
    dst = tmp_path / "scaled.json"
    save_network(net, src)
    assert main(["rescale", str(src), "--out", str(dst), "--frobenius"]) == 0
    assert main(["certify", str(dst)]) == 0


def test_regions_2d_command(tmp_path, capsys):
    assert main(["regions-2d", "--grid", "101", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "relu,4" in out
    assert "max2,2" in out
    assert "maxlu2,3" in out
    assert "fusion,8,16" in out
    csv = (tmp_path / "regions_2d.csv").read_text().splitlines()
    assert csv[0] == REGIONS_HEADER


def test_fusion_stack_command_smoke(tmp_path, capsys):
    rc = main(
        ["fusion-stack", "--dims", "4", "--layers", "2", "--samples", "100",
         "--seed", "3", "--out", str(tmp_path)]
    )
    assert rc == 0
    csv = (tmp_path / "fusion_stats.csv").read_text().splitlines()
    assert csv[0] == STATS_HEADER
    assert len(csv) == 1 + 2 * 3


def test_stability_gain_command_smoke(tmp_path, capsys):
    rc = main(
        ["stability-gain", "--dims", "4", "--layers", "2", "--samples", "60",
         "--seed", "5", "--out", str(tmp_path), "--scaled"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "rescaled" in out
    assert (tmp_path / "gain_unscaled.csv").read_text().splitlines()[0] == GAIN_HEADER
    assert (tmp_path / "levels_rescaled.csv").read_text().splitlines()[0] == LEVEL_HEADER


def test_fusion_stack_two_samples(tmp_path):
    from unrectify.experiments import ExperimentConfig, run_fusion_stack

    cfg = ExperimentConfig(
        experiment="fusion_stack", dims=3, layer_count=1, sample_count=2,
        seed=0, output_dir=str(tmp_path),
    )
    result = run_fusion_stack(cfg)
    for stats in result.stats.values():
        assert stats.max_points_per_region <= 2
        assert stats.region_count in (1, 2)


def test_lenet_partition_command_smoke(tmp_path, capsys):
    rc = main(
        ["lenet-partition", "--synthetic", "--subset", "20", "--seed", "1",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    csv = (tmp_path / "lenet_stats.csv").read_text().splitlines()
    assert csv[0] == STATS_HEADER
    assert len(csv) == 5
    assert "(synthetic images)" in capsys.readouterr().out


def test_lenet_partition_command_reads_idx_files(tmp_path, capsys):
    from conftest import write_idx_pair

    rng = np.random.default_rng(2)
    images = rng.integers(0, 256, size=(40, 28, 28), dtype=np.uint8)
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    write_idx_pair(data_dir, images, rng.integers(0, 10, size=40))
    rc = main(
        ["lenet-partition", "--mnist-dir", str(data_dir), "--subset", "25",
         "--seed", "1", "--out", str(tmp_path / "out")]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "(synthetic images)" not in out
    assert (tmp_path / "out" / "lenet_stats.csv").exists()


def test_lenet_partition_command_corrupt_idx(tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "train-images-idx3-ubyte").write_bytes(b"\x00\x00\x08\x03")
    (data_dir / "train-labels-idx1-ubyte").write_bytes(b"\x00\x00\x08\x01")
    rc = main(["lenet-partition", "--mnist-dir", str(data_dir), "--out", str(tmp_path)])
    assert rc == 2
    assert "offset" in capsys.readouterr().err


def test_validate_names_a_malformed_node_entry(tmp_path, capsys):
    path = tmp_path / "bad_node.json"
    path.write_text(
        '{"input_dim": 2, "nodes": [{"id": 0, "role": "input"}, 5], "arcs": []}'
    )
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "nodes[1]" in err and "Traceback" not in err
