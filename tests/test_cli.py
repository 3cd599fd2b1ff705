import json

import numpy as np
import pytest

from unrectify import (
    Affine,
    build_demo_network,
    build_fusion_module,
    build_fusion_stack,
    build_series_stack,
    certify,
    conv2d_affine,
    forward,
    identity_dag,
    rescale_to_stability,
    save_network,
    series,
    svd_spectral_norm,
)
from unrectify.cli import main
from unrectify.experiments import GAIN_HEADER, LEVEL_HEADER, REGIONS_HEADER, STATS_HEADER
from unrectify.netio import dag_to_dict


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


def test_eval_takes_an_input_that_starts_with_a_minus_sign(tmp_path, capsys):
    from unrectify import identity_dag, series, Identity

    path = str(tmp_path / "id.json")
    save_network(series(identity_dag(2), Identity(2)), path)
    for argv in (
        ["eval", path, "--input", "-0.5,1"],
        ["eval", "--input", "-0.5,1", path],
        ["eval", path, "--input=-0.5,1"],
        ["eval", "--input=-0.5,1", path],
    ):
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.strip() == "-0.5,1"


def test_eval_prints_the_bits_of_the_in_memory_lenet5(lenet5_file, capsys):
    dag, path = lenet5_file
    rng = np.random.default_rng(7)
    for x in (rng.standard_normal(784), rng.uniform(0.0, 1.0, 784), -rng.uniform(0.0, 1.0, 784)):
        x[:50] = -0.0
        y, _ = forward(dag, x)
        # the joined form takes a value that starts with a minus sign as well
        assert main(["eval", str(path), "--input=" + ",".join(repr(float(v)) for v in x)]) == 0
        assert capsys.readouterr().out.strip() == ",".join("%.17g" % v for v in y)


def test_eval_bad_input_vector(demo_file, capsys):
    assert main(["eval", demo_file, "--input", "a,b,c"]) == 2


def test_eval_exits_2_when_an_arc_overflows(tmp_path, capsys):
    # run with RuntimeWarning as an error, as the suite is: no warning escapes
    path = tmp_path / "overflow.json"
    save_network(series(identity_dag(1), Affine([[1e200]])), path)
    assert main(["eval", str(path), "--input", "1e200"]) == 2
    assert capsys.readouterr().err == "error: arc 0 produced non-finite values\n"


def test_eval_exits_2_when_an_add_node_overflows(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    big = 1e308 * np.eye(1)
    save_network(build_fusion_stack([(big, None, big, None)], mode="compact"), path)
    assert main(["eval", str(path), "--input", "1"]) == 2
    assert capsys.readouterr().err == "error: node 1 produced non-finite values\n"
    assert main(["eval", str(path), "--input", "0.5"]) == 0
    assert capsys.readouterr().out.strip() == "%.17g" % 1e308


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


def _certify_lines(report):
    """What ``unrectify certify`` prints for ``report``."""
    rows = [
        f"{e.level},{e.sum:.12g},{e.frob_sum:.12g},{report.certified_C[e.level]:.12g}"
        for e in report.level_sums
    ]
    return [
        f"uniform bound d = {report.d:g}",
        "level,sum,frob_sum,certified_C",
        *rows,
        f"stable from level: {report.stable_from}",
        report.verdict,
    ]


def test_certify_reads_the_sparse_lenet5_file(lenet5_file, tmp_path, capsys):
    dag, path = lenet5_file
    report = certify(dag)
    assert main(["certify", str(path)]) == (0 if report.certified else 1)
    assert capsys.readouterr().out.splitlines() == _certify_lines(report)
    # its pool-and-concat levels carry unit arcs only, so no rescale helps
    out = tmp_path / "scaled.json"
    assert main(["rescale", str(path), "--out", str(out)]) == 2
    assert "level 2: unit arc contributions" in capsys.readouterr().err
    assert not out.exists()


def test_rescale_writes_sparse_weights_that_certify_reads_back(tmp_path, capsys):
    rng = np.random.default_rng(6)
    net = build_series_stack(
        [
            conv2d_affine(rng.standard_normal((1, 5, 5)), 0.0, (1, 12, 12), pad=2)[0] * scale
            for scale in (3.0, 0.2, 2.0)
        ]
    )
    src = tmp_path / "net.json"
    dst = tmp_path / "scaled.json"
    save_network(net, src)
    assert main(["rescale", str(src), "--out", str(dst)]) == 0
    written = json.loads(dst.read_text())
    assert all(isinstance(a["elem"]["W"], dict) for a in written["arcs"])
    capsys.readouterr()
    report = certify(rescale_to_stability(net))
    assert report.certified
    assert main(["certify", str(dst)]) == 0
    assert capsys.readouterr().out.splitlines() == _certify_lines(report)


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


def test_stability_gain_rejects_an_empty_pair_budget(tmp_path, capsys):
    rc = main(["stability-gain", "--dims", "4", "--layers", "2", "--samples", "60",
               "--pair-budget", "0", "--out", str(tmp_path)])
    assert rc == 2
    assert "pair_budget must be at least 1, got 0" in capsys.readouterr().err


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


def test_lenet_partition_command_defaults_to_synthetic_images(tmp_path, capsys):
    message = "no dataset directory given; using synthetic standard-normal images"
    with pytest.warns(UserWarning, match=message):
        rc = main(["lenet-partition", "--subset", "20", "--seed", "1", "--out", str(tmp_path)])
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


def test_validate_fails_on_a_label_of_a_missing_node(tmp_path, capsys):
    rng = np.random.default_rng(28)
    data = dag_to_dict(build_fusion_module([rng.standard_normal((2, 2)) for _ in range(2)]))
    data["labels"]["ghost"] = 99
    path = tmp_path / "ghost.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 1
    assert "label 'ghost' names node 99" in capsys.readouterr().out


def _parent_parser():
    """The experiment subcommands as they were parsed before the flags
    stored into ExperimentConfig's fields by name."""
    import argparse

    parser = argparse.ArgumentParser(prog="unrectify")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("fusion-stack")
    p.add_argument("--dims", type=int, default=14)
    p.add_argument("--layers", type=int, default=5)
    p.add_argument("--samples", type=int, default=5000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p = sub.add_parser("stability-gain")
    p.add_argument("--dims", type=int, default=20)
    p.add_argument("--layers", type=int, default=5)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--pair-budget", type=int, default=2_000_000)
    p.add_argument("--scaled", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p = sub.add_parser("lenet-partition")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--mnist-dir")
    group.add_argument("--synthetic", action="store_true")
    p.add_argument("--subset", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p = sub.add_parser("regions-2d")
    p.add_argument("--grid", type=int, default=2001)
    p.add_argument("--out", default="out")
    return parser


def _parent_runner_call(args):
    """The four experiment handlers' bodies up to their runner call, as they
    were: (runner name, config, keyword arguments)."""
    from unrectify.experiments import ExperimentConfig

    if args.command == "fusion-stack":
        cfg = ExperimentConfig(
            experiment="fusion_stack",
            dims=args.dims,
            layer_count=args.layers,
            sample_count=args.samples,
            seed=args.seed,
            output_dir=args.out,
        )
        return "run_fusion_stack", cfg, {}
    if args.command == "stability-gain":
        cfg = ExperimentConfig(
            experiment="stability_gain",
            dims=args.dims,
            layer_count=args.layers,
            sample_count=args.samples,
            seed=args.seed,
            pair_budget=args.pair_budget,
            output_dir=args.out,
        )
        return "run_stability_gain", cfg, {}
    if args.command == "lenet-partition":
        cfg = ExperimentConfig(
            experiment="lenet_partition",
            seed=args.seed,
            output_dir=args.out,
            sample_count=args.subset or 500,
        )
        kwargs = dict(mnist_dir=args.mnist_dir, synthetic=args.synthetic, subset=args.subset)
        return "run_lenet_partition", cfg, kwargs
    cfg = ExperimentConfig(experiment="regions_2d", grid_n=args.grid, output_dir=args.out)
    return "run_regions_2d", cfg, {}


class _Ran(Exception):
    """Stops a handler once its runner has been called."""


@pytest.mark.parametrize(
    "argv",
    [
        ["fusion-stack"],
        ["fusion-stack", "--dims", "3", "--layers", "2", "--samples", "7", "--seed", "4", "--out", "o"],
        ["stability-gain"],
        ["stability-gain", "--dims", "3", "--layers", "2", "--samples", "7", "--pair-budget", "11",
         "--scaled", "--seed", "4", "--out", "o"],
        ["lenet-partition"],
        ["lenet-partition", "--synthetic", "--subset", "20", "--seed", "4", "--out", "o"],
        ["lenet-partition", "--mnist-dir", "d", "--subset", "0", "--seed", "4", "--out", "o"],
        ["regions-2d"],
        ["regions-2d", "--grid", "11", "--out", "o"],
    ],
)
def test_experiment_configs_equal_the_hand_copied_ones(argv, monkeypatch):
    from unrectify import cli

    calls = []

    def recorder(name):
        def run(cfg, **kwargs):
            calls.append((name, cfg, kwargs))
            raise _Ran

        return run

    for name in ("run_fusion_stack", "run_stability_gain", "run_lenet_partition", "run_regions_2d"):
        monkeypatch.setattr(cli, name, recorder(name))
    with pytest.raises(_Ran):
        main(argv)
    assert calls == [_parent_runner_call(_parent_parser().parse_args(argv))]


@pytest.mark.parametrize("command", ["fusion-stack", "stability-gain", "lenet-partition", "regions-2d"])
def test_experiment_config_defaults_are_the_cli_defaults(command, monkeypatch):
    from unrectify import cli
    from unrectify.experiments import ExperimentConfig

    configs = []

    def run(cfg, **kwargs):
        configs.append(cfg)
        raise _Ran

    for name in ("run_fusion_stack", "run_stability_gain", "run_lenet_partition", "run_regions_2d"):
        monkeypatch.setattr(cli, name, run)
    with pytest.raises(_Ran):
        main([command])
    assert configs == [ExperimentConfig(command.replace("-", "_"))]


@pytest.mark.parametrize(
    "argv, field",
    [
        (["fusion-stack", "--samples", "-3"], "sample_count"),
        (["fusion-stack", "--layers", "0"], "layer_count"),
        (["stability-gain", "--dims", "-1"], "dims"),
        (["regions-2d", "--grid", "0"], "grid_n"),
        (["lenet-partition", "--synthetic", "--subset", "-5"], "sample_count"),
    ],
)
def test_negative_experiment_sizes_name_the_field(argv, field, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert f"{field} must be at least 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_lenet_partition_rejects_a_negative_subset_of_idx_images(tmp_path, capsys):
    from conftest import write_idx_pair
    from unrectify.experiments import ExperimentConfig, run_lenet_partition

    rng = np.random.default_rng(3)
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    images = rng.integers(0, 256, size=(20, 28, 28), dtype=np.uint8)
    write_idx_pair(data_dir, images, rng.integers(0, 10, size=20))
    out = tmp_path / "out"
    assert main(["lenet-partition", "--mnist-dir", str(data_dir), "--subset", "-5", "--out", str(out)]) == 2
    assert "sample_count must be at least 1, got -5" in capsys.readouterr().err
    cfg = ExperimentConfig("lenet_partition", output_dir=str(out))
    with pytest.raises(ValueError, match="subset must be at least 0, got -5"):
        run_lenet_partition(cfg, mnist_dir=str(data_dir), subset=-5)
    assert not out.exists()


def _invalid_network(kind: str) -> dict:
    """A 2-D network file with a cycle 1 -> 2 -> 1 behind the input, or an
    acyclic one with a dead end at node 2."""
    identity = {"kind": "identity"}
    arcs = [(0, 1), (2, 1), (1, 2)] if kind == "cyclic" else [(0, 1), (0, 2)]
    return {
        "input_dim": 2,
        "nodes": [{"id": 0, "role": "input"}, {"id": 1, "role": "relay"}, {"id": 2, "role": "relay"}],
        "arcs": [{"src": s, "dst": d, "elem": identity, "in_dim": 2, "out_dim": 2} for s, d in arcs],
        "output_node": 2 if kind == "cyclic" else 1,
    }


@pytest.mark.parametrize("kind, problem", [("cyclic", "cycle through nodes"), ("dead_end", "dead end")])
@pytest.mark.parametrize("argv", [["certify"], ["eval", "--input", "1,-2"]], ids=["certify", "eval"])
def test_queries_exit_2_with_the_report_of_an_invalid_file(tmp_path, capsys, argv, kind, problem):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(_invalid_network(kind)))
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: invalid:") and problem in captured.err
    assert captured.out == ""


def test_an_unknown_experiment_is_refused():
    from unrectify.experiments import ExperimentConfig

    with pytest.raises(ValueError, match="^unknown experiment 'nope'$"):
        ExperimentConfig("nope")
