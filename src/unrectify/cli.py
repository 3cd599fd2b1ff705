"""Command-line interface.

Subcommands: validate, levels, eval, certify, rescale over network
description files, and the experiment runners fusion-stack,
stability-gain, lenet-partition, regions-2d.  The certify exit status is
0 when the network is certified, 1 when it is not, and 2 on errors, so
scripts can branch on it.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from .experiments import (
    ExperimentConfig,
    run_fusion_stack,
    run_lenet_partition,
    run_regions_2d,
    run_stability_gain,
)
from .graph import InvalidGraphError, forward, levels, validate
from .idx import IdxFormatError
from .netio import NetworkFormatError, load_network, save_network
from .stability import certify, rescale_to_stability

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="unrectify")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network description file")
    p.add_argument("net")

    p = sub.add_parser("levels", help="print node levels")
    p.add_argument("net")

    p = sub.add_parser("eval", help="evaluate a network on one input")
    p.add_argument("net")
    p.add_argument("--input", required=True, help="comma-separated input vector")

    p = sub.add_parser("certify", help="stability certificate (exit 0 certified, 1 not)")
    p.add_argument("net")

    p = sub.add_parser("rescale", help="rescale weights to meet the stability condition")
    p.add_argument("net")
    p.add_argument("--out", required=True)
    p.add_argument("--frobenius", action="store_true", help="use Frobenius-norm level sums")

    p = sub.add_parser("fusion-stack", help="fusion stack partition statistics")
    p.add_argument("--dims", type=int)
    p.add_argument("--layers", dest="layer_count", type=int)
    p.add_argument("--samples", dest="sample_count", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="output_dir")

    p = sub.add_parser("stability-gain", help="gain curves and certificates")
    p.add_argument("--dims", type=int)
    p.add_argument("--layers", dest="layer_count", type=int)
    p.add_argument("--samples", dest="sample_count", type=int)
    p.add_argument("--pair-budget", type=int)
    p.add_argument("--scaled", action="store_true", help="summarize the rescaled run")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="output_dir")

    p = sub.add_parser("lenet-partition", help="partition statistics at probe levels")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--mnist-dir", help="directory with IDX train files")
    group.add_argument("--synthetic", action="store_true", help="use synthetic images")
    p.add_argument("--subset", type=int, help="images used; 0 keeps every IDX image")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="output_dir")

    p = sub.add_parser("regions-2d", help="exact 2-D region counts")
    p.add_argument("--grid", dest="grid_n", type=int)
    p.add_argument("--out", dest="output_dir")
    return parser


def _cmd_validate(args) -> int:
    dag = load_network(args.net)
    report = validate(dag)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_levels(args) -> int:
    dag = load_network(args.net)
    by_label = {v: k for k, v in dag.labels.items()}
    lvl = levels(dag)
    print("node,role,level,label")
    for node in dag.nodes:
        print(f"{node.id},{node.role},{lvl[node.id]},{by_label.get(node.id, '')}")
    print(f"max level: {max(lvl.values())}")
    return 0


def _cmd_eval(args) -> int:
    dag = load_network(args.net)
    try:
        x = np.array([float(v) for v in args.input.split(",")])
    except ValueError:
        print(f"error: --input must be a comma-separated float row, got {args.input!r}", file=sys.stderr)
        return 2
    y, _ = forward(dag, x)
    print(",".join("%.17g" % v for v in np.atleast_1d(y)))
    return 0


def _cmd_certify(args) -> int:
    dag = load_network(args.net)
    report = certify(dag)
    print(f"uniform bound d = {report.d:g}")
    print("level,sum,frob_sum,certified_C")
    for entry in report.level_sums:
        print(
            f"{entry.level},{entry.sum:.12g},{entry.frob_sum:.12g},"
            f"{report.certified_C[entry.level]:.12g}"
        )
    print(f"stable from level: {report.stable_from}")
    print(report.verdict)
    return 0 if report.certified else 1


def _cmd_rescale(args) -> int:
    dag = load_network(args.net)
    scaled = rescale_to_stability(dag, use_frobenius=args.frobenius)
    save_network(scaled, args.out)
    report = certify(scaled)
    print(f"wrote {args.out}; {report.verdict}")
    return 0


def _config(args, **overrides) -> ExperimentConfig:
    """The command's config from the flags given, a None flag or override
    taking the config's default; each flag's ``dest`` is a field name."""
    names = {f.name for f in fields(ExperimentConfig)}
    given = {k: v for k, v in {**vars(args), **overrides}.items() if k in names and v is not None}
    return ExperimentConfig(experiment=args.command.replace("-", "_"), **given)


def _cmd_fusion_stack(args) -> int:
    result = run_fusion_stack(_config(args))
    print(f"wrote {result.csv_path}")
    for (layer, channel), s in sorted(result.stats.items()):
        print(
            f"layer{layer},{channel}: regions={s.region_count} "
            f"max_pts={s.max_points_per_region} max_dist={s.max_intra_region_distance:.6g}"
        )
    return 0


def _cmd_stability_gain(args) -> int:
    result = run_stability_gain(_config(args))
    for name, path in sorted(result.csv_paths.items()):
        print(f"wrote {path}")
    curve = result.rescaled_gain if args.scaled else result.gain
    report = result.rescaled_report if args.scaled else result.report
    which = "rescaled" if args.scaled else "unscaled"
    print(f"{which} gains: " + ", ".join(f"{g:.6g}" for g in curve.gains))
    print(f"{which}: {report.verdict} (stable from {report.stable_from})")
    return 0


def _cmd_lenet_partition(args) -> int:
    cfg = _config(args, sample_count=args.subset or None)
    subset = cfg.sample_count if args.subset is None else args.subset
    result = run_lenet_partition(cfg, mnist_dir=args.mnist_dir, synthetic=args.synthetic, subset=subset)
    print(f"wrote {result.csv_path}" + (" (synthetic images)" if result.synthetic else ""))
    for level in (3, 4, 7, 8):
        s = result.stats[level]
        print(
            f"level {level}: regions={s.region_count} max_pts={s.max_points_per_region} "
            f"max_dist={s.max_intra_region_distance:.6g}"
        )
    return 0


def _cmd_regions_2d(args) -> int:
    result = run_regions_2d(_config(args))
    print(result.csv_path.read_text(), end="")
    print(f"wrote {result.csv_path}")
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "levels": _cmd_levels,
    "eval": _cmd_eval,
    "certify": _cmd_certify,
    "rescale": _cmd_rescale,
    "fusion-stack": _cmd_fusion_stack,
    "stability-gain": _cmd_stability_gain,
    "lenet-partition": _cmd_lenet_partition,
    "regions-2d": _cmd_regions_2d,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--input" in argv[:-1]:  # argparse would take a value such as -0.5,1 for an option
        i = argv.index("--input")
        argv[i : i + 2] = ["--input=" + argv[i + 1]]
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (NetworkFormatError, InvalidGraphError, IdxFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
