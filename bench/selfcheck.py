"""Self-check: every workload at small size, then corrupted results.

``python3 bench/run.py --selfcheck`` runs one pass of each workload at
small sizes with every output check, then feeds the checks corrupted copies
of those real results and requires each corruption to be rejected.  The
same cases run under pytest: ``python3 -m pytest bench``.
"""
from __future__ import annotations

import dataclasses
import time

import workloads
from workloads import Tally

SEED = 0


def run_small(workdir) -> dict:
    """name -> (workload, state, result, answers, tally) of one small pass."""
    out = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, SEED, small=True, workdir=workdir)
        tally = Tally()
        state, result, answers = workloads.run_pass(wl, tally, keep=True)["outputs"]
        out[name] = (wl, state, result, answers, tally)
    return out


def recheck(run, result=None, answers=None) -> Tally:
    wl, state, clean_result, clean_answers, _ = run
    tally = Tally()
    wl.check(tally, state, clean_result if result is None else result, clean_answers if answers is None else answers)
    return tally


def fusion_region_count_off_by_one(runs) -> bool:
    stats, raw, rescaled = runs["fusion"][2]
    stats = dict(stats)
    key = (1, "top")
    stats[key] = dataclasses.replace(stats[key], region_count=stats[key].region_count + 1)
    return bool(recheck(runs["fusion"], (stats, raw, rescaled)).problems)


def lenet_region_count_off_by_one(runs) -> bool:
    probes, stats, refinements, pieces = runs["lenet"][2]
    stats = dict(stats)
    stats[8] = [dataclasses.replace(stats[8][0], region_count=stats[8][0].region_count + 1)]
    return bool(recheck(runs["lenet"], (probes, stats, refinements, pieces)).problems)


def plane_region_count_off_by_one(runs) -> bool:
    counts, channels, bound, seeded = runs["plane"][2]
    counts = dict(counts, fusion=counts["fusion"] + 1)
    return bool(recheck(runs["plane"], (counts, channels, bound, seeded)).problems)


def spectral_sum_nudged_below_svd(runs) -> bool:
    """A LeNet level the certificate gets exactly right, nudged 1e-9 low,
    must be counted as one more failed operation."""
    run = runs["certify"]
    lenet_report, reports = run[2]
    clean = recheck(run).failed
    sums = list(lenet_report.level_sums)
    exact = 2  # levels 2-4 hold only the pooling arcs: sums are exact counts
    sums[exact - 1] = dataclasses.replace(sums[exact - 1], sum=sums[exact - 1].sum * (1 - 1e-9))
    nudged = dataclasses.replace(lenet_report, level_sums=tuple(sums))
    return recheck(run, (nudged, reports)).failed == clean + 1


def gain_above_bound(runs) -> bool:
    stats, (report, gain), rescaled = runs["fusion"][2]
    top = len(gain.gains) - 1
    bound = max(report.certified_C[: top + 1])
    gains = gain.gains[:top] + (bound + 1e-3,)
    corrupted = dataclasses.replace(gain, gains=gains)
    return bool(recheck(runs["fusion"], (stats, (report, corrupted), rescaled)).problems)


def query_codes_merged(runs) -> bool:
    answers = list(runs["plane"][3])
    other = next(a for a in answers if a != answers[0])
    answers[answers.index(other)] = answers[0]
    return bool(recheck(runs["plane"], answers=answers).problems)


CORRUPTIONS = [
    fusion_region_count_off_by_one,
    lenet_region_count_off_by_one,
    plane_region_count_off_by_one,
    spectral_sum_nudged_below_svd,
    gain_above_bound,
    query_codes_merged,
]


def main(workdir) -> int:
    t0 = time.perf_counter()
    runs = run_small(workdir)
    bad = 0
    for name, (_, _, _, _, tally) in runs.items():
        print(f"{name:8s} attempted {tally.attempted:4d}  failed {tally.failed:3d}  problems {len(tally.problems)}")
        for problem in tally.problems:
            print(f"    {problem}")
        bad += bool(tally.problems)
    for case in CORRUPTIONS:
        rejected = case(runs)
        print(f"{'rejected' if rejected else 'MISSED  '}  {case.__name__}")
        bad += not rejected
    print(f"self-check {'passed' if not bad else 'FAILED'} in {time.perf_counter() - t0:.1f} s")
    return 1 if bad else 0
