"""Compare two checkouts on benchmark workloads, in alternated pairs.

    python tools/pairs.py PARENT CHANGE --workload registry_1e5 --seeds 41-50 [--json BENCH.json]
    python tools/pairs.py PARENT CHANGE --workload registry_1e5,simstudy_1e3,panel_1e5 --seeds 41-50

For each workload in turn and each seed, runs ``python3 bench/run.py
--workload W --seed S --seconds X --trace 0`` once in each checkout, the
side that runs first switching from pair to pair.  Stops at the first run that prints
``"correct": false``, counts a failed operation or exits non-zero.  Then
prints, for each end-to-end metric of the CHANGE checkout's
``BENCHMARK.json``: each side's median and quartiles, the change's wins
(ties count for neither side), its median against the parent's as a
share of the metric's bound, and whether it is a gain by the rule for a
claim: the change wins at least nine tenths of the pairs, and its median
is better than the parent's by more than the parent's quartile spread.
``--json PATH`` also writes that summary as JSON, one file for every
workload: each side's git commit and bytecode-cache state (whether
``src/pafmsm/__pycache__`` existed before the first run: a first import
that compiles the package moves ``setup_s`` and ``peak_mem_mb``), the
seeds, the pair count and, per workload and metric, each side's median
and quartiles, the wins and the verdict.

Standard library only; it lives outside ``testpaths``, so pytest never
collects it.  The runs write ``bench/results/`` inside each checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``checkout``: its metric values by name."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode or not result.get("correct") or result.get("failed"):
        sys.exit(f"pairs: {checkout} seed {seed}: exit {proc.returncode}, "
                 f"correct {result.get('correct')}, failed {result.get('failed')}\n"
                 f"{proc.stderr.strip()}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def compare(metric: dict, parent: list, change: list) -> dict:
    """One metric over the pairs: each side's quartiles, the change's wins,
    its move against the parent's median and whether it is a gain."""
    sign = 1 if metric["better"] == "lower" else -1
    q_parent, q_change = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gap = sign * (q_parent[1] - q_change[1])  # > 0: the change is better
    spread = q_parent[2] - q_parent[0]
    return {"parent": {"median": q_parent[1], "quartiles": [q_parent[0], q_parent[2]]},
            "change": {"median": q_change[1], "quartiles": [q_change[0], q_change[2]]},
            "wins": wins, "pairs": len(parent),
            "worse_by": -gap / q_parent[1] if q_parent[1] else 0.0, "bound": metric["bound"],
            "gain": wins >= 0.9 * len(parent) and gap > spread}


def summary(name: str, c: dict) -> str:
    """One metric's line: medians, quartiles, wins, the move and the verdict."""
    sides = "".join(f"  {k} {c[k]['median']:.4g} [{c[k]['quartiles'][0]:.4g}, "
                    f"{c[k]['quartiles'][1]:.4g}]" for k in ("parent", "change"))
    return (f"{name:12s}{sides}  wins {c['wins']}/{c['pairs']}"
            f"  worse by {c['worse_by']:+.1%} (bound {c['bound']:.0%})"
            f"  {'GAIN' if c['gain'] else 'no gain'}")


def commit(checkout: Path):
    """The git commit checked out in ``checkout``, or None outside a git tree."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def pairs(sides: dict, spec: dict, workload: str, seeds: list, seconds: float):
    """The alternated pairs of one workload: each end-to-end metric's
    summary (``compare``) by name, printed as it goes."""
    runs = {"parent": [], "change": []}
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(sides[side], workload, seed, seconds))
        print(f"{workload} seed {seed}: " + "  ".join(
            f"{side} " + " ".join(f"{v:.4g}" for v in runs[side][-1].values())
            for side in ("parent", "change")), flush=True)
    if len(seeds) < 2:
        return {}
    print(f"{workload}, {len(seeds)} pairs, median [quartiles]:")
    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        metrics[name] = compare(metric, [r[name] for r in runs["parent"]],
                                [r[name] for r in runs["change"]])
        print(summary(name, metrics[name]))
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True, type=lambda text: text.split(","),
                   help="one workload, or several separated by commas")
    p.add_argument("--seeds", type=_seeds, required=True, help="first-last, as 41-50")
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--json", type=Path, default=None, help="also write the summary to this file")
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    cached = {side: (path / "src" / "pafmsm" / "__pycache__").is_dir()
              for side, path in sides.items()}
    workloads = {w: pairs(sides, spec, w, args.seeds, seconds) for w in args.workload}
    if args.json and len(args.seeds) > 1:
        report = {"commits": {side: commit(path) for side, path in sides.items()},
                  "bytecode_cache": cached, "seeds": args.seeds, "pairs": len(args.seeds),
                  "seconds": seconds, "workloads": workloads}
        args.json.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
