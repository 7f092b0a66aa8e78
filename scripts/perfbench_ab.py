#!/usr/bin/env python3
"""Order-rotated parent/change A/B of one perfbench workload.

    scripts/perfbench_ab.py PARENT_BIN CHANGE_BIN --workload serve_uniform \
        --seed 61 -n 10

PARENT_BIN and CHANGE_BIN are two built `sgnn-benchmark` binaries (build
`perfbench/` in each checkout with `cargo build --release --manifest-path
perfbench/Cargo.toml`). Pair i runs the parent first when i is even and the
change first when i is odd; each run is `BIN --workload W --seed S` (arguments
this script does not know, such as `--seconds 5`, are passed on to both),
and its result is the last JSON line of its standard output.

For every end-to-end metric the runs report, the script prints each pair, each
side's median and quartiles (`statistics.quantiles(n=4)`, the spread perfbench
uses), the change's win count (ties count for neither side) and a verdict:

* `gain`       -- the change wins at least 9/10 of the pairs and the medians
                  differ, in the better direction, by more than the parent's
                  interquartile range;
* `regression` -- the change's median is worse than the parent's by more than
                  the bound `BENCHMARK.json` fixes for the metric;
* `unresolved` -- anything else.

`--layer NAME` (repeatable) compares the named per-layer ledger metrics
instead, such as `train.mb.epoch_ms` or `models.decoupled.step_ms`: a traced
run (`--trace 1`, passed on to both sides) reports the ledger, not the
end-to-end metrics, in its JSON line. The same table and verdict follow, with
the direction `BENCHMARK.json` gives the metric and no regression bound.

It exits 1 when a run fails outright, reports `correct: false`, or fails more
operations than its pair partner, and 2 when a run lacks a `--layer` metric.
`--self-test` checks the parsing and the verdict rule on canned input and runs
nothing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WIN_SHARE = 0.9
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def last_json(stdout):
    """The last line of `stdout` that parses as a JSON object."""
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            try:
                return json.loads(line)
            except json.JSONDecodeError:
                continue
    raise ValueError("no JSON result line in the run's output")


def quartiles(xs):
    """(q1, median, q3) as `statistics.quantiles(n=4)` cuts them."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(parent, change, better="lower", bound=None):
    """Judge paired samples of one metric: (verdict, wins, parent quartiles,
    change quartiles). `parent[i]` and `change[i]` are pair i."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (pq[1] - cq[1])
    if wins >= WIN_SHARE * len(parent) and gap > pq[2] - pq[0]:
        v = "gain"
    elif bound is not None and -gap > bound * pq[1]:
        v = "regression"
    else:
        v = "unresolved"
    return v, wins, pq, cq


def metric_specs(path):
    """{name: (better, bound)} of BENCHMARK.json's end-to-end and per-layer
    metrics; per-layer metrics have no bound."""
    try:
        with open(path) as f:
            spec = json.load(f)
    except OSError:
        return {}
    metrics = spec.get("per_layer", []) + spec.get("end_to_end", [])
    return {m["name"]: (m.get("better", "lower"), m.get("bound")) for m in metrics}


def run_once(binary, workload, seed, extra):
    cmd = [binary, "--workload", workload, "--seed", str(seed)] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    return last_json(proc.stdout)


def report(pairs, specs, out=sys.stdout, names=None):
    """Print every pair and the summary of each metric in `names` (default:
    every metric of the first run); return (verdicts, ok)."""
    names = names or list(pairs[0][0]["metrics"])
    ok = True
    for i, (p, c) in enumerate(pairs):
        first = "parent" if i % 2 == 0 else "change"
        cells = []
        for name in names:
            cells.append(f"{name} {p['metrics'][name]['value']:.4g} / {c['metrics'][name]['value']:.4g}")
        out.write(
            f"pair {i:2d} ({first} first): correct {p['correct']}/{c['correct']} "
            f"failed {p['failed']}/{c['failed']} of {p['attempted']}/{c['attempted']}: "
            + "; ".join(cells)
            + "\n"
        )
        ok &= p["correct"] and c["correct"] and c["failed"] <= p["failed"]
    verdicts = {}
    for name in names:
        better, bound = specs.get(name, ("lower", None))
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        v, wins, pq, cq = verdict(parent, change, better, bound)
        verdicts[name] = v
        delta = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else float("nan")
        out.write(
            f"{name:14s} parent median {pq[1]:.4g} [q1 {pq[0]:.4g}, q3 {pq[2]:.4g}, IQR {pq[2] - pq[0]:.4g}]  "
            f"change median {cq[1]:.4g} [q1 {cq[0]:.4g}, q3 {cq[2]:.4g}]  "
            f"{delta:+.1f} %  change wins {wins}/{len(pairs)} ({better} is better)  -> {v}\n"
        )
    out.write("outputs: " + ("correct, no extra failures" if ok else "INCORRECT or more failures") + "\n")
    return verdicts, ok


def run_result(value, correct=True, failed=0, name="unit_p10_ms"):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {name: {"value": value, "unit": "ms"}}}


def missing_layers(run, names):
    """The `--layer` names a run's JSON does not report."""
    return [n for n in names if n not in run["metrics"]]


def self_test():
    import io

    out = "host: ...\n  unit_p10_ms  3.39 ms\n" + json.dumps(run_result(3.39)) + "\n"
    assert last_json(out)["metrics"]["unit_p10_ms"]["value"] == 3.39
    try:
        last_json("no result\n{truncated")
        raise AssertionError("a run without a JSON line must be rejected")
    except ValueError:
        pass
    # The spread is Python's exclusive quartiles, as perfbench computes it.
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)

    parent = [4.0, 4.2, 3.9, 4.4, 4.1, 4.0, 4.3, 3.8, 4.2, 4.1]
    # 10/10 wins, gap well beyond the parent's IQR.
    assert verdict(parent, [x * 0.8 for x in parent])[0] == "gain"
    # 9/10 wins is enough; 8/10 is not.
    nine = [x * 0.8 for x in parent[:9]] + [parent[9] + 0.5]
    assert verdict(parent, nine)[:2] == ("gain", 9)
    eight = [x * 0.8 for x in parent[:8]] + [x + 0.5 for x in parent[8:]]
    assert verdict(parent, eight)[:2] == ("unresolved", 8)
    # Every pair won, but by less than the parent's own spread.
    v, wins, pq, _ = verdict(parent, [x - 0.01 for x in parent])
    assert (v, wins) == ("unresolved", 10) and pq[2] - pq[0] > 0.01
    # Ties count for neither side.
    assert verdict(parent, list(parent))[1] == 0
    # Higher-is-better metrics flip the direction.
    assert verdict(parent, [x * 1.3 for x in parent], better="higher")[0] == "gain"
    # Worse by more than the bound is a regression; inside it, unresolved.
    assert verdict(parent, [x * 1.5 for x in parent], bound=0.25)[0] == "regression"
    assert verdict(parent, [x * 1.1 for x in parent], bound=0.25)[0] == "unresolved"

    pairs = [(run_result(p), run_result(c)) for p, c in zip(parent, [x * 0.8 for x in parent])]
    buf = io.StringIO()
    verdicts, ok = report(pairs, {"unit_p10_ms": ("lower", 0.25)}, buf)
    assert verdicts == {"unit_p10_ms": "gain"} and ok, buf.getvalue()
    assert buf.getvalue().count("pair ") == 10 and "(change first)" in buf.getvalue()
    pairs[3] = (run_result(4.0), run_result(3.0, failed=2))
    assert not report(pairs, {}, io.StringIO())[1], "a change that fails more must not pass"
    pairs[3] = (run_result(4.0), run_result(3.0, correct=False))
    assert not report(pairs, {}, io.StringIO())[1], "an incorrect run must not pass"

    # `--layer`: a traced run's JSON holds the ledger; the named metric is
    # compared alone, in the direction BENCHMARK.json gives it.
    layer = "train.mb.epoch_ms"
    traced = "  per-layer ledger (0 = layer not reached by this workload):\n" + json.dumps(
        {"correct": True, "attempted": 12, "failed": 0,
         "metrics": {"unit_p50_ms": {"value": 600.0, "unit": "ms"},
                     layer: {"value": 149.25, "unit": "ms"}}}) + "\n"
    run = last_json(traced)
    assert run["metrics"][layer]["value"] == 149.25
    assert missing_layers(run, [layer, "models.decoupled.step_ms"]) == ["models.decoupled.step_ms"]
    specs = metric_specs(os.path.join(ROOT, "BENCHMARK.json"))
    assert specs[layer] == ("lower", None) and specs["unit_p10_ms"] == ("lower", 0.25)
    pairs = [(run_result(p, name=layer), run_result(c, name=layer))
             for p, c in zip(parent, [x * 0.8 for x in parent])]
    for p, _ in pairs:
        p["metrics"]["unit_p50_ms"] = {"value": 1.0, "unit": "ms"}
    buf = io.StringIO()
    verdicts, ok = report(pairs, specs, buf, names=[layer])
    assert verdicts == {layer: "gain"} and ok, buf.getvalue()
    assert "unit_p50_ms" not in buf.getvalue() and f"{layer} 4 / 3.2" in buf.getvalue()
    print("perfbench_ab self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", nargs="?", help="sgnn-benchmark binary built at the parent commit")
    ap.add_argument("change", nargs="?", help="sgnn-benchmark binary built at the change")
    ap.add_argument("--workload", help="perfbench workload name")
    ap.add_argument("--seed", type=int, help="workload seed (one not used while writing the change)")
    ap.add_argument("-n", type=int, default=10, help="number of pairs (default 10)")
    ap.add_argument("--layer", action="append", default=[], metavar="NAME",
                    help="per-layer ledger metric to compare instead (repeatable; the runs need --trace 1)")
    ap.add_argument("--benchmark-json", default=os.path.join(ROOT, "BENCHMARK.json"),
                    help="where the metric directions and bounds are read from")
    ap.add_argument("--self-test", action="store_true", help="check the parser and verdict rule, run nothing")
    args, extra = ap.parse_known_args()
    if args.self_test:
        self_test()
        return 0
    if not (args.parent and args.change and args.workload and args.seed is not None):
        ap.error("PARENT_BIN CHANGE_BIN --workload W --seed S are required")
    pairs = []
    for i in range(args.n):
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        got = {side: run_once(binary, args.workload, args.seed, extra) for side, binary in order}
        for side, run in got.items():
            missing = missing_layers(run, args.layer)
            if missing:
                sys.stderr.write(f"the {side} run reports no {', '.join(missing)} (per-layer metrics need --trace 1)\n")
                return 2
        pairs.append((got["parent"], got["change"]))
        p, c = got["parent"]["metrics"], got["change"]["metrics"]
        shown = args.layer or list(p)
        sys.stderr.write(f"pair {i}: " + ", ".join(f"{k} {p[k]['value']:.4g} / {c[k]['value']:.4g}" for k in shown) + "\n")
    print(f"workload {args.workload} seed {args.seed}: {args.n} order-rotated pairs (parent / change)")
    _, ok = report(pairs, metric_specs(args.benchmark_json), names=args.layer)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
