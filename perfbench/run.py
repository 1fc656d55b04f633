"""Benchmark of the cliquemat protocols: host time and model cost per call.

    python3 perfbench/run.py --workload sim-clustered --seed 0 --seconds 20 --trace 0

One process runs one workload, single-threaded.  It generates the
workload's instance list from ``--seed``, then calls the protocol on the
instances in turn until ``--seconds`` have passed (every instance at least
once).  Each call is timed alone; its product, tree and plan are checked
afterwards (see ``checks.py``), and its product and ledger digests must
repeat on every call of the same instance.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` calls every
instance once untraced and once with spans on every layer (see
``tracing.py``), checks that both give identical ledgers, and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object.  The exit code is 1 if any call failed.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
# ROADMAP baseline row: n=128, simulated, clustered A (seed 0), uniform B (seed 1)
BASELINE = {"rounds": 889, "messages": 846_010}

@dataclass
class Instance:
    index: int
    a_seed: int
    b_seed: int
    A: object
    B: object
    exact_cost: dict = field(default_factory=dict)  # orientation -> exact MST cost
    first: dict | None = None  # outcome of the first successful call


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--n", type=int, default=None, help="override the workload's n (self-test)")
    return p.parse_args(argv)


def load_library():
    """Import cliquemat from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "cliquemat" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cliquemat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cliquemat

    if Path(cliquemat.__file__).resolve().parent != (SRC / "cliquemat").resolve():
        raise SystemExit(f"perfbench: imported cliquemat from {cliquemat.__file__}")


def measure_setup(name: str, seed: int, n: int) -> tuple[list[float], list[float]]:
    """Import-and-generate seconds from ``SETUP_PROBES`` fresh processes,
    and the reference times around them."""

    def probe(_):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(n)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        return float(proc.stdout.split()[-1])

    return hostspeed.between_references(probe, lambda done: done < SETUP_PROBES)


def do_call(w, inst: Instance, capture, tracer=None) -> dict:
    """One timed protocol call and its correctness gate."""
    from cliquemat import harness

    capture.reset()
    gc.collect()  # every call starts from a collected heap
    t0 = time.perf_counter()
    try:
        C, orientation, ledger, info = workloads.call(w, inst.A, inst.B, inst.a_seed)
    except Exception as exc:  # noqa: BLE001 - a failing call is counted, never raised
        return {"instance": inst.index, "s": time.perf_counter() - t0,
                "problems": [f"{type(exc).__name__}: {exc}"]}
    elapsed = time.perf_counter() - t0

    verify = harness.verify if tracer is None else tracer.wrap(harness.verify, "harness.verify")
    problems = [] if verify(C, inst.A, inst.B) else ["wrong product"]
    tree_problems, tree_cost = checks.tree_problems(inst.A, inst.B, orientation, info, capture)
    problems += tree_problems
    if orientation not in inst.exact_cost:
        rows = inst.A if orientation == "ab" else inst.B.transpose()
        inst.exact_cost[orientation] = harness.exact_mst_cost(rows)
    exact = inst.exact_cost[orientation]
    outcome = {
        "instance": inst.index,
        "s": elapsed,
        "orientation": orientation,
        "ledger": ledger,
        "info": info,
        "product_digest": checks.product_digest(C),
        "ledger_digest": checks.ledger_digest(ledger),
        "tree_ratio": tree_cost / exact if exact else 1.0,
        "problems": problems,
    }
    if inst.first is None:
        if not problems:
            inst.first = outcome
    elif (outcome["product_digest"], outcome["ledger_digest"]) != (
        inst.first["product_digest"], inst.first["ledger_digest"]
    ):
        problems.append("product or ledger digest differs from the instance's first call")
    return outcome


def baseline_problems(w, n: int, instances: list[Instance]) -> list[str]:
    """The (A seed 0, B seed 1) instance of sim-clustered must reproduce the
    ROADMAP baseline row exactly."""
    if w.name != "sim-clustered" or n != w.n:
        return []
    for inst in instances:
        if (inst.a_seed, inst.b_seed) == (0, 1) and inst.first is not None:
            led = inst.first["ledger"]
            got = {"rounds": led.rounds, "messages": led.messages}
            if got != BASELINE:
                return [f"baseline instance gives {got}, ROADMAP has {BASELINE}"]
    return []


def timed_calls(w, instances, capture, seconds: float) -> tuple[list[dict], list[float]]:
    """Calls in turn until ``seconds`` have passed, and the reference times
    around them."""
    deadline = time.perf_counter() + seconds
    return hostspeed.between_references(
        lambda i: do_call(w, instances[i % len(instances)], capture),
        lambda done: done < len(instances) or time.perf_counter() < deadline,
    )


def end_to_end(instances, calls, call_refs, setups, setup_refs) -> dict[str, float]:
    firsts = [inst.first for inst in instances]
    ledgers = [f["ledger"] for f in firsts]
    return {
        "run_s": statistics.median(hostspeed.scaled([c["s"] for c in calls], call_refs)),
        "setup_s": statistics.median(hostspeed.scaled(setups, setup_refs)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": statistics.fmean(led.rounds for led in ledgers),
        "messages": statistics.fmean(led.messages for led in ledgers),
        "bits": statistics.fmean(led.bits for led in ledgers),
        "work_total": statistics.fmean(led.work_total for led in ledgers),
        "work_max_node": statistics.fmean(led.work_max_node for led in ledgers),
        "tree_ratio": statistics.fmean(f["tree_ratio"] for f in firsts),
    }


def traced_run(w, instances, capture, tracer) -> tuple[list[dict], dict[str, float]]:
    """Each instance once untraced, then once traced; returns all calls and
    the per-layer metrics."""
    untraced = [do_call(w, inst, capture) for inst in instances]
    traced = []
    restore = tracing.instrument(tracer)
    try:
        for cid, inst in enumerate(instances):
            tracer.call_id = cid
            out = do_call(w, inst, capture, tracer)
            if "ledger" in out:
                led = out["ledger"]
                spans = tracing.primitive_rounds(tracer, cid)
                for prim, rounds in spans.items():
                    if rounds != led.primitive_rounds.get(prim, 0):
                        out["problems"].append(
                            f"traced routing.{prim}.rounds {rounds} != ledger "
                            f"{led.primitive_rounds.get(prim, 0)}"
                        )
            traced.append(out)
    finally:
        tracer.call_id = -1
        restore()
    calls = untraced + traced
    if any(c["problems"] for c in calls):
        return calls, {}
    metrics = tracing.layer_metrics(
        tracer, [c["ledger"] for c in traced], [c["info"] for c in traced], len(traced)
    )
    metrics["trace.run_s"] = statistics.median(c["s"] for c in traced)
    metrics["trace.overhead"] = metrics["trace.run_s"] / statistics.median(c["s"] for c in untraced)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{w.name}.trace.npz")
    return calls, metrics


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    w = workloads.WORKLOADS[args.workload]
    n = args.n or w.n
    load_library()
    setups, setup_refs = ([], []) if args.trace else measure_setup(w.name, args.seed, n)
    tracer = tracing.Tracer() if args.trace else None

    instances = []
    for idx, (a_seed, b_seed) in enumerate(workloads.instance_seeds(w, args.seed)):
        gen = workloads.generate_instance
        if tracer is not None:
            gen = tracer.wrap(gen, "harness.generate")
        A, B = gen(w, n, a_seed, b_seed)
        instances.append(Instance(idx, a_seed, b_seed, A, B))

    capture = checks.PlanCapture()
    call_refs: list[float] = []
    metrics: dict[str, float] = {}
    capture.install()
    try:
        if tracer is None:
            calls, call_refs = timed_calls(w, instances, capture, args.seconds)
        else:
            calls, metrics = traced_run(w, instances, capture, tracer)
    finally:
        capture.uninstall()

    calls[0]["problems"] += baseline_problems(w, n, instances)
    failed = sum(1 for c in calls if c["problems"])
    declared = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if tracer is None and all(i.first for i in instances):
        metrics = end_to_end(instances, calls, call_refs, setups, setup_refs)

    env = environment()
    mode = "seed" if w.seed_mode else "ship"
    print(f"workload {w.name}: n={n} {w.routing} {mode}-mode {w.entry} seed={args.seed} "
          f"instances={len(instances)} trace={args.trace}")
    print(f"  why: {next(wl['why'] for wl in bench['workloads'] if wl['name'] == w.name)}")
    print(f"  env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}")
    for inst in instances:
        f = inst.first
        if f is None:
            print(f"  instance {inst.index} (A seed {inst.a_seed}, B seed {inst.b_seed}): no correct call")
            continue
        print(f"  instance {inst.index} (A seed {inst.a_seed}, B seed {inst.b_seed}): "
              f"orientation {f['orientation']}, rounds {f['ledger'].rounds}, "
              f"messages {f['ledger'].messages}, product {f['product_digest'][:16]}, "
              f"ledger {f['ledger_digest'][:16]}")
    for c in calls:
        for problem in c["problems"]:
            print(f"  FAIL instance {c['instance']}: {problem}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:16.6f} {units[name]}")
    if tracer is None:
        raw = statistics.median(c["s"] for c in calls)
        print(f"  run_s is the median of {len(calls)} calls, each scaled to the reference "
              f"speed (hostspeed.py); unscaled median {raw:.6f} s")
    print(f"  {'fail_rate':36s} {failed / len(calls):16.6f} ratio ({failed} of {len(calls)} calls)")

    OUT.mkdir(exist_ok=True)
    report = {
        "workload": w.name, "n": n, "seed": args.seed, "trace": args.trace, "env": env,
        "instances": [
            {"a_seed": i.a_seed, "b_seed": i.b_seed,
             "orientation": i.first and i.first["orientation"],
             "product_digest": i.first and i.first["product_digest"],
             "ledger_digest": i.first and i.first["ledger_digest"],
             "ledger": i.first and i.first["ledger"].as_dict()}
            for i in instances
        ],
        "calls": [
            {"instance": c["instance"], "s": c["s"], "problems": c["problems"]} for c in calls
        ],
        "call_refs": call_refs,
        "setup_s": setups,
        "setup_refs": setup_refs,
        "metrics": metrics,
    }
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
