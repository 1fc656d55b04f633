"""Spans timed from outside the library, and the per-layer metrics built
from them.

:func:`instrument` replaces every binding of the traced functions with a
wrapper that records one span per call: name, start, end, parent and the id
of the protocol call it belongs to.  Spans stay in flat arrays in memory and
are written out once, at the end.  A span's self time is its duration minus
the time its child spans cover; calls are single-threaded and children
nest strictly inside their parent, so that is the sum of the children's
durations.

``from .x import f`` binds ``f`` again in every importing module, so each
binding is wrapped separately; methods are wrapped on their class.
"""

from __future__ import annotations

import math
import re
import time
from array import array

import numpy as np

PRIMITIVES = ("relaxed_idt", "bounded_route", "vector_multicast")
# (module, attribute) bindings of each routing primitive
_PRIMITIVE_BINDINGS = {
    "relaxed_idt": (("routing", "solve_relaxed_idt"), ("clusmat", "solve_relaxed_idt")),
    "bounded_route": (("routing", "bounded_route"), ("hmst", "bounded_route"), ("clusmat", "bounded_route")),
    "vector_multicast": (("routing", "vector_multicast"), ("hmst", "vector_multicast"), ("clusmat", "vector_multicast")),
}
# span name -> (module, attribute) bindings of plain functions
_FUNCTION_BINDINGS = {
    "hmst.run_hmst": (("hmst", "run_hmst"), ("clusmat", "run_hmst")),
    "hmst.sketch_point": (("hmst", "sketch_point"),),
    "hmst.build_estimated_graph": (("hmst", "build_estimated_graph"),),
    "clusmat.clusmat_oriented": (("clusmat", "clusmat_oriented"),),
    "clusmat.choose_orientation": (("clusmat", "choose_orientation"),),
    "clusmat.run_clusmat": (("clusmat", "run_clusmat"),),
    "clusmat.plan.plan_blocks": (("clusmat", "plan_blocks"),),
    "clusmat.plan.assign_pairs": (("clusmat", "assign_pairs"),),
    "clusmat.plan.witness_schedules": (("clusmat", "witness_schedules"),),
    "clusmat.distribute_witnesses": (("clusmat", "distribute_witnesses"),),
    "clusmat.block_multiply": (("clusmat", "block_multiply"),),
    "bits.euler_traversal": (("clusmat", "euler_traversal"),),
    "bits.local_mst": (("hmst", "local_mst"),),
    "bits.pack_chunks": (("hmst", "pack_chunks"), ("clusmat", "pack_chunks")),
    "bits.unpack_chunks": (("hmst", "unpack_chunks"), ("clusmat", "unpack_chunks")),
}
_ENGINE_METHODS = ("post_message", "advance_round", "count_traffic", "local")
_PROJECTION_METHODS = ("generate", "from_seed")

_HMST_STEP = re.compile(r"^(?:step2_hmst_|orient_[ab]_)(step\d+)$")


class Tracer:
    """In-memory span store plus the routing-call log."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.call_id = -1
        self.routing_depth = 0
        # (call id, primitive, top level, rounds, items, lower bound)
        self.routing_log: list[tuple[int, str, bool, int, int, int]] = []
        # (call id, label, rounds) of charge_rounds outside any primitive
        self.direct_charges: list[tuple[int, str, int]] = []

    def intern(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, fn, name: str):
        """``fn`` with one span per call."""
        code = self.intern(name)
        codes, parents, calls = self.code, self.parent, self.call
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            calls.append(tracer.call_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def wrap_primitive(self, fn, prim: str):
        traced = self.wrap(fn, "routing." + prim)
        measure = self.wrap(_load, "trace.load")  # kept out of the parent's self time
        tracer = self

        def primitive(engine, arg, *args, **kwargs):
            items, lb = measure(prim, engine.n, arg)
            top = tracer.routing_depth == 0
            tracer.routing_depth += 1
            r0 = engine.ledger.rounds
            try:
                return traced(engine, arg, *args, **kwargs)
            finally:
                tracer.routing_depth -= 1
                tracer.routing_log.append(
                    (tracer.call_id, prim, top, engine.ledger.rounds - r0, items, lb)
                )

        return primitive

    def wrap_charge(self, fn):
        tracer = self

        def charge_rounds(engine, rounds, label=""):
            if tracer.routing_depth == 0 and label in PRIMITIVES:
                tracer.direct_charges.append((tracer.call_id, label, rounds))
            return fn(engine, rounds, label)

        return charge_rounds

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "code": np.frombuffer(self.code, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "call": np.frombuffer(self.call, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def _load(prim: str, n: int, arg) -> tuple[int, int]:
    """Items a primitive call routes and, for the two task primitives, the
    lower bound ceil(max per-node cross items / (n-1)) on its rounds."""
    if prim == "vector_multicast":
        return sum(len(chunks) * len(recips) for chunks, recips in arg.values()), 0
    sends: dict[int, int] = {}
    recvs: dict[int, int] = {}
    for it in arg:
        if it.src != it.dst:
            sends[it.src] = sends.get(it.src, 0) + 1
            recvs[it.dst] = recvs.get(it.dst, 0) + 1
    peak = max(max(sends.values(), default=0), max(recvs.values(), default=0))
    return len(arg), math.ceil(peak / (n - 1))


def instrument(tracer: Tracer):
    """Wrap every traced binding; returns a function that restores them."""
    from cliquemat import clusmat, engine, hmst, routing

    modules = {"routing": routing, "hmst": hmst, "clusmat": clusmat}
    saved: list[tuple[object, str, object]] = []

    def replace(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for prim, bindings in _PRIMITIVE_BINDINGS.items():
        for mod, attr in bindings:
            replace(modules[mod], attr, tracer.wrap_primitive(getattr(modules[mod], attr), prim))
    for name, bindings in _FUNCTION_BINDINGS.items():
        for mod, attr in bindings:
            replace(modules[mod], attr, tracer.wrap(getattr(modules[mod], attr), name))
    cls = engine.CliqueEngine
    for meth in _ENGINE_METHODS:
        replace(cls, meth, tracer.wrap(cls.__dict__[meth], "engine." + meth))
    replace(cls, "charge_rounds", tracer.wrap_charge(cls.__dict__["charge_rounds"]))
    fam = hmst.ProjectionFamily
    for meth in _PROJECTION_METHODS:
        fn = fam.__dict__[meth].__func__
        replace(fam, meth, classmethod(tracer.wrap(fn, "hmst.projection." + meth)))

    def restore() -> None:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return restore


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def span_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds, and calls and
    seconds of the spans whose parent is not in the same group (the name up
    to its last dot), so nested calls within a group count once."""
    a = tracer.arrays()
    names = tracer.names
    k = len(names)
    code, parent = a["code"], a["parent"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child
    groups = [nm.rsplit(".", 1)[0] for nm in names]
    parent_code = np.where(has_parent, code[np.maximum(parent, 0)], -1)
    group_id = {g: i for i, g in enumerate(dict.fromkeys(groups))}
    gid = np.array([group_id[g] for g in groups] + [-1])
    outer = gid[code] != gid[parent_code]
    calls = np.bincount(code, minlength=k)
    total = np.bincount(code, weights=dur, minlength=k)
    selfs = np.bincount(code, weights=self_s, minlength=k)
    outer_calls = np.bincount(code[outer], minlength=k)
    outer_s = np.bincount(code[outer], weights=dur[outer], minlength=k)
    return {
        nm: {
            "calls": float(calls[i]),
            "s": float(total[i]),
            "self_s": float(selfs[i]),
            "outer_calls": float(outer_calls[i]),
            "outer_s": float(outer_s[i]),
        }
        for i, nm in enumerate(names)
    }


def primitive_rounds(tracer: Tracer, call_id: int) -> dict[str, int]:
    """Rounds charged to each primitive in one call: top-level calls plus
    direct charges under the primitive's label."""
    out = {p: 0 for p in PRIMITIVES}
    for cid, prim, top, rounds, _, _ in tracer.routing_log:
        if cid == call_id and top:
            out[prim] += rounds
    for cid, label, rounds in tracer.direct_charges:
        if cid == call_id:
            out[label] += rounds
    return out


def step_rounds(ledger) -> dict[str, int]:
    """clusmat step, orientation and hmst sub-step rounds of one ledger."""
    out: dict[str, int] = {f"clusmat.step{i}.rounds": 0 for i in range(1, 11)}
    out.update({"clusmat.orient.rounds": 0, "hmst.step1.rounds": 0, "hmst.step2.rounds": 0})
    for key, rounds in ledger.step_rounds.items():
        sub = _HMST_STEP.match(key)
        if sub:
            if f"hmst.{sub.group(1)}.rounds" in out:
                out[f"hmst.{sub.group(1)}.rounds"] += rounds
        elif key.startswith("orient_"):
            out["clusmat.orient.rounds"] += rounds
        else:
            out[f"clusmat.{key}.rounds"] += rounds
    return out


def layer_metrics(tracer: Tracer, ledgers, infos, traced_calls: int) -> dict[str, float]:
    """Every per-layer metric, per protocol call (mean over the traced
    calls); ``harness.*`` are per instance."""
    tot = span_totals(tracer)
    zero = {"calls": 0.0, "s": 0.0, "self_s": 0.0, "outer_calls": 0.0, "outer_s": 0.0}

    def get(name: str, key: str) -> float:
        return tot.get(name, zero)[key]

    per_call = 1.0 / traced_calls
    m: dict[str, float] = {}
    for meth in ("post_message", "advance_round", "count_traffic"):
        m[f"engine.{meth}.calls"] = get(f"engine.{meth}", "calls") * per_call
        m[f"engine.{meth}.self_s"] = get(f"engine.{meth}", "self_s") * per_call
    m["engine.local.self_s"] = get("engine.local", "self_s") * per_call
    messages = sum(led.messages for led in ledgers) / len(ledgers)
    msg_s = m["engine.post_message.self_s"] + m["engine.advance_round.self_s"]
    m["engine.us_per_msg"] = 1e6 * msg_s / messages if messages else 0.0
    m["engine.work_imbalance"] = _mean(
        led.work_max_node / (led.work_total / led.n) for led in ledgers
    )

    for prim in PRIMITIVES:
        name = "routing." + prim
        log = [r for r in tracer.routing_log if r[1] == prim]
        m[name + ".calls"] = get(name, "calls") * per_call
        m[name + ".self_s"] = get(name, "self_s") * per_call
        m[name + ".items"] = sum(r[4] for r in log) * per_call
        m[name + ".rounds"] = sum(
            primitive_rounds(tracer, cid)[prim] for cid in range(traced_calls)
        ) * per_call
        if prim != "vector_multicast":
            lb = sum(r[5] for r in log)
            m[name + ".rounds_per_lb"] = sum(r[3] for r in log) / lb if lb else 0.0

    m["hmst.run_hmst.self_s"] = get("hmst.run_hmst", "self_s") * per_call
    m["hmst.projection.calls"] = sum(
        get("hmst.projection." + p, "outer_calls") for p in _PROJECTION_METHODS
    ) * per_call
    m["hmst.projection.s"] = sum(
        get("hmst.projection." + p, "outer_s") for p in _PROJECTION_METHODS
    ) * per_call
    m["hmst.sketch_point.s"] = get("hmst.sketch_point", "s") * per_call
    m["hmst.build_estimated_graph.s"] = get("hmst.build_estimated_graph", "s") * per_call

    steps = [step_rounds(led) for led in ledgers]
    for key in steps[0]:
        m[key] = _mean(s[key] for s in steps)
    m["hmst.step1.round_share"] = _mean(
        s["hmst.step1.rounds"] / led.rounds for s, led in zip(steps, ledgers)
    )

    m["clusmat.run_clusmat.self_s"] = get("clusmat.run_clusmat", "self_s") * per_call
    m["clusmat.choose_orientation.self_s"] = get("clusmat.choose_orientation", "self_s") * per_call
    plan = ("clusmat.plan.plan_blocks", "clusmat.plan.assign_pairs", "clusmat.plan.witness_schedules")
    m["clusmat.plan.calls"] = sum(get(p, "calls") for p in plan) * per_call
    m["clusmat.plan.s"] = sum(get(p, "s") for p in plan) * per_call
    m["clusmat.distribute_witnesses.s"] = get("clusmat.distribute_witnesses", "s") * per_call
    m["clusmat.block_multiply.calls"] = get("clusmat.block_multiply", "calls") * per_call
    m["clusmat.block_multiply.self_s"] = get("clusmat.block_multiply", "self_s") * per_call

    from cliquemat import harness

    m["clusmat.m_realized"] = _mean(info["m_realized"] for info in infos)
    m["clusmat.rounds_vs_model"] = _mean(
        led.rounds / harness.rounds_model(led.n, info["m_realized"])
        for led, info in zip(ledgers, infos)
    )
    m["clusmat.work_vs_model"] = _mean(
        led.work_total / harness.work_model(led.n, info["m_realized"])
        for led, info in zip(ledgers, infos)
    )

    m["bits.euler_traversal.s"] = get("bits.euler_traversal", "s") * per_call
    m["bits.local_mst.s"] = get("bits.local_mst", "s") * per_call
    m["bits.unpack_chunks.calls"] = get("bits.unpack_chunks", "calls") * per_call
    m["bits.unpack_chunks.s"] = get("bits.unpack_chunks", "s") * per_call
    m["bits.pack_chunks.s"] = get("bits.pack_chunks", "s") * per_call

    m["harness.generate.s"] = get("harness.generate", "s") / len(ledgers)
    m["harness.verify.s"] = get("harness.verify", "s") / max(1.0, get("harness.verify", "calls"))
    return m


def _mean(values) -> float:
    vals = list(values)
    return sum(vals) / len(vals)
