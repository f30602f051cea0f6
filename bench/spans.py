"""Outside-in tracing of prekem's layers, for the benchmark's traced runs.

install() rebinds, in every loaded prekem module, each name that refers to a
traced function, so every call that crosses a module boundary records a
span: name, start, end, parent span and op id.  GF(2^m) arithmetic
(FieldCtx.mul and FieldCtx.pow) is far too hot for a span per call: its
outermost calls are timed and folded into their parent span, with call
counts and time per field width.  Spans stay in memory until the run ends;
layer_metrics() derives the per-layer figures from them.

A span's self time is its duration minus the part of it that its child spans
cover (the union of their intervals) minus its folded GF(2^m) time.  The
process is single-threaded, so folded calls are disjoint from one another
and from sibling spans, and their summed time is their union.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# functions traced, by layer (= module of prekem that defines them)
TRACED = {
    "source": ("recon_set", "sample"),
    "uhash": ("h_cea", "h_cca", "hprime", "twise_poly"),
    "ikem": ("gen", "encap", "decap", "serialize_ciphertext",
             "parse_ciphertext"),
    "dem": ("encrypt_ot", "decrypt_ot", "encrypt_otcca", "decrypt_otcca",
            "aes_ctr_keystream"),
    "hybrid": ("he_encrypt", "he_decrypt", "serialize_envelope",
               "parse_envelope"),
    "combiner": ("prf_it", "prf_comp", "combine_xor", "combine_ptx"),
    "games": ("run_pkind", "run_kint", "run_dem_ind", "run_pri",
              "exact_distance", "brute_force_forger"),
    "cli": ("cmd_params", "cmd_sample", "cmd_encap", "cmd_decap",
            "cmd_he_encrypt", "cmd_he_decrypt", "cmd_combine"),
}
CLI_COMMANDS = tuple(name[4:].replace("_", "-") for name in TRACED["cli"])
# field widths the workloads use; any other width is counted under "other"
WIDTHS = (2, 4, 5, 6, 8, 24, 40, 128, 527, 553, 1080)
# a traced loop stops after the cycle in which the span count passes this
MAX_SPANS = 1_500_000


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _hooks():
    """Counters kept at the traced boundaries: name -> f(counters, args, kwargs, result)."""
    def rejects(key):
        def hook(c, a, k, r):
            if r is None:
                c[key] += 1
        return hook

    def dem_bytes(otcca, decrypt):
        def hook(c, a, k, r):
            data = _arg(a, k, 1, "c" if decrypt else "m")
            nbytes = len(data.body if decrypt else data)
            c["dem.bytes"] += nbytes
            if otcca:
                c["dem.otcca_bytes"] += nbytes
                if decrypt and r is None:
                    c["dem.tag_rejects"] += 1
        return hook

    def trials(game, arms):
        def hook(c, a, k, r):
            c[f"games.{game}_trials"] += arms * _arg(a, k, 0, "config").trials
            if r.exceeds_bound():
                c["games.bound_exceeded"] += 1
        return hook

    def members(c, a, k, r):
        c["source.recon_members"] += len(r.members)

    def exit_code(c, a, k, r):
        if r != 0:
            c["cli.nonzero_exits"] += 1

    hooks = {
        "source.recon_set": members,
        "ikem.decap": rejects("ikem.decap_rejects"),
        "dem.encrypt_ot": dem_bytes(False, False),
        "dem.decrypt_ot": dem_bytes(False, True),
        "dem.encrypt_otcca": dem_bytes(True, False),
        "dem.decrypt_otcca": dem_bytes(True, True),
        "hybrid.he_decrypt": rejects("hybrid.rejects"),
        "games.run_pkind": trials("pkind", 2),
        "games.run_kint": trials("kint", 1),
        "games.run_dem_ind": trials("dem", 2),
        "games.run_pri": trials("pri", 2),
    }
    hooks.update((f"cli.{name}", exit_code) for name in TRACED["cli"])
    return hooks


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.op_ids = array("q")
        self.folded = array("d")        # GF(2^m) time folded into each span
        self.folded_calls = array("q")  # outermost GF(2^m) calls under each span
        self.counters = Counter()
        self.gf2 = {}                   # width -> [calls, timed calls, seconds]
        self._stack = [-1]
        self._op = -1
        self._in_gf2 = False
        self._undo = []

    @property
    def full(self) -> bool:
        return len(self.names) > MAX_SPANS

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.op_ids.append(self._op)
        self.folded.append(0.0)
        self.folded_calls.append(0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def op(self, op_id: int, run):
        """Run one workload op as the root span "bench.op"."""
        self._op = op_id
        idx = self._open("bench.op")
        try:
            return run()
        finally:
            self._close(idx)

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result
        return traced

    def _wrap_gf2(self, fn, is_mul):
        @functools.wraps(fn)
        def folded(ctx, *args):
            if is_mul:
                stats = self.gf2.get(ctx.m)
                if stats is None:
                    stats = self.gf2[ctx.m] = [0, 0, 0.0]
                stats[0] += 1
            if self._in_gf2:
                return fn(ctx, *args)
            self._in_gf2 = True
            t0 = time.perf_counter()
            try:
                return fn(ctx, *args)
            finally:
                dt = time.perf_counter() - t0
                self._in_gf2 = False
                parent = self._stack[-1]
                if parent >= 0:
                    self.folded[parent] += dt
                    self.folded_calls[parent] += 1
                if is_mul:
                    stats[1] += 1
                    stats[2] += dt
        return folded

    def install(self) -> None:
        """Rebind every traced name in every loaded prekem module."""
        from prekem.gf2 import FieldCtx

        hooks = _hooks()
        wrappers = {}
        for layer, funcs in TRACED.items():
            module = sys.modules.get(f"prekem.{layer}")
            if module is None:
                continue
            for func in funcs:
                name = f"{layer}.{func}"
                original = getattr(module, func)
                wrappers[id(original)] = (original,
                                          self._wrap(name, original, hooks.get(name)))
        for modname, module in list(sys.modules.items()):
            if modname != "prekem" and not modname.startswith("prekem."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))
        for attr in ("mul", "pow"):
            original = getattr(FieldCtx, attr)
            setattr(FieldCtx, attr, self._wrap_gf2(original, attr == "mul"))
            self._undo.append((FieldCtx, attr, original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def self_times(starts, ends, parents, folded):
    """Per span: duration minus the union of its children's intervals
    (clipped to the span) minus its folded time."""
    n = len(starts)
    covered = array("d", bytes(8 * n))
    reach = array("d", [float("-inf")]) * n
    ordered = all(starts[i] <= starts[i + 1] for i in range(n - 1))
    for i in range(n) if ordered else sorted(range(n), key=starts.__getitem__):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach[p], starts[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        if ends[i] > reach[p]:
            reach[p] = ends[i]
    return array("d", (ends[i] - starts[i] - covered[i] - folded[i]
                       for i in range(n)))


def layer_metrics(tr: Tracer, ops: int):
    """Per-layer figures per workload op, from the spans and counters of a run."""
    selfs = self_times(tr.starts, tr.ends, tr.parents, tr.folded)
    count, total, own = Counter(), Counter(), Counter()
    layer_self, folded_calls = Counter(), Counter()
    hashes_in_decap = 0
    names, parents = tr.names, tr.parents
    for i, name in enumerate(names):
        count[name] += 1
        total[name] += tr.ends[i] - tr.starts[i]
        own[name] += selfs[i]
        layer = name.partition(".")[0]
        layer_self[layer] += selfs[i]
        folded_calls[layer] += tr.folded_calls[i]
        if (name in ("uhash.h_cea", "uhash.h_cca") and parents[i] >= 0
                and names[parents[i]] == "ikem.decap"):
            hashes_in_decap += 1
    c = tr.counters

    def ratio(a, b):
        return a / b if b else 0.0

    def per_op(x):
        return x / ops

    m = {}
    by_key = {}
    for w, stats in tr.gf2.items():
        key = f"m{w}" if w in WIDTHS else "other"
        row = by_key.setdefault(key, [0, 0, 0.0])
        for col, value in enumerate(stats):
            row[col] += value
    for key in [f"m{w}" for w in WIDTHS] + ["other"]:
        calls, timed, secs = by_key.get(key, (0, 0, 0.0))
        m[f"gf2.mul_calls_per_op.{key}"] = per_op(calls)
        m[f"gf2.mul_us.{key}"] = ratio(secs, timed) * 1e6
    m["gf2.self_ms_per_op"] = per_op(sum(tr.folded)) * 1e3

    recon = "source.recon_set"
    m["source.recon_set_calls"] = per_op(count[recon])
    m["source.recon_members_per_call"] = ratio(c["source.recon_members"], count[recon])
    m["source.recon_us_per_member"] = ratio(total[recon], c["source.recon_members"]) * 1e6
    m["source.self_ms_per_op"] = per_op(layer_self["source"]) * 1e3
    m["source.sample_ms_per_op"] = per_op(total["source.sample"]) * 1e3

    for func in ("h_cea", "h_cca", "hprime", "twise_poly"):
        m[f"uhash.{func}_calls"] = per_op(count[f"uhash.{func}"])
    m["uhash.self_ms_per_op"] = per_op(layer_self["uhash"]) * 1e3

    decaps = count["ikem.decap"]
    m["ikem.encap_self_ms"] = per_op(own["ikem.encap"]) * 1e3
    m["ikem.decap_self_ms"] = per_op(own["ikem.decap"]) * 1e3
    m["ikem.encap_ms_per_call"] = ratio(total["ikem.encap"], count["ikem.encap"]) * 1e3
    m["ikem.decap_ms_per_call"] = ratio(total["ikem.decap"], decaps) * 1e3
    m["ikem.wire_ms_per_op"] = per_op(total["ikem.serialize_ciphertext"]
                                      + total["ikem.parse_ciphertext"]) * 1e3
    m["ikem.hashes_per_decap"] = ratio(hashes_in_decap, decaps)
    m["ikem.accepts_per_hash"] = ratio(decaps - c["ikem.decap_rejects"], hashes_in_decap)
    m["ikem.decap_rejects"] = per_op(c["ikem.decap_rejects"])
    m["ikem.decap_fail_ratio"] = 0.0

    otcca_s = total["dem.encrypt_otcca"] + total["dem.decrypt_otcca"]
    m["dem.bytes_per_op"] = per_op(c["dem.bytes"])
    m["dem.self_ms_per_op"] = per_op(layer_self["dem"]) * 1e3
    m["dem.keystream_ms_per_op"] = per_op(total["dem.aes_ctr_keystream"]) * 1e3
    m["dem.mac_mul_calls_per_op"] = per_op(folded_calls["dem"])
    m["dem.otcca_mib_per_s"] = ratio(c["dem.otcca_bytes"], otcca_s) / 2 ** 20
    m["dem.tag_rejects"] = per_op(c["dem.tag_rejects"])

    m["hybrid.self_ms_per_op"] = per_op(layer_self["hybrid"]) * 1e3
    m["hybrid.envelope_ms_per_op"] = per_op(total["hybrid.serialize_envelope"]
                                            + total["hybrid.parse_envelope"]) * 1e3
    m["hybrid.rejects"] = per_op(c["hybrid.rejects"])

    m["combiner.prf_it_calls"] = per_op(count["combiner.prf_it"])
    m["combiner.prf_comp_calls"] = per_op(count["combiner.prf_comp"])
    m["combiner.self_ms_per_op"] = per_op(layer_self["combiner"]) * 1e3

    for game in ("pkind", "kint", "dem", "pri"):
        span = "games.run_dem_ind" if game == "dem" else f"games.run_{game}"
        m[f"games.{game}_trials_per_s"] = ratio(c[f"games.{game}_trials"], total[span])
    m["games.exact_distance_s"] = per_op(total["games.exact_distance"])
    m["games.forger_calls"] = per_op(count["games.brute_force_forger"])
    m["games.self_ms_per_op"] = per_op(layer_self["games"]) * 1e3
    m["games.bound_exceeded"] = per_op(c["games.bound_exceeded"])

    m["cli.interp_start_s"] = 0.0
    m["cli.import_s"] = 0.0
    for cmd, func in zip(CLI_COMMANDS, TRACED["cli"]):
        span = f"cli.{func}"
        m[f"cli.cmd_ms.{cmd}"] = ratio(total[span], count[span]) * 1e3
    m["cli.nonzero_exits"] = per_op(c["cli.nonzero_exits"])
    return m
