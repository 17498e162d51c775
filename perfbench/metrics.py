"""Turns the driver's raw measurements into the benchmark's metrics.

End-to-end metrics come from the raw result of an untraced run; per-layer
metrics come only from the span file a traced run writes (plus that run's
raw result for the harness figures).  Percentiles are nearest-rank
throughout.
"""

import bisect
import json
import math
import os
import statistics

# Every workload run.py runs.  BENCHMARK.json gates only hot-wire and
# scan-overflow: update-mix's latencies follow the host disk's fsync tail
# and could not be made steady on a shared virtual machine (README.md).
WORKLOADS = ("hot-wire", "scan-overflow", "update-mix")

# hot-wire's sustained rate: the highest ladder rate whose windowed p99
# stays within this limit without a growing backlog.
LATENCY_LIMIT_US = 5000.0

# The reported p99 is taken per fixed time window, and a quantile over the
# windows is reported: (window seconds or None for one window, quantile
# over windows).  On a shared host, scheduler stalls from outside the
# process hit whole windows, and an open loop charges them to every request
# due meanwhile.  hot-wire's tail is short and such stalls dominate it, so
# it reports the lowest decile of its 0.1 s windows; update-mix's tail is
# the program's own fsync and publish stalls, so it reports the median of
# its 1 s windows; scan-overflow's closed loop completes too few queries
# for short windows, so it pools the run.
TAIL_WINDOWS = {"hot-wire": (0.1, 0.1), "scan-overflow": (None, 0.5),
                "update-mix": (1.0, 0.5)}
# The ladder judges each rate by the median of its 0.25 s windows' p99.
LADDER_WINDOWS = (0.25, 0.5)

# A time window is left out when the hypervisor stole more than this share
# of the machine's CPU time during it (the driver samples /proc/stat's
# steal column): a shared host's load is not the program's.  When that
# would leave less than a quarter of a measurement, the quarter of its
# windows with the least steal is kept instead.
STEAL_LIMIT = 0.02
CLEAN_GRID_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "qps": "1/s",
    "records_per_s": "1/s",
    "io_per_query": "count",
    "space_amp": "ratio",
    "peak_rss_mb": "MB",
}

KINDS = ("two_sided", "three_sided", "stab")
ROLES = ("navigation", "cache", "corner", "ancestor", "sibling",
         "descendant", "buffer")

PER_LAYER = {
    "net.self_us_p50": "us",
    "net.self_us_p99": "us",
    "net.bytes_per_query": "bytes",
    "net.read_pauses": "count",
    "net.retry_after": "count",
    "serve.latency_us_p50": "us",
    "serve.latency_us_p99": "us",
    "serve.self_us_p50": "us",
    "serve.max_queue_depth": "count",
    "serve.rejected_frac": "frac",
    "serve.expired_frac": "frac",
    "serve.read_repins": "count",
    "shard.fanout": "count",
    "shard.merge_us_p50": "us",
    "shard.slice_skew": "ratio",
}
for _k in KINDS:
    PER_LAYER["core.%s.query_us_p50" % _k] = "us"
    PER_LAYER["core.%s.self_us_p50" % _k] = "us"
for _r in ROLES:
    PER_LAYER["core.reads.%s_per_query" % _r] = "count"
PER_LAYER.update({
    "core.useful_frac": "frac",
    "core.reads_over_bound_mean": "ratio",
    "core.reads_over_bound_max": "ratio",
    "core.records_per_query": "count",
    "io.pool.hit_rate": "frac",
    "io.pool.evictions_per_query": "count",
    "io.pool.calls_per_query": "count",
    "io.pool.us_per_call": "us",
    "io.device.reads_per_query": "count",
    "io.device.read_syscalls_per_query": "count",
    "io.device.us_per_read": "us",
    "io.checksum.self_us_per_read": "us",
    "io.device.writes_per_update": "count",
    "io.device.syncs_per_update": "count",
    "dynamic.update_p50_us": "us",
    "dynamic.update_p99_us": "us",
    "dynamic.apply_us_p50": "us",
    "dynamic.apply_us_p99": "us",
    "dynamic.write_amp": "ratio",
    "dynamic.syncs_per_group": "count",
    "dynamic.rebuilds": "count",
    "dynamic.delta_entries_max": "count",
    "dynamic.overlay_reads_per_query": "count",
    "loadgen.lag_p99_us": "us",
    "trace.overhead_frac": "frac",
    "error_rate": "frac",
})


# ---------------------------------------------------------------------------
# Percentiles.

def nearest_rank(sorted_values, q):
    """The q-quantile (0 < q <= 1) of an ascending list by nearest rank:
    the value at rank ceil(q * n), ranks counted from 1."""
    if not sorted_values:
        raise ValueError("no samples")
    n = len(sorted_values)
    rank = min(n, max(1, math.ceil(q * n - 1e-9)))
    return sorted_values[rank - 1]


def tail_quantile(n, highest=0.99):
    """The highest of the standard tail quantiles, capped at `highest`,
    that leaves at least ten samples beyond it; 0.5 when none does."""
    for q in (0.999, 0.99, 0.95, 0.9, 0.75):
        if q <= highest + 1e-12 and n * (1.0 - q) >= 10 - 1e-9:
            return q
    return 0.5


def tail(values, highest=0.99):
    """(value, quantile used) of the sample's supported tail."""
    s = sorted(values)
    q = tail_quantile(len(s), highest)
    return nearest_rank(s, q), q


class HostNoise:
    """Steal-time share per time window, from the driver's samples of
    cumulative steal ticks; with no samples nothing counts as stolen."""

    def __init__(self, raw):
        self.t = [t for t, _ in raw.get("steal", [])]
        self.ticks = [k for _, k in raw.get("steal", [])]
        cpus = int(raw.get("meta", {}).get("nproc") or os.cpu_count() or 1)
        hz = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100
        self.capacity_per_ns = cpus * hz / 1e9

    def _cum(self, t):
        i = bisect.bisect_left(self.t, t)
        if i == 0:
            return self.ticks[0]
        if i == len(self.t):
            return self.ticks[-1]
        t0, t1 = self.t[i - 1], self.t[i]
        k0, k1 = self.ticks[i - 1], self.ticks[i]
        return k0 + (k1 - k0) * (t - t0) / max(1, t1 - t0)

    def stolen(self, a_ns, b_ns):
        if len(self.t) < 2 or b_ns <= a_ns:
            return 0.0
        return (self._cum(b_ns) - self._cum(a_ns)) / (
            (b_ns - a_ns) * self.capacity_per_ns)

    def quiet(self, keys, width):
        """The window keys (window k spans [k, k+1) * width) to keep: those
        under STEAL_LIMIT, or the least-stolen quarter when those are
        fewer."""
        stolen = {k: self.stolen(k * width, (k + 1) * width) for k in keys}
        kept = {k for k, v in stolen.items() if v <= STEAL_LIMIT}
        if 4 * len(kept) < len(stolen):
            ranked = sorted(stolen, key=lambda k: (stolen[k], k))
            kept = set(ranked[:max(1, (len(ranked) + 3) // 4)])
        return kept


def windowed_tail(values, at_ns, window_s, over=0.5, highest=0.99,
                  noise=None):
    """The `over`-quantile (nearest rank) over fixed time windows of each
    window's supported tail.  Windows the host stole from are left out
    (see STEAL_LIMIT); windows with fewer than 100 samples are folded into
    their neighbour.  Returns (value, lowest tail quantile used, number of
    windows)."""
    if not values:
        raise ValueError("no samples")
    if window_s is None:
        return tail(values, highest) + (1,)
    width = int(window_s * 1e9)
    buckets = {}
    for v, t in zip(values, at_ns):
        buckets.setdefault(t // width, []).append(v)
    if noise is not None:
        kept = noise.quiet(buckets, width)
        buckets = {k: v for k, v in buckets.items() if k in kept}
    groups, cur = [], []
    for key in sorted(buckets):
        cur.extend(buckets[key])
        if len(cur) >= 100:
            groups.append(cur)
            cur = []
    if cur:
        if groups:
            groups[-1].extend(cur)
        else:
            groups.append(cur)
    tails = [tail(g, highest) for g in groups]
    value = nearest_rank(sorted(v for v, _ in tails), over)
    return value, min(q for _, q in tails), len(groups)


def us(ns):
    return ns / 1000.0


# ---------------------------------------------------------------------------
# End-to-end metrics.

SAMPLE_KEYS = ("query_ns", "query_at_ns", "query_records", "update_ns",
               "update_at_ns", "lag_ns")
TOTAL_KEYS = ("records", "queries", "io_reads", "seconds", "unsent")


def merged(segments):
    """One segment from several of the same kind (timestamps are offsets
    from one run origin, so their windows never collide)."""
    out = {k: [] for k in SAMPLE_KEYS}
    out.update({k: 0 for k in TOTAL_KEYS})
    out["spans"] = []
    for seg in segments:
        for k in SAMPLE_KEYS:
            out[k].extend(seg.get(k, ()))
        for k in TOTAL_KEYS:
            out[k] += seg[k]
        out["spans"].append((seg["start_ns"],
                             seg["start_ns"] + int(seg["seconds"] * 1e9)))
    return out


def clean_view(seg, noise):
    """The segment restricted to the CLEAN_GRID_S windows HostNoise.quiet
    keeps: samples due (or called) in them, and their total time.  Returns
    (view, share of the time kept)."""
    width = int(CLEAN_GRID_S * 1e9)
    overlap = {}
    for a, b in seg["spans"]:
        for k in range(a // width, b // width + 1):
            lo, hi = max(a, k * width), min(b, (k + 1) * width)
            if hi > lo:
                overlap[k] = overlap.get(k, 0) + hi - lo
    total = sum(overlap.values())
    if total == 0:
        return seg, 1.0
    clean_keys = noise.quiet(overlap, width)
    kept = sum(overlap[k] for k in clean_keys)
    view = dict(seg)
    for prefix in ("query", "update"):
        keep = [i for i, t in enumerate(seg[prefix + "_at_ns"])
                if t // width in clean_keys]
        view[prefix + "_at_ns"] = [seg[prefix + "_at_ns"][i] for i in keep]
        view[prefix + "_ns"] = [seg[prefix + "_ns"][i] for i in keep]
        if prefix == "query":
            view["query_records"] = [seg["query_records"][i] for i in keep]
    view["seconds"] = kept / 1e9
    view["records"] = sum(view["query_records"])
    return view, kept / total


def main_segment(raw):
    name = "reference" if raw["workload"] == "hot-wire" else "measure"
    segs = [s for s in raw["segments"] if s["name"] == name]
    if not segs:
        raise ValueError("raw result has no measured segment")
    return merged(segs)


def ladder_rung(segs, noise=None):
    """(windowed p99 in us, backlog growing?) of one rate's rung segments.
    A backlog grows when the sender could not get every request out, or
    when most segments' last quarter waits more than twice as long as
    their first quarter (plus 200 us)."""
    seg = merged(segs)
    if not seg["query_ns"]:
        return math.inf, True
    p99, _, _ = windowed_tail(seg["query_ns"], seg["query_at_ns"],
                              *LADDER_WINDOWS, noise=noise)
    growing = 0
    for s in segs:
        order = sorted(range(len(s["query_ns"])),
                       key=lambda i: s["query_at_ns"][i])
        quarter = max(1, len(order) // 4)
        first = statistics.median(s["query_ns"][i] for i in order[:quarter])
        last = statistics.median(s["query_ns"][i] for i in order[-quarter:])
        growing += last > 2 * first + 200_000
    return us(p99), seg["unsent"] > 0 or 2 * growing > len(segs)


def sustained_rate(raw, limit_us=LATENCY_LIMIT_US):
    """Highest ladder rate meeting the limit, interpolated on log p99
    between the last passing rate and the first failing one.  When the
    failing rate's p99 is still under the limit (only its backlog grew),
    the crossing is put midway."""
    rates = sorted({s["rate"] for s in raw["segments"] if s["name"] == "ladder"})
    prev = None
    for rate in rates:
        segs = [s for s in raw["segments"]
                if s["name"] == "ladder" and s["rate"] == rate]
        p99, growing = ladder_rung(segs, HostNoise(raw))
        if p99 <= limit_us and not growing:
            prev = (rate, p99)
            continue
        cost = max(p99, limit_us)
        if prev is None:
            return rate * limit_us / cost
        prate, pp99 = prev
        frac = 0.5
        if cost > limit_us:
            frac = (math.log(limit_us) - math.log(pp99)) / (
                math.log(cost) - math.log(pp99))
        return prate + min(1.0, max(0.0, frac)) * (rate - prate)
    return prev[0] if prev else 0.0


def end_to_end(raw):
    """Every end-to-end metric as {name: value}, plus sample counts."""
    wl = raw["workload"]
    noise = HostNoise(raw)
    full = main_segment(raw)
    seg, kept = clean_view(full, noise)
    lat = sorted(seg["query_ns"])
    p99, q_used, windows = windowed_tail(seg["query_ns"], seg["query_at_ns"],
                                         *TAIL_WINDOWS[wl], noise=noise)
    c = raw["counters"]
    if wl == "hot-wire":
        qps = sustained_rate(raw)
    else:
        qps = len(seg["query_ns"]) / seg["seconds"]
    values = {
        "setup_s": statistics.median(raw["setup_ns"]) / 1e9,
        "query_p50_us": us(nearest_rank(lat, 0.5)),
        "query_p99_us": us(p99),
        "qps": qps,
        "records_per_s": seg["records"] / seg["seconds"],
        "io_per_query": full["io_reads"] / max(1, full["queries"]),
        "space_amp": c["store_bytes"] / c["user_bytes"],
        "peak_rss_mb": c["peak_rss_kb"] / 1024.0,
    }
    samples = {
        "query": len(lat),
        "query_tail_quantile": q_used,
        "query_tail_windows": windows,
        "setups": len(raw["setup_ns"]),
        "time_kept_after_steal": round(kept, 3),
    }
    return values, samples


# ---------------------------------------------------------------------------
# Per-layer metrics, from the span file.

class Trace:
    def __init__(self, events):
        self.spans = []
        self.counters = {}
        for e in events:
            if e.get("ph") == "X":
                a = e["args"]
                self.spans.append(a | {"name": e["name"]})
            elif e.get("ph") == "C":
                self.counters[e["name"]] = e["args"]
        self.by_id = {s["id"]: s for s in self.spans}
        self.children = {}
        for s in self.spans:
            if s["parent"]:
                self.children.setdefault(s["parent"], []).append(s)

    @classmethod
    def load(cls, path):
        with open(path) as f:
            return cls(json.load(f)["traceEvents"])

    def named(self, prefix):
        return [s for s in self.spans if s["name"].startswith(prefix)]

    def counter(self, name, key, default=0.0):
        return float(self.counters.get(name, {}).get(key, default))

    def self_ns(self, span):
        """Duration minus the union of the child spans' intervals."""
        kids = sorted((max(k["t0"], span["t0"]), min(k["t1"], span["t1"]))
                      for k in self.children.get(span["id"], ()))
        covered, end = 0, span["t0"]
        for a, b in kids:
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        return (span["t1"] - span["t0"]) - covered


def dur(s):
    return s["t1"] - s["t0"]


def p50_us(values):
    return us(nearest_rank(sorted(values), 0.5)) if values else 0.0


def tail_us(values):
    return us(tail(values)[0]) if values else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(raw, trace):
    """Every per-layer metric; a layer the workload does not cross reads 0."""
    m = {name: 0.0 for name in PER_LAYER}
    serve = trace.named("serve:request")
    direct = {s["req"]: s for s in trace.named("direct:request") if s["req"]}
    cores = trace.named("core:")
    queries = len([s for s in direct.values()
                   if any(k["name"].startswith("core:")
                          for k in trace.children.get(s["id"], ()))])

    # net: client latency minus the wrapped service's latency, joined on the
    # query key the request's tag makes unique.
    clients = trace.named("net:request")
    if clients:
        by_key = {}
        for s in serve:
            by_key.setdefault(s.get("key"), []).append(s)
        selfs = []
        for c in clients:
            best = None
            for s in by_key.get(c.get("key"), ()):
                if c["t0"] <= s["t0"] + 1_000_000 and s["t1"] <= c["t1"]:
                    if best is None or s["t0"] > best["t0"]:
                        best = s
            if best is not None:
                selfs.append(dur(c) - dur(best))
                best["req"] = c["req"]
        m["net.self_us_p50"] = p50_us(selfs)
        m["net.self_us_p99"] = tail_us(selfs)
        m["net.bytes_per_query"] = ratio(trace.counter("net", "bytes"),
                                         trace.counter("net", "queries"))
        m["net.read_pauses"] = trace.counter("net", "read_pauses")
        m["net.retry_after"] = trace.counter("net", "retry_after")

    # serve: the wrapped QueryService span; its self time is what the same
    # request cost beyond the direct pass over the structures.
    if serve:
        m["serve.latency_us_p50"] = p50_us([dur(s) for s in serve])
        m["serve.latency_us_p99"] = tail_us([dur(s) for s in serve])
        selfs = [dur(s) - dur(direct[s["req"]])
                 for s in serve if s.get("req") in direct]
        m["serve.self_us_p50"] = p50_us(selfs)
    submitted = trace.counter("serve", "submitted")
    rejected = trace.counter("serve", "rejected")
    m["serve.max_queue_depth"] = trace.counter("serve", "max_queue_depth")
    m["serve.rejected_frac"] = ratio(rejected, submitted + rejected)
    m["serve.expired_frac"] = ratio(trace.counter("serve", "expired"),
                                    submitted)
    m["serve.read_repins"] = trace.counter("serve", "read_repins")

    # shard: per-slice breakdown the router reports on each result.
    routed = [s for s in serve if "fanout" in s]
    if routed:
        m["shard.fanout"] = statistics.mean(s["fanout"] for s in routed)
        m["shard.merge_us_p50"] = p50_us(
            [max(0.0, dur(s) - 1000.0 * s["slice_max_us"]) for s in routed])
        m["shard.slice_skew"] = statistics.mean(
            ratio(s["slice_max_us"], s["slice_mean_us"]) or 1.0
            for s in routed)

    # core: direct-pass structure calls; self time excludes pool calls.
    for kind in KINDS:
        spans = [s for s in cores if s["name"] == "core:" + kind]
        m["core.%s.query_us_p50" % kind] = p50_us([dur(s) for s in spans])
        m["core.%s.self_us_p50" % kind] = p50_us(
            [trace.self_ns(s) for s in spans])
    if cores and queries:
        for role in ROLES:
            m["core.reads.%s_per_query" % role] = ratio(
                sum(s[role] for s in cores), queries)
        total = sum(sum(s[r] for r in ROLES) for s in cores)
        m["core.useful_frac"] = ratio(sum(s["useful"] for s in cores), total)
        bounds = []
        for s in cores:
            b = max(2, int(s["b"]))
            n = max(2, int(s["n"]))
            log_b = 0
            p = 1
            while p < n:
                p *= b
                log_b += 1
            bound = max(1, log_b + math.ceil(s["records"] / b))
            bounds.append(sum(s[r] for r in ROLES) / bound)
        m["core.reads_over_bound_mean"] = statistics.mean(bounds)
        m["core.reads_over_bound_max"] = max(bounds)
        m["core.records_per_query"] = ratio(sum(s["records"] for s in cores),
                                            queries)

    # io: the decorators below and above the pool (read-side calls only;
    # writes and syncs are the update path's, counted per update below).
    pool = [s for s in trace.named("io.pool:")
            if s["name"] not in ("io.pool:write", "io.pool:sync")]
    hits = trace.counter("direct", "pool_hits")
    misses = trace.counter("direct", "pool_misses")
    m["io.pool.hit_rate"] = ratio(hits, hits + misses)
    m["io.pool.evictions_per_query"] = ratio(
        trace.counter("direct", "pool_evictions"), queries)
    m["io.pool.calls_per_query"] = ratio(len(pool), queries)
    m["io.pool.us_per_call"] = us(ratio(sum(dur(s) for s in pool), len(pool)))
    m["io.device.reads_per_query"] = ratio(
        trace.counter("direct", "device_reads"), queries)
    m["io.device.read_syscalls_per_query"] = ratio(
        trace.counter("direct", "device_read_syscalls"), queries)
    reads = [s for s in trace.named("io.device:")
             if s["name"] in ("io.device:read", "io.device:read_batch",
                              "io.device:submit_batch",
                              "io.device:await_batch")]
    m["io.device.us_per_read"] = us(ratio(
        sum(dur(s) for s in reads), sum(s.get("pages", 0) for s in reads)))
    sums = [s for s in trace.named("io.checksum:")
            if s["name"] in ("io.checksum:read", "io.checksum:read_batch",
                             "io.checksum:submit_batch",
                             "io.checksum:await_batch", "io.checksum:pin")]
    m["io.checksum.self_us_per_read"] = us(ratio(
        sum(trace.self_ns(s) for s in sums),
        sum(s.get("pages", 0) for s in sums)))
    groups = trace.counter("dynamic", "groups")
    m["io.device.writes_per_update"] = ratio(
        trace.counter("dynamic", "device_writes"), groups)
    m["io.device.syncs_per_update"] = ratio(
        trace.counter("dynamic", "device_syncs"), groups)

    # dynamic: update groups, the overlay merge, rebuilds.
    if raw["workload"] == "update-mix":
        seg = [s for s in raw["segments"] if s["name"] == "untraced"][0]
        if seg["update_ns"]:
            m["dynamic.update_p50_us"] = p50_us(seg["update_ns"])
            m["dynamic.update_p99_us"] = us(windowed_tail(
                seg["update_ns"], seg["update_at_ns"],
                *TAIL_WINDOWS["update-mix"])[0])
        applies = [dur(s) for s in trace.named("dynamic:apply")]
        m["dynamic.apply_us_p50"] = p50_us(applies)
        m["dynamic.apply_us_p99"] = tail_us(applies)
        m["dynamic.write_amp"] = ratio(
            trace.counter("dynamic", "device_writes") *
            trace.counter("dynamic", "page_size"),
            trace.counter("dynamic", "updates") * 24)
        m["dynamic.syncs_per_group"] = ratio(
            trace.counter("dynamic", "device_syncs"), groups)
        m["dynamic.rebuilds"] = trace.counter("dynamic", "rebuilds")
        m["dynamic.delta_entries_max"] = trace.counter(
            "dynamic", "delta_entries_max")
        overlay = trace.named("dynamic:overlay")
        m["dynamic.overlay_reads_per_query"] = ratio(
            sum(s.get("entries", 0) for s in overlay), len(overlay))

    # harness: generator lag and what tracing itself cost.
    untraced = [s for s in raw["segments"] if s["name"] == "untraced"][0]
    traced = [s for s in raw["segments"] if s["name"] == "traced"][0]
    if untraced["lag_ns"]:
        m["loadgen.lag_p99_us"] = tail_us(untraced["lag_ns"])
    if untraced["query_ns"] and traced["query_ns"]:
        m["trace.overhead_frac"] = (p50_us(traced["query_ns"]) /
                                    p50_us(untraced["query_ns"]) - 1.0)
    m["error_rate"] = ratio(raw["failed"] + raw["wrong"], raw["attempted"])
    return m
