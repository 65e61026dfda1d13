"""Statistics and checks for the benchmark: percentiles that refuse to
extrapolate, hit/miss latency separation, span self time, and comparison of
analysis reports against stored references.  Pure functions; the
self-tests live in test_stats.py."""

import math

# Every TVD of an 8192-shot report is a multiple of 2^-14: sampled
# distributions are multiples of 1/8192, and half the L1 distance of two
# such distributions is a multiple of 1/16384.  References store TVDs in
# that unit when they are exact multiples of it.
TVD_UNIT = 2.0 ** -14

# A report matches its reference when every TVD is within this absolute
# distance.  The exact tape is expected to reproduce the reference bit for
# bit; the slack covers only a different SIMD kernel path (<= 1e-12 per
# kernel).
TVD_TOLERANCE = 1e-12

# A percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


def percentile(samples, q):
    """Nearest-rank q-quantile (0 < q < 1) of samples.

    Raises InsufficientSamples unless at least MIN_BEYOND samples lie
    beyond the returned one, so a tail percentile is never read off a
    handful of runs."""
    xs = sorted(samples)
    n = len(xs)
    rank = max(1, math.ceil(q * n))  # 1-based
    beyond = n - rank
    if n == 0 or beyond < MIN_BEYOND:
        raise InsufficientSamples(
            "p%g needs >= %d samples beyond it; have %d samples, %d beyond"
            % (100 * q, MIN_BEYOND, n, max(0, beyond)))
    return xs[rank - 1]


def median(samples):
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise InsufficientSamples("median of no samples")
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def split_latencies(records):
    """(miss latencies, hit latencies) of analysis records.  An analysis
    fully served from the run cache is a hit; every other one simulated.
    The two populations are never pooled: a mix would put the median
    wherever the hit share happens to fall."""
    misses = [r["latency_s"] for r in records if not r["hit"]]
    hits = [r["latency_s"] for r in records if r["hit"]]
    return misses, hits


def self_times(spans):
    """Map span id -> self time: the span's duration minus the part of its
    interval covered by its children (overlapping children counted once)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        ivs = sorted((max(lo, c["start"]), min(hi, c["end"]))
                     for c in children.get(s["id"], []))
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in ivs:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def decode_tvds(entry):
    if "tvd_q" in entry:
        return [q * TVD_UNIT for q in entry["tvd_q"]]
    return list(entry["tvd"])


def encode_tvds(tvds):
    """Reference encoding: integers in TVD_UNIT when every TVD is an exact
    multiple of it (the 8192-shot case), plain floats otherwise."""
    qs = [t / TVD_UNIT for t in tvds]
    if all(q == int(q) for q in qs):
        return {"tvd_q": [int(q) for q in qs]}
    return {"tvd": list(tvds)}


def ranking(tvds):
    """Gate positions by descending TVD; ties keep circuit order (the
    analyzer's sorted_by_impact)."""
    return sorted(range(len(tvds)), key=lambda i: -tvds[i])


def compare_report(record, ref, tol=TVD_TOLERANCE):
    """Problems (empty when none) of one analysis against its reference:
    the same analyzed gates, every TVD within tol, an identical ranking,
    and the same strategy-job counts."""
    if record["op"] != ref["op"]:
        return ["analyzed gates differ"]
    problems = []
    want = decode_tvds(ref)
    got = record["tvd"]
    worst = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
    if len(got) != len(want) or worst > tol:
        problems.append("TVD off by %.3g (tolerance %.3g)" % (worst, tol))
    elif ranking(got) != ranking(want):
        problems.append("ranking differs")
    if "sj" in ref and record["sj"] != ref["sj"]:
        problems.append("strategy jobs %s, reference %s"
                        % (record["sj"], ref["sj"]))
    return problems


def compare_hit(record, first):
    """Problems of a cache-served report against the run's first
    computation of the same (circuit, seed): it must match bit for bit."""
    if record["op"] != first["op"] or record["tvd"] != first["tvd"]:
        return ["cache-served report differs from its first computation"]
    return []

