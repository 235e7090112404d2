#!/usr/bin/env python3
"""Critical-path analyzer for gRouting Chrome-trace exports.

Reads trace JSON files written by `--trace-out` (both engines share the span
schema, see docs/OBSERVABILITY.md) and attributes each traced query's
response time into four components:

  queue    time between router enqueue and processor dispatch (queue_wait
           spans; reported alongside, not inside, the response breakdown —
           the engines measure response from dispatch)
  network  time the query's processor spent shipped to or stalled on the
           storage tier (ship + stall spans)
  decode   adjacency decompression (decode spans)
  compute  everything else inside the query span (remainder)

Per file it prints the mean and p99 response with the component breakdown,
keyed by the trace's embedded metadata (engine, scheme, dataset). Pass
several files to compare schemes side by side.

  tools/analyze_trace.py trace_embed.json trace_hash.json
  tools/analyze_trace.py --validate trace.json   # structural checks only
"""

import argparse
import json
import sys

SPAN_TYPES = {"queue_wait", "ship", "query", "level", "batch", "stall",
              "decode", "compute"}
INSTANT_TYPES = {"arrival", "routed"}
EPS_US = 0.5  # wall-clock jitter allowance for nesting checks


def load(path):
    with open(path) as f:
        return json.load(f)


def events_by_query(doc):
    """Groups non-metadata trace events by query id."""
    queries = {}
    for e in doc.get("traceEvents", []):
        if e.get("ph") == "M":
            continue
        qid = e.get("args", {}).get("query_id")
        if qid is None:
            continue
        queries.setdefault(qid, []).append(e)
    return queries


def percentile(values, p):
    if not values:
        return 0.0
    s = sorted(values)
    rank = p / 100.0 * (len(s) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def validate(path, doc):
    """Structural well-formedness checks; returns a list of errors."""
    errors = []
    warnings = []
    if "traceEvents" not in doc:
        return [f"{path}: no traceEvents array"], []
    meta = doc.get("metadata", {})
    dropped = int(meta.get("events_dropped", "0"))

    for i, e in enumerate(doc["traceEvents"]):
        where = f"{path}: event {i}"
        for field in ("name", "ph", "pid", "tid"):
            if field not in e:
                errors.append(f"{where}: missing '{field}'")
        ph = e.get("ph")
        if ph == "M":
            continue
        if "ts" not in e or e["ts"] < 0:
            errors.append(f"{where}: missing or negative ts")
        if ph == "X" and e.get("dur", -1) < 0:
            errors.append(f"{where}: complete span with missing/negative dur")
        name = e.get("name")
        if name not in SPAN_TYPES and name not in INSTANT_TYPES:
            errors.append(f"{where}: unknown event name '{name}'")
        if "args" not in e or "query_id" not in e.get("args", {}):
            errors.append(f"{where}: missing args.query_id")
        if len(errors) > 20:
            errors.append(f"{path}: ... further errors suppressed")
            return errors, warnings

    # Per-query structure. When the rings dropped events the lifecycle is
    # legitimately incomplete, so these demote to warnings.
    def report(msg):
        (warnings if dropped > 0 else errors).append(msg)

    for qid, events in sorted(events_by_query(doc).items()):
        spans = [e for e in events if e.get("ph") == "X"]
        query_spans = [e for e in spans if e["name"] == "query"]
        if any(e["name"] not in ("queue_wait",) for e in spans):
            if len(query_spans) == 0:
                report(f"{path}: query {qid} has spans but no 'query' span")
                continue
        if len(query_spans) > 1:
            errors.append(f"{path}: query {qid} has {len(query_spans)} 'query' spans")
            continue
        levels = {}
        for e in spans:
            if e["name"] == "level":
                levels[e["args"]["level"]] = (e["ts"], e["ts"] + e["dur"])
        for e in spans:
            name = e["name"]
            if name not in ("batch", "stall"):
                continue
            lvl = e["args"]["level"]
            if lvl not in levels:
                report(f"{path}: query {qid} {name} at level {lvl} has no level span")
                continue
            lo, hi = levels[lvl]
            # Batches are issued, and stalls begin, inside their level; with
            # async windows a batch may *complete* after the window rolls, so
            # only the start is required to nest.
            if not (lo - EPS_US <= e["ts"] <= hi + EPS_US):
                report(f"{path}: query {qid} {name} start {e['ts']:.3f} outside "
                       f"level {lvl} span [{lo:.3f}, {hi:.3f}]")
    return errors, warnings


def attribute(doc):
    """Returns per-query component dicts (µs) for queries with a query span."""
    rows = []
    for qid, events in events_by_query(doc).items():
        spans = [e for e in events if e.get("ph") == "X"]
        query_spans = [e for e in spans if e["name"] == "query"]
        if len(query_spans) != 1:
            continue
        total = query_spans[0]["dur"]
        comp = {"queue": 0.0, "network": 0.0, "decode": 0.0}
        for e in spans:
            if e["name"] == "queue_wait":
                comp["queue"] += e["dur"]
            elif e["name"] in ("ship", "stall"):
                comp["network"] += e["dur"]
            elif e["name"] == "decode":
                comp["decode"] += e["dur"]
        comp["compute"] = max(0.0, total - comp["network"] - comp["decode"])
        comp["response"] = total
        comp["query_id"] = qid
        rows.append(comp)
    return rows


def print_breakdown(path, doc, rows):
    meta = doc.get("metadata", {})
    label = " ".join(f"{k}={meta[k]}" for k in ("engine", "scheme", "dataset")
                     if k in meta)
    print(f"\n{path}: {label or 'no metadata'} ({len(rows)} traced queries)")
    if not rows:
        return True
    mean_resp = sum(r["response"] for r in rows) / len(rows)
    p99_resp = percentile([r["response"] for r in rows], 99.0)
    print(f"  {'component':<10} {'mean (ms)':>12} {'p99 (ms)':>12} {'% of mean':>10}")
    sum_of_means = 0.0
    for key in ("network", "decode", "compute"):
        vals = [r[key] for r in rows]
        mean = sum(vals) / len(vals)
        sum_of_means += mean
        share = 100.0 * mean / mean_resp if mean_resp > 0 else 0.0
        print(f"  {key:<10} {mean / 1000.0:>12.4f} "
              f"{percentile(vals, 99.0) / 1000.0:>12.4f} {share:>9.1f}%")
    print(f"  {'response':<10} {mean_resp / 1000.0:>12.4f} {p99_resp / 1000.0:>12.4f}")
    queue_vals = [r["queue"] for r in rows]
    print(f"  {'(queue)':<10} {sum(queue_vals) / len(queue_vals) / 1000.0:>12.4f} "
          f"{percentile(queue_vals, 99.0) / 1000.0:>12.4f}   pre-dispatch")
    if mean_resp > 0:
        gap = abs(sum_of_means - mean_resp) / mean_resp
        print(f"  components sum to {100.0 * sum_of_means / mean_resp:.1f}% "
              f"of mean response")
        if gap > 0.05:
            print(f"  WARNING: component sum off by {100 * gap:.1f}% (> 5%)")
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("traces", nargs="+", help="Chrome-trace JSON files")
    ap.add_argument("--validate", action="store_true",
                    help="run structural checks only; exit 1 on any error")
    args = ap.parse_args()

    ok = True
    for path in args.traces:
        try:
            doc = load(path)
        except (OSError, json.JSONDecodeError) as e:
            print(f"{path}: unreadable: {e}")
            ok = False
            continue
        if args.validate:
            errors, warnings = validate(path, doc)
            for w in warnings:
                print(f"warning: {w}")
            for e in errors:
                print(f"error: {e}")
            n = len([e for e in doc.get("traceEvents", []) if e.get("ph") != "M"])
            print(f"{path}: {n} events, {len(errors)} errors, "
                  f"{len(warnings)} warnings")
            ok = ok and not errors
        else:
            ok = print_breakdown(path, doc, attribute(doc)) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
