#!/usr/bin/env python3
"""Bench regression gates for CI.

Five modes:

--mode event_engine (default): compares a freshly measured
BENCH_event_engine.json against the baseline committed in the repository
and fails (exit 1) when

  * the end-to-end ns/query of the `exact` run regressed by more than the
    allowed factor, after normalizing for machine speed, or
  * the steady-state allocations-per-query count became nonzero, or
  * the pending-depth sweep (raw `structure` layer: util::LadderQueue vs
    the 4-ary EventHeap over bare entries) shows the ladder behind the
    heap at depths <= 10k, below 3x the heap at depths >= 1M, or
    allocating in steady state — at any layer or depth (a same-host
    ratio, so no machine normalization is needed).

Machine normalization: every bench run also measures the seed-engine
replica ("legacy" scheduler rows), a fixed workload whose throughput is a
pure function of the host. The fresh ns/query is scaled by the ratio of
the fresh machine's legacy throughput to the baseline machine's before
comparing, so a slow shared CI runner does not produce a false regression
and a fast one cannot mask a real one.

--mode sharding: gates a freshly measured BENCH_sharding.json and fails
(exit 1) when

  * the steady-state allocations-per-query of the sharded engine is
    nonzero — quiet population AND under availability churn flowing
    through the epoch-based membership log (enforced on every host), or
  * the epoch-apply cost of the churn+joins turnover sweep exceeds
    --max-epoch-share (default 0.05) of the run's wall time, or
  * the 4-shard end-to-end speedup over 1 shard on the largest provider
    sweep drops below --min-speedup (default 2.0) — enforced only when
    the measuring host has >= 4 cores (the JSON records host_cores);
    wall-clock parallel speedup cannot exist without hardware
    parallelism, so single-core hosts only run the allocation gate.

--mode serve: gates a freshly measured BENCH_serve.json (the
thread-per-shard wall-clock saturation sweep) and fails (exit 1) when

  * the steady-state allocations-per-query of any sweep row is nonzero —
    the live Submit -> mediate -> callback path must stay allocation-free
    at every shard count (enforced on every host), or
  * any sweep row did not terminate cleanly (submitted != finalized), or
  * the 4-shard throughput speedup over 1 shard drops below
    --min-speedup (default 2.0) — enforced only when the measuring host
    has >= 4 cores (the JSON records host_cores); a single-core host
    cannot exhibit parallel speedup, so it only runs the allocation and
    completeness gates, or
  * any skew_sweep row (one hot consumer at 50% of traffic) allocates or
    leaks queries — imbalance must not break the steady-state
    guarantees; no throughput bar applies there because the hot
    consumer's home shard is the bottleneck by construction.

--mode scaling: gates the scoring-kernel sweep of a freshly measured
BENCH_scaling.json and fails (exit 1) when

  * the kernel_sweep section is missing, or any kn group is missing its
    exact or batched row, or
  * at any kn, the batched kernel's hot phases (intentions + score, the
    work the SoA kernel vectorizes) are not at least --min-speedup
    (default 2.0) times faster than the exact std::pow path's — a
    same-host, same-run ratio, so no machine normalization is needed.

--mode chaos: gates a freshly measured BENCH_chaos.json and fails
(exit 1) when

  * any fault-rate sweep row is not terminally complete (submitted !=
    finalized, or the outcome taxonomy does not sum to finalized) — the
    fault plane must never leak a query, or
  * the steady-state allocations-per-query of the retry ladder (full
    timeout -> abandon -> backoff -> re-mediate cycle under a 100%-drop
    plane) or of the synchronous shed path became nonzero, or
  * the wall-clock cost per good query (satisfied + recovered) at 5%
    dropped dispatches exceeds --max-fault-degradation (default 2.0)
    times the fault-free baseline row of the same run — a same-host
    ratio, so no machine normalization is needed.

Usage: check_bench_regression.py <fresh.json> [<committed-baseline.json>]
       [--max-regression 2.0]
       [--mode event_engine|sharding|serve|scaling|chaos]
       [--min-speedup 2.0] [--max-epoch-share 0.05]
       [--max-fault-degradation 2.0]
"""

import argparse
import json
import sys


def exact_ns_per_query(doc):
    for run in doc["end_to_end"]["runs"]:
        if run["run"] == "exact":
            return float(run["ns_per_query"])
    raise KeyError("no 'exact' end_to_end run in bench JSON")


def legacy_events_per_sec(doc):
    rates = [float(row["events_per_sec"]) for row in doc["scheduler"]
             if row["engine"] == "legacy"]
    if not rates:
        raise KeyError("no legacy scheduler rows in bench JSON")
    return sum(rates) / len(rates)


def check_depth_sweep(fresh):
    sweep = fresh.get("depth_sweep")
    if sweep is None:
        print("NOTE: no depth_sweep section (pre-ladder JSON) — "
              "depth gate skipped")
        return False
    failed = False

    # Ladder steady state must be allocation-free at every layer/depth.
    for row in sweep:
        if row["engine"] != "ladder":
            continue
        allocs = float(row["allocs_per_event"])
        if allocs != 0.0:
            print(f"FAIL: ladder ({row['layer']}, depth {row['depth']}) "
                  f"allocates {allocs:.3f}/event in steady state")
            failed = True

    # Throughput bars run on the raw structures, where the asymptotic
    # difference is undiluted by the (shared) pool/dispatch overhead.
    by_depth = {}
    for row in sweep:
        if row.get("layer") == "structure":
            by_depth.setdefault(int(row["depth"]), {})[row["engine"]] = row
    if not by_depth:
        print("FAIL: depth_sweep has no raw 'structure' rows")
        return True
    for depth in sorted(by_depth):
        pair = by_depth[depth]
        if "heap" not in pair or "ladder" not in pair:
            print(f"FAIL: depth {depth} is missing a heap or ladder row")
            failed = True
            continue
        ratio = (float(pair["ladder"]["events_per_sec"]) /
                 float(pair["heap"]["events_per_sec"]))
        bar = 3.0 if depth >= 1_000_000 else 1.0
        print(f"depth {depth:>8}: ladder {ratio:.2f}x heap "
              f"(bar {bar:.2f}x)")
        if ratio < bar:
            print(f"FAIL: ladder fell below the {bar:.2f}x bar at "
                  f"depth {depth}")
            failed = True
    return failed


def check_event_engine(fresh, baseline, max_regression):
    machine_speed = legacy_events_per_sec(fresh) / legacy_events_per_sec(
        baseline)
    fresh_ns = exact_ns_per_query(fresh)
    normalized_ns = fresh_ns * machine_speed
    baseline_ns = exact_ns_per_query(baseline)
    ratio = normalized_ns / baseline_ns
    print(f"machine speed vs baseline host: {machine_speed:.2f}x")
    print(f"ns/query: fresh={fresh_ns:.0f} normalized={normalized_ns:.0f} "
          f"baseline={baseline_ns:.0f} ratio={ratio:.2f}x "
          f"(limit {max_regression:.2f}x)")

    failed = False
    if ratio > max_regression:
        print("FAIL: end-to-end ns/query regressed beyond the limit")
        failed = True

    allocs = float(fresh["allocations"]["per_query_steady_state"])
    print(f"steady-state allocations/query: {allocs:.3f}")
    if allocs != 0.0:
        print("FAIL: steady-state mediation is no longer allocation-free")
        failed = True

    if check_depth_sweep(fresh):
        failed = True
    return failed


def check_sharding(fresh, min_speedup, max_epoch_share):
    failed = False

    allocs = float(fresh["allocations"]["per_query_steady_state"])
    shards = int(fresh["allocations"]["shards"])
    print(f"steady-state allocations/query across {shards} shards: "
          f"{allocs:.3f}")
    if allocs != 0.0:
        print("FAIL: the sharded steady state is no longer allocation-free")
        failed = True

    churn = fresh.get("allocations_churn")
    if churn is None:
        print("NOTE: no allocations_churn section (pre-elastic-membership "
              "JSON) — churn allocation gate skipped")
    else:
        churn_allocs = float(churn["per_query_steady_state"])
        print(f"steady-state allocations/query under availability churn: "
              f"{churn_allocs:.3f}")
        if churn_allocs != 0.0:
            print("FAIL: availability churn is no longer allocation-free "
                  "in steady state")
            failed = True

    turnover = fresh.get("turnover")
    if turnover is None:
        print("NOTE: no turnover section (pre-elastic-membership JSON) — "
              "epoch-apply gate skipped")
    else:
        share = float(turnover["epoch_apply_share"])
        print(f"epoch-apply share of wall time in the churn+joins sweep: "
              f"{share:.4f} (limit {max_epoch_share:.2f}); "
              f"{turnover['membership_ops']} membership ops over "
              f"{turnover['membership_epochs']} epochs")
        if share >= max_epoch_share:
            print("FAIL: membership epoch application costs too large a "
                  "share of the run")
            failed = True
        if int(turnover["provider_joins"]) <= 0:
            print("FAIL: the turnover sweep materialized no runtime joins")
            failed = True

    sweeps = fresh.get("sweeps", [])
    if not sweeps:
        # A trimmed smoke run (SBQA_BENCH_MAX_PROVIDERS below the smallest
        # sweep) has nothing to gate the speedup on; the allocation gate
        # above already ran. CI runs untrimmed, so its sweeps are present.
        print("NOTE: no sweeps in the bench JSON (trimmed run) — "
              "speedup bar skipped")
        return failed
    largest = max(sweeps, key=lambda s: int(s["providers"]))
    four = [r for r in largest["runs"] if int(r["shards"]) == 4]
    if not four:
        print("FAIL: no 4-shard run in the largest sweep")
        return True
    speedup = float(four[0]["speedup_vs_1"])
    host_cores = int(fresh.get("host_cores", 0))
    print(f"4-shard speedup at {largest['providers']} providers: "
          f"{speedup:.2f}x on a {host_cores}-core host "
          f"(bar {min_speedup:.2f}x, enforced at >= 4 cores)")
    if host_cores >= 4:
        if speedup < min_speedup:
            print("FAIL: 4-shard end-to-end speedup dropped below the bar")
            failed = True
    else:
        print("NOTE: < 4 cores — the parallel-speedup bar is not "
              "enforceable on this host; allocation gate only")
    return failed


def check_serve(fresh, min_speedup):
    failed = False
    host_cores = int(fresh.get("host_cores", 0))

    rows = {int(r["shards"]): r for r in fresh.get("sweep", [])}
    if not rows:
        print("FAIL: the serve bench JSON has no sweep rows")
        return True
    for shards in sorted(rows):
        row = rows[shards]
        allocs = float(row["allocs_per_query"])
        complete = int(row["queries_finalized"]) == int(row["queries"])
        print(f"{shards} shard(s): {row['qps']:.0f} queries/s, "
              f"{allocs:.4f} allocs/query, "
              f"{row['queries_finalized']}/{row['queries']} finalized")
        if allocs != 0.0:
            print(f"FAIL: the {shards}-shard serving steady state is no "
                  "longer allocation-free")
            failed = True
        if not complete:
            print(f"FAIL: the {shards}-shard run leaked queries "
                  "(submitted != finalized)")
            failed = True

    skew_rows = fresh.get("skew_sweep", [])
    if not skew_rows:
        print("NOTE: no skew_sweep section (pre-skew JSON) — skew gate "
              "skipped")
    for row in skew_rows:
        shards = int(row["shards"])
        allocs = float(row["allocs_per_query"])
        complete = int(row["queries_finalized"]) == int(row["queries"])
        print(f"skewed, {shards} shard(s): {row['qps']:.0f} queries/s, "
              f"{allocs:.4f} allocs/query, "
              f"{row['queries_finalized']}/{row['queries']} finalized")
        if allocs != 0.0:
            print(f"FAIL: the skewed {shards}-shard steady state is no "
                  "longer allocation-free")
            failed = True
        if not complete:
            print(f"FAIL: the skewed {shards}-shard run leaked queries "
                  "(submitted != finalized)")
            failed = True

    one = rows.get(1)
    four = rows.get(4)
    if four is None:
        print("NOTE: no 4-shard row (trimmed sweep) — speedup bar skipped")
        return failed
    speedup = float(four["qps"]) / float(one["qps"]) if one else 0.0
    print(f"4-shard throughput speedup over 1 shard: {speedup:.2f}x on a "
          f"{host_cores}-core host (bar {min_speedup:.2f}x, enforced at "
          ">= 4 cores)")
    if host_cores >= 4:
        if speedup < min_speedup:
            print("FAIL: 4-shard serving throughput speedup dropped below "
                  "the bar")
            failed = True
    else:
        print("NOTE: < 4 cores — the parallel-speedup bar is not "
              "enforceable on this host; allocation gate only")
    return failed


def check_scaling(fresh, min_speedup):
    sweep = fresh.get("kernel_sweep")
    if not sweep:
        print("FAIL: the scaling bench JSON has no kernel_sweep section "
              "(run bench_scaling from this tree)")
        return True
    failed = False
    by_kn = {}
    for row in sweep:
        by_kn.setdefault(int(row["kn"]), {})[str(row["kernel"])] = row
    for kn in sorted(by_kn):
        pair = by_kn[kn]
        if "exact" not in pair or "batched" not in pair:
            print(f"FAIL: kn={kn} is missing an exact or batched row")
            failed = True
            continue
        exact_ns = (float(pair["exact"]["intentions_ns"]) +
                    float(pair["exact"]["score_ns"]))
        batched_ns = (float(pair["batched"]["intentions_ns"]) +
                      float(pair["batched"]["score_ns"]))
        if batched_ns <= 0:
            print(f"FAIL: kn={kn} batched hot phases measured <= 0 ns")
            failed = True
            continue
        ratio = exact_ns / batched_ns
        print(f"kn {kn:>4}: intentions+score exact={exact_ns:.0f}ns "
              f"batched={batched_ns:.0f}ns -> {ratio:.2f}x "
              f"(bar {min_speedup:.2f}x)")
        if ratio < min_speedup:
            print(f"FAIL: the batched kernel's hot phases fell below the "
                  f"{min_speedup:.2f}x bar at kn={kn}")
            failed = True
    return failed


def check_chaos(fresh, max_fault_degradation):
    failed = False

    rows = {float(r["drop_prob"]): r for r in fresh["sweep"]}
    for prob in sorted(rows):
        row = rows[prob]
        terminal = str(row["all_terminal"]) == "true"
        print(f"drop {100 * prob:4.0f}%: {row['good_queries']}/"
              f"{row['queries_finalized']} good, "
              f"{row['retry_attempts']} retries, "
              f"terminal={'yes' if terminal else 'NO'}")
        if not terminal:
            print("FAIL: a faulted run leaked queries (submitted != "
                  "finalized or taxonomy does not sum)")
            failed = True

    for key, label in (("retry_per_query_steady_state", "retry ladder"),
                       ("shed_per_query_steady_state", "shed path")):
        allocs = float(fresh["allocations"][key])
        print(f"steady-state allocations/query on the {label}: {allocs:.3f}")
        if allocs != 0.0:
            print(f"FAIL: the {label} is no longer allocation-free")
            failed = True

    baseline_row = rows.get(0.0)
    faulted_row = rows.get(0.05)
    if baseline_row is None or faulted_row is None:
        print("FAIL: the sweep is missing the 0% or 5% drop row")
        return True
    baseline_ns = float(baseline_row["ns_per_good_query"])
    faulted_ns = float(faulted_row["ns_per_good_query"])
    if baseline_ns <= 0 or int(faulted_row["good_queries"]) <= 0:
        print("FAIL: the sweep produced no good queries to compare")
        return True
    ratio = faulted_ns / baseline_ns
    print(f"ns/good-query: 0% fault={baseline_ns:.0f} "
          f"5% fault={faulted_ns:.0f} ratio={ratio:.2f}x "
          f"(limit {max_fault_degradation:.2f}x)")
    if ratio > max_fault_degradation:
        print("FAIL: a 5% dispatch-drop rate degrades goodput cost beyond "
              "the limit")
        failed = True
    return failed


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("fresh")
    parser.add_argument("baseline", nargs="?", default=None,
                        help="committed baseline JSON (event_engine mode)")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="event_engine: fail when machine-normalized "
                             "fresh ns/query exceeds baseline by more than "
                             "this factor")
    parser.add_argument("--mode",
                        choices=["event_engine", "sharding", "serve",
                                 "scaling", "chaos"],
                        default="event_engine")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="sharding/serve: minimum 4-shard speedup over "
                             "1 shard (hosts with >= 4 cores); scaling: "
                             "minimum batched-over-exact hot-phase speedup")
    parser.add_argument("--max-epoch-share", type=float, default=0.05,
                        help="sharding: maximum fraction of the turnover "
                             "run's wall time spent applying membership "
                             "epochs")
    parser.add_argument("--max-fault-degradation", type=float, default=2.0,
                        help="chaos: maximum ratio of ns/good-query at 5%% "
                             "dropped dispatches over the fault-free "
                             "baseline row")
    args = parser.parse_args()

    with open(args.fresh) as f:
        fresh = json.load(f)

    if args.mode == "event_engine":
        if args.baseline is None:
            parser.error("event_engine mode requires a baseline JSON")
        with open(args.baseline) as f:
            baseline = json.load(f)
        failed = check_event_engine(fresh, baseline, args.max_regression)
    elif args.mode == "chaos":
        failed = check_chaos(fresh, args.max_fault_degradation)
    elif args.mode == "serve":
        failed = check_serve(fresh, args.min_speedup)
    elif args.mode == "scaling":
        failed = check_scaling(fresh, args.min_speedup)
    else:
        failed = check_sharding(fresh, args.min_speedup,
                                args.max_epoch_share)

    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
