#!/usr/bin/env python3
"""Ratio-based regression gate over BENCH_kernel.json.

Absolute throughput numbers are far too noisy on shared CI runners to
gate on, so every rule below is either a same-process A/B ratio
(numerator and denominator measured in the same binary on the same
runner, so machine speed cancels) or a deterministic counter emitted by
the benchmark itself.

With --sweep FILE the parallel-sweep A/B recorded in BENCH_sweep.json
is gated too: the same-process N-thread vs 1-thread wall-clock ratio
on the TightLoop grid must reach 1.5x. The gate only applies when the
run actually had more than one worker (a single-core runner records
threads == 1 and is skipped) — and the merged results must have been
identical, which bench_sweep_parallel verifies itself. The same record
carries fastpath_identical: the grid re-run with every uncontended
fast path disabled (WISYNC_NO_FASTPATH) must produce bit-identical
KernelResults, because the fast paths are a host-time optimization
that may never move a simulated cycle.

The MAC-protocol ablation record ("mac_ablation", emitted by
bench_ablation_mac --json) is gated on its deterministic simulation
counters, which are identical on every host and thread count:
serial/parallel result identity, every point completing, exactly zero
collisions under the token MAC (exclusive grants), a token that
actually rotates, and an adaptive controller that actually switches
policy under the barrier storm. The lossy-channel grid in the same
record adds loss0_identical (the reliability layer, compiled in but
disabled, may not move a simulated cycle) and
all_delivered_or_reported (under loss every kernel terminates and
every drop is answered by a retransmission or a typed give-up — no
silent loss, no hang), plus a sanity floor on lossy_drops (the loss
model must actually drop packets at lossPct = 10). The bursty-loss
rows in the same record add burst_identity_off (a disabled
Gilbert–Elliott chain may not move a cycle), a bursty_drops floor,
and burst_vs_iid_differs (equal-mean correlated loss must be
distinguishable from the i.i.d. draw).

The multi-chip record ("multichip", emitted by bench_multichip
--json) is gated the same way: serial/parallel identity of the chip
grid, every tiling completing, a scale-out sweep that actually
reaches >= 256 total cores, an inter-chip barrier measurably more
expensive than the intra-chip one (the bridge latency must show up,
or the bridge model is vacuous), and at least one frame actually
crossing the bridge. The lossy-bridge rows add a bridge_retries
floor (the retry machinery must engage), bridge_books_balance (drops
== timeouts == retransmits + give-ups at every point),
bridge_loss_identity (reliability knobs on a loss-free bridge are
inert) and channel_profile_differs (a per-slot loss profile step
must visibly shift the run).

The sweep-service record ("service", emitted by bench_service
--json) gates the service subsystem's contracts: service_identity
(cold, warm and 2-way-sharded batches bit-identical to a serial
uncached run), cache_hits >= duplicates (every injected duplicate
answered by the fingerprint-keyed result cache), warm_simulated == 0
(a repeated batch simulates nothing) and warm_speedup >= 2x (the
cache must clearly beat re-simulating; in practice it is orders of
magnitude). The persistence rows gate the durable cache:
warm_from_disk_identical (a CacheStore spill reloaded into a fresh
service answers the whole batch warm and bit-identical) and
salvaged_prefix_hits >= 1 (a file truncated mid-record salvages its
valid prefix and those records still serve their points).

Usage: bench/check_bench.py [BENCH_kernel.json] [--sweep BENCH_sweep.json]
Exit status 0 = all gates pass.
"""

import json
import sys


def load(path):
    with open(path) as f:
        data = json.load(f)
    by_name = {}
    for b in data.get("benchmarks", []):
        by_name[b["name"]] = b
    return by_name


def main():
    args = sys.argv[1:]
    sweep_path = None
    if "--sweep" in args:
        i = args.index("--sweep")
        if i + 1 >= len(args):
            print("usage: check_bench.py [BENCH_kernel.json] "
                  "[--sweep BENCH_sweep.json]", file=sys.stderr)
            return 2
        sweep_path = args[i + 1]
        del args[i:i + 2]
    path = args[0] if args else "BENCH_kernel.json"
    bench = load(path)
    failures = []
    checks = []

    def need(name):
        if name not in bench:
            failures.append(f"missing benchmark: {name}")
            return None
        return bench[name]

    def ratio_gate(num, den, minimum, why):
        a, b = need(num), need(den)
        if a is None or b is None:
            return
        r = a["items_per_second"] / b["items_per_second"]
        line = f"{num}/{den} = {r:.2f} (gate: >= {minimum}) — {why}"
        checks.append(line)
        if r < minimum:
            failures.append(f"FAIL {line}")

    def gate(cond, line):
        checks.append(line)
        if not cond:
            failures.append(f"FAIL {line}")

    def counter_gate(name, counter, op, bound, why):
        b = need(name)
        if b is None:
            return
        if counter not in b:
            failures.append(f"missing counter {name}:{counter}")
            return
        v = b[counter]
        ok = v <= bound if op == "<=" else v >= bound
        line = f"{name}:{counter} = {v} (gate: {op} {bound}) — {why}"
        checks.append(line)
        if not ok:
            failures.append(f"FAIL {line}")

    # Machine reuse: running a sweep point on a reset machine must be
    # substantially faster than a rebuild (the PR's raison d'être).
    ratio_gate("BM_MachineResetReuse", "BM_MachineBuildFresh", 1.15,
               "Machine::reset must beat full reconstruction")

    # Uncontended fast paths: the frameless mesh chain must clearly
    # beat the wormhole coroutine on the same machine in the same
    # process, actually serve the whole stream (hit fraction), and
    # never touch the allocator (counted around engine.run() with the
    # replaced operator new). Uncontended BM broadcasts must reach
    # their slot without waiting and without allocating, and the
    # coherence ping-pong twin gates against regression of the
    # contended message paths.
    ratio_gate("BM_MeshUncontendedFastPath", "BM_MeshUncontendedFallback",
               1.3, "frameless mesh chain must beat the wormhole path")
    counter_gate("BM_MeshUncontendedFastPath", "fastpath_hit_fraction",
                 ">=", 0.9, "uncontended stream must take the fast path")
    counter_gate("BM_MeshUncontendedFastPath", "heap_allocs", "<=", 0,
                 "uncontended mesh transfers must not allocate")
    counter_gate("BM_BmBroadcastStore", "fastpath_hit_fraction", ">=",
                 0.9, "single-sender broadcasts must take the fast path")
    counter_gate("BM_BmBroadcastStore", "heap_allocs", "<=", 0,
                 "uncontended broadcasts must not allocate")
    ratio_gate("BM_CoherentPingPong", "BM_CoherentPingPongNoFastpath",
               0.97, "fast paths must never slow the contended case")

    # Frame pool: pooled alloc/free must stay competitive with malloc
    # (it is normally faster; 0.7 absorbs runner noise).
    ratio_gate("BM_FramePoolChurn", "BM_HeapChurn", 0.7,
               "frame pool must not regress below the system allocator")

    # Deterministic scheduler-tier counters: the hot benches must never
    # spill into the overflow heap, and coroutine frames must be served
    # from the pool's free lists in steady state.
    counter_gate("BM_EngineScheduleRunNearFuture", "tier_heap", "<=", 0,
                 "near-future deltas belong in the calendar wheel")
    counter_gate("BM_CoroutineResumeZeroDelay", "tier_heap", "<=", 0,
                 "zero-delay resumes belong in the ready ring")
    counter_gate("BM_CoroutineChain", "pool_reuse_fraction", ">=", 0.9,
                 "steady-state frames must come from the free lists")
    counter_gate("BM_CoroutineChain", "pool_fallback_allocs", "<=", 0,
                 "model coroutine frames must fit the pooled classes")

    if sweep_path is not None:
        with open(sweep_path) as f:
            sweep = json.load(f)
        par = sweep.get("parallel")
        if par is None:
            failures.append(f"missing 'parallel' record in {sweep_path}")
        else:
            if not par.get("results_identical", False):
                failures.append(
                    "FAIL parallel sweep results differ from serial — "
                    "determinism contract broken")
            if not par.get("fastpath_identical", False):
                failures.append(
                    "FAIL fastpath-on vs fastpath-off KernelResults "
                    "differ — the fast paths changed simulated cycles")
            threads = par.get("threads", 1)
            speedup = par.get("sweep_parallel_speedup", 0.0)
            if threads >= 2:
                line = (f"sweep_parallel_speedup = {speedup} at "
                        f"{threads} threads (gate: >= 1.5) — N workers "
                        "must beat the serial sweep")
                checks.append(line)
                if speedup < 1.5:
                    failures.append(f"FAIL {line}")
            else:
                checks.append(
                    f"sweep_parallel_speedup = {speedup} — gate skipped "
                    "(single worker available)")

        mac = sweep.get("mac_ablation")
        if mac is None:
            failures.append(f"missing 'mac_ablation' record in "
                            f"{sweep_path}")
        else:
            gate(mac.get("results_identical", False),
                 "mac_ablation results_identical — protocol grid "
                 "must merge identically at any thread count")
            gate(mac.get("all_completed", False),
                 "mac_ablation all_completed — no protocol may "
                 "livelock a workload")
            gate(mac.get("token_collisions", -1) == 0,
                 f"mac_ablation token_collisions = "
                 f"{mac.get('token_collisions')} (gate: == 0) — "
                 "exclusive token grants cannot collide")
            gate(mac.get("token_rotations", 0) >= 1,
                 f"mac_ablation token_rotations = "
                 f"{mac.get('token_rotations')} (gate: >= 1) — "
                 "the token must actually rotate")
            gate(mac.get("adaptive_mode_switches", 0) >= 1,
                 f"mac_ablation adaptive_mode_switches = "
                 f"{mac.get('adaptive_mode_switches')} (gate: >= 1) "
                 "— the traffic-aware controller must engage")
            gate(mac.get("loss0_identical", False),
                 "mac_ablation loss0_identical — the reliability "
                 "layer at lossPct=0 may not move a simulated "
                 "cycle")
            gate(mac.get("all_delivered_or_reported", False),
                 "mac_ablation all_delivered_or_reported — lossy "
                 "kernels must terminate with every drop "
                 "retransmitted or reported as a give-up")
            gate(mac.get("lossy_drops", 0) >= 1,
                 f"mac_ablation lossy_drops = "
                 f"{mac.get('lossy_drops')} (gate: >= 1) — the "
                 "loss model must actually drop packets")
            gate(mac.get("burst_identity_off", False),
                 "mac_ablation burst_identity_off — a disabled "
                 "Gilbert–Elliott chain may not move a simulated "
                 "cycle")
            gate(mac.get("bursty_drops", 0) >= 1,
                 f"mac_ablation bursty_drops = "
                 f"{mac.get('bursty_drops')} (gate: >= 1) — the "
                 "burst chain must actually drop packets")
            gate(mac.get("burst_vs_iid_differs", False),
                 "mac_ablation burst_vs_iid_differs — equal-mean "
                 "bursty loss must be distinguishable from i.i.d. "
                 "loss")

        mc = sweep.get("multichip")
        if mc is None:
            failures.append(f"missing 'multichip' record in "
                            f"{sweep_path}")
        else:
            gate(mc.get("results_identical", False),
                 "multichip results_identical — the chip grid must "
                 "merge identically at any thread count")
            gate(mc.get("all_completed", False),
                 "multichip all_completed — no tiling may deadlock "
                 "a workload across the bridge")
            gate(mc.get("total_cores_max", 0) >= 256,
                 f"multichip total_cores_max = "
                 f"{mc.get('total_cores_max')} (gate: >= 256) — the "
                 "scale-out grid must reach kilocore territory")
            intra = mc.get("intra_cycles_per_barrier", 0.0)
            inter = mc.get("inter_cycles_per_barrier", 0.0)
            gate(inter > intra > 0,
                 f"multichip sync cost: inter = {inter} > intra = "
                 f"{intra} cycles/barrier — the bridge latency must "
                 "be visible in cross-chip synchronization")
            gate(mc.get("bridge_frames", 0) >= 1,
                 f"multichip bridge_frames = "
                 f"{mc.get('bridge_frames')} (gate: >= 1) — global "
                 "BM traffic must actually cross the bridge")
            gate(mc.get("bridge_retries", 0) >= 1,
                 f"multichip bridge_retries = "
                 f"{mc.get('bridge_retries')} (gate: >= 1) — the "
                 "lossy bridge's retry machinery must engage")
            gate(mc.get("bridge_books_balance", False),
                 "multichip bridge_books_balance — every bridge "
                 "drop must be answered by exactly one timeout and "
                 "a retransmission or give-up")
            gate(mc.get("bridge_loss_identity", False),
                 "multichip bridge_loss_identity — reliability "
                 "knobs on a loss-free bridge may not move a "
                 "simulated cycle")
            gate(mc.get("channel_profile_differs", False),
                 "multichip channel_profile_differs — a per-slot "
                 "loss profile step must visibly shift the run")

        svc = sweep.get("service")
        if svc is None:
            failures.append(f"missing 'service' record in "
                            f"{sweep_path}")
        else:
            gate(svc.get("service_identity", False),
                 "service service_identity — cold, warm and "
                 "sharded batches must be bit-identical to a "
                 "serial uncached run")
            gate(svc.get("cache_hits", 0) >=
                 svc.get("duplicates", 1),
                 f"service cache_hits = {svc.get('cache_hits')} "
                 f"(gate: >= duplicates = "
                 f"{svc.get('duplicates')}) — every duplicate "
                 "must be answered by the result cache")
            gate(svc.get("warm_simulated", -1) == 0,
                 f"service warm_simulated = "
                 f"{svc.get('warm_simulated')} (gate: == 0) — a "
                 "warm batch may not simulate anything")
            speedup = svc.get("warm_speedup", 0.0)
            gate(speedup >= 2.0,
                 f"service warm_speedup = {speedup} (gate: >= "
                 "2.0) — answering from the cache must clearly "
                 "beat re-simulating")
            gate(svc.get("warm_from_disk_identical", False),
                 "service warm_from_disk_identical — a cache "
                 "spilled to disk and reloaded into a fresh "
                 "service must answer the batch without "
                 "simulating, bit-identical to the reference")
            gate(svc.get("salvaged_prefix_hits", 0) >= 1,
                 f"service salvaged_prefix_hits = "
                 f"{svc.get('salvaged_prefix_hits')} (gate: >= 1) "
                 "— a truncated cache file must salvage its valid "
                 "prefix and serve those points warm")

    for line in checks:
        print(" ", line)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print(f"all {len(checks)} bench gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
