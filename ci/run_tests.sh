#!/usr/bin/env bash
# Minimal CI (fail on the first failing step):
#  1. default Release build; ctest at CAMP_THREADS=1 and CAMP_THREADS=4
#     so the pool's serial-inline and forking paths both run, then at
#     CAMP_BACKEND=cpu and CAMP_BACKEND=sim so the device-registry
#     default covers both execution backends, then at
#     CAMP_BACKEND=sharded with CAMP_SHARDS=1 and =4 so the whole
#     suite also runs through the multi-device scheduler's
#     single-shard and fanned-out paths, then at CAMP_SIMD=scalar and
#     CAMP_SIMD=avx2 (skipped with a notice when the host lacks AVX2)
#     so both tiers of the dispatched limb kernels (scalar and avx2,
#     the only two) run the full suite and results stay bit-identical
#     across them, and at
#     CAMP_OPCACHE=0 and =1 so the operand-digest inverse cache's
#     hit path provably never changes a result; then a junk-knob smoke
#     (examples/pi_digits, which builds the global pool and a SimConfig
#     at startup, run with CAMP_THREADS=4x and with
#     CAMP_FAULT_RATE=1e-4x must exit nonzero and name the variable);
#  2. perf-regression gate: perf_smoke and batch_throughput vs
#     bench/baselines at a generous machine-portability tolerance, a
#     CAMP_TRACE export smoke-checked through tools/trace_report, and a
#     negative control (a doctored baseline MUST fail the gate; skip
#     with CAMP_CI_SKIP_PERF=1), plus the short serving soak —
#     bench/serve_soak with fault injection armed, which self-checks
#     zero wrong results, conservation, bounded p99, exact ledger
#     accounting, and that the serve.live_requests gauge reads 0
#     after the session (the engine released every request it
#     admitted) before the perf gate even runs — plus an ungated
#     short `serve_soak --wall` leg (the same hard correctness
#     asserts, live-request gauge included, no latency gates; in wall
#     mode a wave the engine would join before returning runs inline,
#     and only a wave that outlives the pump runs on its own worker
#     thread), plus an ungated end-to-end
#     smoke: bench/e2e's camp_bench on serve-small (cpu), serve-large
#     (4-shard cpu) and rsa-4096 (CRT decrypt round trips),
#     digest-checking every result, run with every CAMP_* variable
#     stripped under `timeout 600`;
#  3. address+undefined-sanitizer build + ctest — this includes
#     test_simd_kernels, so the vector kernels' scratch/tail handling
#     runs under ASan/UBSan every CI pass; CAMP_SANITIZE adds
#     -fno-sanitize-recover=undefined, so a UBSan finding fails its
#     test instead of printing and continuing — followed by a dedicated
#     memory-plane leg (test_memory_plane, test_scheduler, test_exec,
#     and the wave writers test_serve and test_serve_async — the
#     breaker's quarantine writes wave slots directly — with
#     ASAN_OPTIONS=detect_invalid_pointer_pairs=2) where the limb
#     arena's manual poisoning of freed ranges turns any
#     use-after-reset of a wave view into a hard failure
#     (skip with CAMP_CI_SKIP_SANITIZE=1);
#  4. ThreadSanitizer build (CAMP_SANITIZE=thread) over the
#     concurrency-bearing tests — pool, mpn mul, batch, runtime,
#     exec devices (the wave fork rule: forked wave slices writing
#     disjoint wave slots), sharded scheduler, memory plane (arena
#     blocks released on another thread + concurrent wave slot
#     writes), serving layer (concurrent ledger
#     folding), async wall-clock serving (engine-owned wave workers
#     and their caught device throws, held and dropped handles,
#     callbacks, the differential oracle), operand cache
#     (sharded LRU hit/miss/evict races) — at CAMP_THREADS=4
#     (skip with CAMP_CI_SKIP_SANITIZE=1);
#  5. report-only coverage summary via gcovr/gcov when available
#     (opt in with CAMP_CI_COVERAGE=1; never gates).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

run_pass() {
    local build_dir="$1"
    shift
    echo "==== configure ${build_dir} ($*) ===="
    cmake -B "${build_dir}" -S . "$@"
    echo "==== build ${build_dir} ===="
    cmake --build "${build_dir}" -j "${JOBS}"
    echo "==== ctest ${build_dir} ===="
    ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
}

run_pass build
echo "==== ctest build (CAMP_THREADS=1) ===="
CAMP_THREADS=1 ctest --test-dir build --output-on-failure -j "${JOBS}"
echo "==== ctest build (CAMP_THREADS=4) ===="
CAMP_THREADS=4 ctest --test-dir build --output-on-failure -j "${JOBS}"
# Device-registry passes: CAMP_BACKEND sets the default exec device, so
# the whole tier-1 suite runs once per shipped backend default.
echo "==== ctest build (CAMP_BACKEND=cpu) ===="
CAMP_BACKEND=cpu ctest --test-dir build --output-on-failure -j "${JOBS}"
echo "==== ctest build (CAMP_BACKEND=sim) ===="
CAMP_BACKEND=sim ctest --test-dir build --output-on-failure -j "${JOBS}"
# Sharded-scheduler matrix: the full suite through the multi-device
# scheduler at one shard (pass-through partitioning) and four (LPT
# fan-out on the pool) — products must stay bit-identical either way.
echo "==== ctest build (CAMP_BACKEND=sharded, CAMP_SHARDS=1) ===="
CAMP_BACKEND=sharded CAMP_SHARDS=1 \
    ctest --test-dir build --output-on-failure -j "${JOBS}"
echo "==== ctest build (CAMP_BACKEND=sharded, CAMP_SHARDS=4) ===="
CAMP_BACKEND=sharded CAMP_SHARDS=4 \
    ctest --test-dir build --output-on-failure -j "${JOBS}"
# SIMD-dispatch matrix: the whole tier-1 suite pinned to the scalar
# reference kernels, then to the AVX2 tier, so the cross-tier
# bit-identity invariant is exercised suite-wide (not only by
# test_simd_kernels' differential fuzz). The avx2 leg is skipped with
# a notice on hosts without the ISA — CAMP_SIMD=avx2 would fall back
# to scalar there and silently duplicate the previous leg.
# Operand-cache matrix: the whole tier-1 suite with the inverse cache
# disabled (every derivation cold) and force-enabled — results must be
# bit-identical either way, the DESIGN.md §16 invariance contract that
# tests/test_opcache.cpp fuzzes differentially within one process.
echo "==== ctest build (CAMP_OPCACHE=0) ===="
CAMP_OPCACHE=0 ctest --test-dir build --output-on-failure -j "${JOBS}"
echo "==== ctest build (CAMP_OPCACHE=1) ===="
CAMP_OPCACHE=1 ctest --test-dir build --output-on-failure -j "${JOBS}"
echo "==== ctest build (CAMP_SIMD=scalar) ===="
CAMP_SIMD=scalar ctest --test-dir build --output-on-failure -j "${JOBS}"
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
    echo "==== ctest build (CAMP_SIMD=avx2) ===="
    CAMP_SIMD=avx2 ctest --test-dir build --output-on-failure \
        -j "${JOBS}"
else
    echo "==== ctest build (CAMP_SIMD=avx2) SKIPPED: host lacks AVX2 ===="
fi

# Junk-knob smoke: the unit tests call each knob's parse directly, so
# this checks the call sites that parse once and cache (the global
# pool's CAMP_THREADS, a SimConfig's fault rates). pi_digits builds
# both at startup, and its self-checking runtime recovers from armed
# faults, so it exits 0 on a well-formed rate; a malformed value must
# stop it with a message on stderr that names the variable.
for knob in CAMP_THREADS=4x CAMP_FAULT_RATE=1e-4x; do
    name="${knob%%=*}"
    echo "==== junk-knob smoke (${knob} ./build/examples/pi_digits) ===="
    if env "${knob}" ./build/examples/pi_digits \
        > /dev/null 2> build/junk_knob.err; then
        echo "ERROR: ${knob} did not stop pi_digits"
        exit 1
    fi
    if ! grep -q "${name}" build/junk_knob.err; then
        echo "ERROR: pi_digits' stderr does not name ${name}:"
        tail -5 build/junk_knob.err
        exit 1
    fi
    echo "rejected as expected: $(grep -m1 "${name}" build/junk_knob.err)"
done

if [[ "${CAMP_CI_SKIP_PERF:-0}" != "1" ]]; then
    # Perf-regression gate. The tolerance is deliberately loose (4x):
    # it tolerates host-to-host variation against the checked-in
    # baseline while still catching order-of-magnitude regressions;
    # refresh bench/baselines/ when landing intentional perf changes
    # (see README "Performance").
    BASELINE="bench/baselines/BENCH_perf_smoke.json"
    echo "==== perf gate (perf_smoke vs ${BASELINE}) ===="
    CAMP_TRACE=build/perf_smoke_trace.json \
        CAMP_BENCH_DIR=build \
        CAMP_BENCH_GATE=1 \
        CAMP_BENCH_BASELINE="${BASELINE}" \
        CAMP_BENCH_TOLERANCE="${CAMP_BENCH_TOLERANCE:-4.0}" \
        ./build/bench/perf_smoke

    echo "==== trace export smoke (tools/trace_report) ===="
    ./build/tools/trace_report build/perf_smoke_trace.json

    # Coalescing-queue + shard-scaling gate: batch_serial_submit /
    # batch_coalesce wall time plus the batch_shard_scaling_{1,2,4,8}
    # rows (the binary itself asserts coalesced sim cycles < serial
    # sim cycles and that wave cycles decrease monotonically 1 -> 8
    # shards — the deterministic schedule property; wall clock may
    # saturate on few-core hosts).
    BATCH_BASELINE="bench/baselines/BENCH_batch_throughput.json"
    echo "==== perf gate (batch_throughput vs ${BATCH_BASELINE}) ===="
    CAMP_BENCH_DIR=build \
        CAMP_BENCH_GATE=1 \
        CAMP_BENCH_BASELINE="${BATCH_BASELINE}" \
        CAMP_BENCH_TOLERANCE="${CAMP_BENCH_TOLERANCE:-4.0}" \
        ./build/bench/batch_throughput

    # Serving soak, short mode: 400 requests of the mixed multi-tenant
    # workload against a breaker-guarded SimDevice with fault
    # injection armed. The binary exits nonzero on any wrong result,
    # broken conservation identity, unbounded p99, ledger mismatch,
    # or a request still live after the session (serve.live_requests
    # != 0) — the perf gate on top only catches throughput
    # regressions. The shed/timeout sets are deterministic for the
    # default seed (override with CAMP_FUZZ_SEED to replay a failure).
    SOAK_BASELINE="bench/baselines/BENCH_serve_soak.json"
    echo "==== serve soak (short, faults armed) vs ${SOAK_BASELINE} ===="
    CAMP_SERVE_REQUESTS=400 \
        CAMP_BENCH_DIR=build \
        CAMP_BENCH_GATE=1 \
        CAMP_BENCH_BASELINE="${SOAK_BASELINE}" \
        CAMP_BENCH_TOLERANCE="${CAMP_BENCH_TOLERANCE:-4.0}" \
        ./build/bench/serve_soak

    # Wall-clock serving leg: the same soak, short, in --wall mode —
    # CAMP_SERVE_INFLIGHT=4 overlapping waves on real worker threads.
    # The binary keeps every *correctness* invariant hard (zero wrong
    # results, conservation, exact ledger fold, no live request after
    # the session) but wall timings are
    # scheduling noise by construction, so this leg carries no
    # CAMP_BENCH_GATE and no latency bound (DESIGN.md §15).
    echo "==== serve soak (short, --wall, inflight=4, ungated) ===="
    CAMP_SERVE_REQUESTS=400 \
        CAMP_SERVE_INFLIGHT=4 \
        CAMP_BENCH_DIR=build \
        ./build/bench/serve_soak --wall

    # End-to-end smoke: camp_bench (bench/e2e) runs both serve
    # workloads briefly — wall-mode serving over cpu, then over a
    # 4-shard cpu ShardedScheduler, at realistic operand sizes — and
    # digest-checks every served product against a serial mpn
    # reference, then runs rsa-4096, whose every CRT decrypt must
    # return the encrypted message. It exits nonzero on any wrong
    # result. Ungated (no baseline; wall timings are host noise).
    # camp_bench refuses any CAMP_* variable, this script's own
    # CAMP_CI_* switches included, so the leg runs with all of them
    # stripped; the timeout turns a wave-nesting deadlock into a
    # failure instead of a hang.
    echo "==== e2e smoke (camp_bench serve-small, serve-large, rsa-4096) ===="
    e2e_env=(env)
    for var in $(compgen -e | grep '^CAMP_' || true); do
        e2e_env+=(-u "${var}")
    done
    for workload in serve-small serve-large rsa-4096; do
        "${e2e_env[@]}" timeout 600 python3 bench/e2e/run.py \
            --workload "${workload}" --seconds 2 --trace 0 \
            --out build/e2e-smoke
    done

    # Operand-cache bench: the binary itself hard-fails unless the
    # repeated-operand pi-regrow walk wins >= 2x with the cache on
    # (and reports Montgomery/reciprocal reuse and the unchanged cold
    # path); the gate on top catches ns/op regressions on every row.
    OPCACHE_BASELINE="bench/baselines/BENCH_opcache_bench.json"
    echo "==== perf gate (opcache_bench vs ${OPCACHE_BASELINE}) ===="
    CAMP_BENCH_DIR=build \
        CAMP_BENCH_GATE=1 \
        CAMP_BENCH_BASELINE="${OPCACHE_BASELINE}" \
        CAMP_BENCH_TOLERANCE="${CAMP_BENCH_TOLERANCE:-4.0}" \
        ./build/bench/opcache_bench

    # Negative control: a doctored baseline (every ns_per_op forced to
    # 1 ns) must make the gate fail on any machine, proving the gate
    # actually bites. The freshly written BENCH json is reused so this
    # step adds no bench runtime.
    echo "==== perf gate negative control (doctored baseline) ===="
    awk '{ gsub(/"ns_per_op": [0-9.]+/, "\"ns_per_op\": 1.000"); print }' \
        "${BASELINE}" > build/doctored_baseline.json
    if CAMP_BENCH_DIR=build \
        CAMP_BENCH_GATE=1 \
        CAMP_BENCH_BASELINE=build/doctored_baseline.json \
        CAMP_BENCH_TOLERANCE=4.0 \
        ./build/bench/perf_smoke > build/doctored_gate.log 2>&1; then
        echo "ERROR: gate passed against a doctored baseline"
        tail -20 build/doctored_gate.log
        exit 1
    fi
    echo "doctored baseline rejected as expected"
fi

if [[ "${CAMP_CI_SKIP_SANITIZE:-0}" != "1" ]]; then
    run_pass build-asan \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCAMP_SANITIZE="address;undefined"

    # Memory-plane poisoning leg: the arena manually poisons free
    # blocks and released wave ranges under ASan
    # (support::asan_poison), so any use of a view past its
    # WaveBuffer's reset()/release() is a hard ASan failure here, not
    # silent reuse. detect_invalid_pointer_pairs additionally checks
    # the pointer arithmetic WaveBuffer does inside its arena blocks.
    # test_serve and test_serve_async drive the breaker, whose
    # quarantine path writes golden products straight into wave slots.
    echo "==== asan memory-plane leg (arena poisoning armed) ===="
    for t in test_memory_plane test_scheduler test_exec test_serve \
             test_serve_async; do
        echo "---- ${t} (ASAN_OPTIONS=detect_invalid_pointer_pairs=2) ----"
        ASAN_OPTIONS="detect_invalid_pointer_pairs=2:halt_on_error=1" \
            ./build-asan/tests/"${t}"
    done

    # ThreadSanitizer pass: the tests that exercise the thread pool
    # (fork/join, parallel mpn kernels, parallel batch, runtime batch),
    # forced parallel so races are actually reachable.
    echo "==== configure build-tsan (thread sanitizer) ===="
    cmake -B build-tsan -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCAMP_SANITIZE="thread"
    echo "==== build build-tsan ===="
    cmake --build build-tsan -j "${JOBS}" --target \
        test_thread_pool test_mpn_mul test_sim_batch test_mpapca \
        test_exec test_scheduler test_memory_plane test_serve \
        test_serve_async test_opcache
    echo "==== tsan tests (CAMP_THREADS=4) ===="
    for t in test_thread_pool test_mpn_mul test_sim_batch test_mpapca \
             test_exec test_scheduler test_memory_plane test_serve \
             test_serve_async test_opcache; do
        echo "---- ${t} ----"
        CAMP_THREADS=4 ./build-tsan/tests/"${t}"
    done
fi

if [[ "${CAMP_CI_COVERAGE:-0}" == "1" ]]; then
    # Report-only coverage: instrument, run the suite once, summarize.
    # Never gates — the numbers are a trend signal, not a threshold.
    echo "==== coverage build (report only) ===="
    cmake -B build-cov -S . \
        -DCMAKE_BUILD_TYPE=Debug -DCAMP_COVERAGE=ON
    cmake --build build-cov -j "${JOBS}"
    ctest --test-dir build-cov -j "${JOBS}" > /dev/null
    if command -v gcovr > /dev/null 2>&1; then
        gcovr --root . --filter 'src/' build-cov \
            --print-summary || true
    elif command -v gcov > /dev/null 2>&1; then
        echo "(gcovr unavailable; raw gcov line summary over src/)"
        find build-cov -name '*.gcda' -path '*src*' \
            -exec gcov -n {} + 2> /dev/null |
            grep -A1 "^File.*src/" | grep -E "^(File|Lines)" || true
    else
        echo "gcovr/gcov unavailable; skipping coverage report"
    fi
fi

echo "==== all test passes green ===="
