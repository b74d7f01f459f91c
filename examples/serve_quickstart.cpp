/**
 * @file
 * Serving-layer quickstart: stand up the resilient front-end over a
 * fault-injecting simulated accelerator and watch it hold the line.
 *
 *  1. Describe a multi-tenant workload (priorities, bursts, deadlines)
 *     and generate it deterministically from one seed.
 *  2. Wrap the device in a circuit breaker and serve the workload with
 *     admission control, load-shedding, deadline enforcement, budgeted
 *     retries, and exact CPU fallback.
 *  3. Read the report: per-tenant latency percentiles, the shed set,
 *     and the conservation identities that prove nothing was lost.
 *  4. Re-serve the same workload through the async client edge —
 *     submit_async handles with completion callbacks, wall-clock wave
 *     execution with overlapping in-flight waves — and check it
 *     settles exactly the same outcome set (the virtual-as-oracle
 *     differential of DESIGN.md §15).
 *
 * Build & run:  cmake -B build -G Ninja && cmake --build build &&
 *               ./build/examples/serve_quickstart
 */
#include <cstdio>
#include <memory>

#include "exec/sim_device.hpp"
#include "serve/breaker.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "sim/config.hpp"
#include "support/fault.hpp"

namespace serve = camp::serve;

int
main()
{
    // --- 1. A deterministic multi-tenant workload --------------------
    serve::WorkloadSpec spec;
    spec.seed = 42;
    spec.requests = 200;
    spec.mean_interarrival_us = 2.0;  // near-critical load
    spec.deadline_fraction = 0.3;     // some requests carry deadlines
    spec.deadline_slack_us = 50;
    const auto workload = serve::generate_workload(spec);
    std::printf("generated %zu requests for 3 tenants "
                "(alpha/high, beta/normal, gamma/low)\n",
                workload.size());

    // --- 2. A breaker-guarded device with faults armed ---------------
    camp::sim::SimConfig sim_config = camp::sim::default_config();
    sim_config.faults.seed = spec.seed;
    sim_config.faults.rate_at(camp::FaultSite::IpuAccumulator) = 0.002;
    serve::ServeConfig config; // or serve_config_from_env()
    serve::BreakerDevice device(
        std::make_unique<camp::exec::SimDevice>(sim_config),
        config.breaker);
    serve::Server server(config, device);

    // --- 3. Serve and read the report --------------------------------
    const serve::ServeReport report = server.process(workload);
    std::printf("%s", report.table().c_str());
    std::printf("breaker ended %s (opens=%llu, CPU-quarantined "
                "products=%llu)\n",
                serve::breaker_state_name(device.state()),
                static_cast<unsigned long long>(device.stats().opens),
                static_cast<unsigned long long>(
                    device.stats().fallback_products));
    std::printf("accounting conserved: %s\n",
                report.conserved() ? "yes" : "NO");

    // --- 4. The async edge, on the wall clock ------------------------
    // Same decisions, real execution: a wave the engine would join
    // before returning runs inline, only a wave that outlives the pump
    // overlaps on a worker thread; handles settle with callbacks, and
    // the settled set matches the virtual run above outcome for
    // outcome.
    camp::sim::SimConfig clean_config = camp::sim::default_config();
    camp::exec::SimDevice oracle_device(clean_config);
    serve::Server oracle(config, oracle_device);
    const serve::ServeReport oracle_report = oracle.process(workload);

    serve::ServeConfig wall_config = config;
    wall_config.wall_clock = true;
    wall_config.max_inflight_waves = 4;
    camp::exec::SimDevice wall_device(clean_config);
    serve::Server async_server(wall_config, wall_device);
    std::uint64_t settled = 0;
    for (const serve::Request& request : workload)
        async_server.submit_async(request).on_settle(
            [&settled](const serve::Outcome&) { ++settled; });
    const serve::ServeReport wall_report = async_server.finish();

    bool differential = wall_report.outcomes.size() ==
                        oracle_report.outcomes.size();
    for (std::size_t i = 0; differential && i < workload.size(); ++i)
        differential = wall_report.outcomes[i].status ==
                       oracle_report.outcomes[i].status;
    std::printf("async wall-clock run: %llu callbacks, %llu waves, "
                "matches the virtual oracle: %s\n",
                static_cast<unsigned long long>(settled),
                static_cast<unsigned long long>(wall_report.waves),
                differential ? "yes" : "NO");

    return report.conserved() && differential ? 0 : 1;
}
