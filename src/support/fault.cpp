#include "support/fault.hpp"

#include <cstdlib>

#include "support/env.hpp"

namespace camp {

const char*
fault_site_name(FaultSite site)
{
    switch (site) {
    case FaultSite::IpuAccumulator: return "ipu-accumulator";
    case FaultSite::ConverterPattern: return "converter-pattern";
    case FaultSite::GatherCarry: return "gather-carry";
    case FaultSite::MemoryTruncate: return "memory-truncate";
    case FaultSite::MemoryStall: return "memory-stall";
    }
    return "unknown";
}

FaultConfig
FaultConfig::from_env(const FaultConfig& base)
{
    FaultConfig config = base;
    config.seed = support::env_seed("CAMP_FAULT_SEED", config.seed);
    if (std::getenv("CAMP_FAULT_RATE") != nullptr)
        config.rate.fill(support::env_double("CAMP_FAULT_RATE", 0.0));
    for (std::size_t i = 0; i < kFaultSiteCount; ++i)
        config.rate[i] =
            support::env_double(kFaultSiteVars[i], config.rate[i]);
    return config;
}

} // namespace camp
