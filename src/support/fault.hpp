/**
 * @file
 * Deterministic fault injection for the simulated datapath.
 *
 * Iterative arbitrary-precision compute amplifies single-bit datapath
 * errors into unbounded output error, so the runtime needs a fault
 * model it can rehearse recovery against. A FaultEngine is a seeded
 * RNG plus per-site firing rates: each hardware unit asks
 * `fire(site)` once per injection opportunity (an IPU task, a pattern
 * conversion, a gather, an operand stream) and corrupts its own state
 * when the draw hits. Everything is deterministic in the seed, so a
 * failing run replays exactly.
 *
 * Rates live in FaultConfig, which SimConfig embeds; default rates are
 * all zero, which compiles to the exact pre-fault behaviour (no RNG
 * draws, no counter traffic, identical cycle accounting).
 */
#ifndef CAMP_SUPPORT_FAULT_HPP
#define CAMP_SUPPORT_FAULT_HPP

#include <array>
#include <cstddef>
#include <cstdint>

#include "support/rng.hpp"

namespace camp {

/** Where a fault strikes. One rate and one counter per site. */
enum class FaultSite
{
    IpuAccumulator,   ///< bit flip in an IPU accumulator (per task)
    ConverterPattern, ///< pattern-SRAM / converter corruption (per convert)
    GatherCarry,      ///< dropped inter-segment carry (per gather)
    MemoryTruncate,   ///< CMA operand stream truncated (per stream-in)
    MemoryStall,      ///< CMA stream stalls, costing cycles (per stream-in)
};

inline constexpr std::size_t kFaultSiteCount = 5;

const char* fault_site_name(FaultSite site);

/** Per-site rate overrides, in FaultSite order. */
inline constexpr const char* kFaultSiteVars[kFaultSiteCount] = {
    "CAMP_FAULT_IPU",          "CAMP_FAULT_CONVERTER",
    "CAMP_FAULT_GATHER",       "CAMP_FAULT_MEM_TRUNCATE",
    "CAMP_FAULT_MEM_STALL",
};

/** Per-site firing rates and the injection seed. */
struct FaultConfig
{
    std::uint64_t seed = 0xfa017u;
    /** Probability in [0, 1] of firing per opportunity, by site. */
    std::array<double, kFaultSiteCount> rate{};

    double&
    rate_at(FaultSite site)
    {
        return rate[static_cast<std::size_t>(site)];
    }

    double
    rate_at(FaultSite site) const
    {
        return rate[static_cast<std::size_t>(site)];
    }

    /** Any site armed? */
    bool
    enabled() const
    {
        for (const double r : rate)
            if (r > 0)
                return true;
        return false;
    }

    /**
     * Copy of @p base with environment overrides applied:
     * CAMP_FAULT_SEED (decimal or 0x hex, support::env_seed),
     * CAMP_FAULT_RATE (all sites), then the per-site kFaultSiteVars
     * (support::env_double). A malformed value throws
     * camp::InvalidArgument naming its variable; a rate outside
     * [0, 1] is sim::validate's ConfigError.
     */
    static FaultConfig from_env(const FaultConfig& base);
};

/**
 * Seeded fault source shared by the functional units of one Core.
 * Counts every injection per site so recovery layers can reconcile
 * detected faults against injected ones.
 */
class FaultEngine
{
  public:
    explicit FaultEngine(const FaultConfig& config)
        : config_(config), rng_(config.seed)
    {
    }

    const FaultConfig& config() const { return config_; }

    /**
     * Draw once for @p site; true (and counted) when the fault fires.
     * Sites with zero rate never draw, keeping the RNG sequence of
     * the armed sites stable under config changes elsewhere.
     */
    bool
    fire(FaultSite site)
    {
        const double rate = config_.rate_at(site);
        if (rate <= 0)
            return false;
        if (rate < 1.0 && rng_.uniform() >= rate)
            return false;
        ++injected_[static_cast<std::size_t>(site)];
        return true;
    }

    /** Uniform value in [0, bound), for picking bits/segments. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return rng_.below(bound);
    }

    std::uint64_t
    injected(FaultSite site) const
    {
        return injected_[static_cast<std::size_t>(site)];
    }

    std::uint64_t
    total_injected() const
    {
        std::uint64_t total = 0;
        for (const std::uint64_t n : injected_)
            total += n;
        return total;
    }

    void
    reset_counters()
    {
        injected_.fill(0);
    }

  private:
    FaultConfig config_;
    Rng rng_;
    std::array<std::uint64_t, kFaultSiteCount> injected_{};
};

} // namespace camp

#endif // CAMP_SUPPORT_FAULT_HPP
