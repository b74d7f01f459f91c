/**
 * @file
 * Kernel tier selection: cpuid probe + CAMP_SIMD override, resolved
 * once on first use into an atomic table pointer. The probe picks
 * avx2 when the host has it, else scalar; an explicit CAMP_SIMD
 * request for a tier the host cannot run logs a notice to stderr and
 * falls back to scalar rather than silently running a different tier.
 * The selected tier is exported as the "mpn.simd.tier" gauge
 * (0 = scalar, 2 = avx2) so traces and bench output can attribute
 * numbers to the code actually executed.
 */
#include "mpn/kernels/internal.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/metrics.hpp"

namespace camp::mpn::kernels {

namespace {

void
publish_tier(const KernelTable* table)
{
    support::metrics::gauge("mpn.simd.tier")
        .set(static_cast<int>(table->tier));
}

/** Resolve CAMP_SIMD + cpuid into the table to run. */
const KernelTable*
probe()
{
    const char* env = std::getenv("CAMP_SIMD");
    if (env && *env && std::strcmp(env, "auto") != 0) {
        const KernelTable* requested = nullptr;
        if (std::strcmp(env, "avx2") == 0)
            requested = table_for(Tier::Avx2);
        else if (std::strcmp(env, "scalar") == 0)
            requested = &scalar_table();
        else
            std::fprintf(stderr,
                         "camp: unknown CAMP_SIMD=\"%s\" "
                         "(want auto|avx2|scalar); "
                         "using scalar kernels\n",
                         env);
        if (!requested && std::strcmp(env, "avx2") == 0)
            std::fprintf(stderr,
                         "camp: CAMP_SIMD=%s requested but host lacks "
                         "the ISA; falling back to scalar kernels\n",
                         env);
        return requested ? requested : &scalar_table();
    }
    if (const KernelTable* t = table_for(Tier::Avx2))
        return t;
    return &scalar_table();
}

std::atomic<const KernelTable*>&
active_slot()
{
    static std::atomic<const KernelTable*> slot{nullptr};
    return slot;
}

} // namespace

const char*
tier_name(Tier tier)
{
    switch (tier) {
    case Tier::Scalar:
        return "scalar";
    case Tier::Avx2:
        return "avx2";
    }
    return "unknown";
}

bool
host_supports(Tier tier)
{
#if CAMP_KERNELS_X86
    switch (tier) {
    case Tier::Scalar:
        return true;
    case Tier::Avx2:
        return __builtin_cpu_supports("avx2");
    }
    return false;
#else
    return tier == Tier::Scalar;
#endif
}

const KernelTable*
table_for(Tier tier)
{
    switch (tier) {
    case Tier::Scalar:
        return &scalar_table();
    case Tier::Avx2:
        return host_supports(Tier::Avx2) ? avx2_table() : nullptr;
    }
    return nullptr;
}

const KernelTable&
active()
{
    std::atomic<const KernelTable*>& slot = active_slot();
    const KernelTable* table = slot.load(std::memory_order_acquire);
    if (!table) {
        table = probe();
        const KernelTable* expected = nullptr;
        if (slot.compare_exchange_strong(expected, table,
                                         std::memory_order_acq_rel))
            publish_tier(table);
        else
            table = expected; // another thread won the race
    }
    return *table;
}

Tier
active_tier()
{
    return active().tier;
}

bool
set_active_tier(Tier tier)
{
    const KernelTable* table = table_for(tier);
    if (!table)
        return false;
    active_slot().store(table, std::memory_order_release);
    publish_tier(table);
    return true;
}

} // namespace camp::mpn::kernels
