/**
 * @file
 * The execution plane (`camp::exec`): a pluggable device interface
 * that decouples *what* MPApca computes from *where* it runs — the
 * host/accelerator split of paper §V-C (Fig. 1), where the MPApca
 * library routes kernel operators to whichever machine executes them.
 *
 * A Device executes *base products* (multiplications within its
 * capability) and waves of independent products, and answers cost /
 * energy queries so the MPApca layer can plan decompositions. Three
 * implementations ship with the repo:
 *  - CpuDevice      — the mpn kernels (host execution, unlimited size);
 *  - SimDevice      — the functional Cambricon-P simulator
 *                     (sim::Core + sim::BatchEngine);
 *  - AnalyticDevice — exact products via mpn, accounting via the
 *                     calibrated analytic model (large sweeps where
 *                     functional simulation would be pointlessly slow).
 * All devices return bit-identical products; only accounting and
 * placement differ. Devices are selected at runtime through the
 * DeviceRegistry (string-keyed, `CAMP_BACKEND` environment default).
 *
 * Every device carries its own mpn::MulTuning: §V-C retunes the
 * algorithm-selection thresholds per backend ("fast algorithms are
 * delayed accordingly" on hardware with a 35904-bit base case), so
 * thresholds are per-device state, not a process-global.
 */
#ifndef CAMP_EXEC_DEVICE_HPP
#define CAMP_EXEC_DEVICE_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mpn/mul.hpp"
#include "mpn/natural.hpp"
#include "sim/batch.hpp"
#include "support/errors.hpp"

namespace camp::exec {

class WaveBuffer;

/** Where a device's time comes from. */
enum class DeviceKind
{
    Host,        ///< measured wall time (the CPU baseline)
    Accelerator, ///< functionally simulated hardware (cycle-accounted)
    Model,       ///< analytically modelled hardware (closed-form cost)
};

const char* device_kind_name(DeviceKind kind);

/** Cost/energy answer for one base product (monolithic operation). */
struct CostEstimate
{
    double cycles = 0;   ///< device cycles (0 when not cycle-based)
    double seconds = 0;  ///< estimated execution time
    double energy_j = 0; ///< estimated energy
};

/** Result of one device multiplication. */
struct MulOutcome
{
    mpn::Natural product;
    std::uint64_t injected = 0; ///< datapath faults injected by this op
};

/**
 * One execution backend. It has exactly two multiply virtuals: `mul`
 * for one product and `mul_batch_wave` for a batch. `mul` stays its
 * own virtual rather than a one-item wave because a device's single
 * products may draw from a persistent fault stream (SimDevice's core),
 * so each CheckedDevice retry sees fresh faults; a one-item wave would
 * reseed the same stream and replay the same corruption every retry.
 *
 * Thread-compatibility contract: a Device may be driven from pool
 * tasks and wave worker threads, but concurrent calls into the *same*
 * device instance are not synchronized here — batch fan-out happens
 * inside mul_batch_wave, which owns its parallelism.
 */
class Device
{
  public:
    virtual ~Device() = default;

    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    /** Registry key ("cpu", "sim", "analytic", ...). */
    virtual const char* name() const = 0;

    virtual DeviceKind kind() const = 0;

    /**
     * Largest operand (bits) this device multiplies without software
     * decomposition; 0 = unlimited. MPApca decomposes above this
     * (paper §V-C), exactly as it decomposes beyond the monolithic
     * capability of the hardware.
     */
    virtual std::uint64_t base_cap_bits() const = 0;

    /**
     * One base product. Operands must respect base_cap_bits() (throws
     * camp::InvalidArgument beyond it, like sim::Core). Returns the
     * exact product plus the number of faults the device's injection
     * engine fired during the op (0 for fault-free devices).
     */
    virtual MulOutcome mul(const mpn::Natural& a,
                           const mpn::Natural& b) = 0;

    /**
     * Many independent products over copied pairs, every operand
     * within base_cap_bits(). Not virtual: fills a one-shot WaveBuffer,
     * runs mul_batch_wave with each pair's position as its fault-seed
     * index, and copies the products out into BatchResult::products.
     * @p parallelism follows the BatchEngine convention: 0 = auto
     * (fork across the global pool), 1 = serial, >= 2 = fork.
     * Products are bit-identical across all settings.
     */
    sim::BatchResult
    mul_batch(const std::vector<std::pair<mpn::Natural,
                                          mpn::Natural>>& pairs,
              unsigned parallelism = 0);

    /**
     * The one batch entry point (DESIGN.md §14): multiply the given
     * @p items of @p wave and write each product into the item's
     * preallocated result slot (WaveBuffer::set_result_size or
     * set_result). Item @p items[k] draws its fault stream from the
     * wave-global seed index @p indices[k] (same length as @p items),
     * so a scheduler that splits one wave across several devices keeps
     * every product on the same fault stream (the resharding-
     * determinism contract). The returned BatchResult carries
     * accounting only: `products` stays EMPTY (the wave owns the
     * limbs) and `per_product[k]` lines up with @p items[k].
     *
     * Concurrency: callers may execute disjoint item sets of one wave
     * concurrently (the sharded scheduler does); implementations only
     * write the slots of their own items.
     */
    virtual sim::BatchResult
    mul_batch_wave(WaveBuffer& wave,
                   const std::vector<std::size_t>& items,
                   const std::vector<std::uint64_t>& indices,
                   unsigned parallelism = 0) = 0;

    /** Cost/energy estimate for one base product of this shape. */
    virtual CostEstimate cost(std::uint64_t bits_a,
                              std::uint64_t bits_b) const = 0;

    /**
     * This backend's multiplication thresholds (§V-C: MPApca retunes
     * per backend). Decorators forward to the wrapped device so the
     * tuning surface stays single-sourced.
     */
    virtual const mpn::MulTuning& tuning() const { return tuning_; }
    virtual void set_tuning(const mpn::MulTuning& t) { tuning_ = t; }

  protected:
    Device() = default;

    mpn::MulTuning tuning_; ///< concrete constructors initialize

};

/** One wave's device call, its failure caught (see run_wave). */
struct WaveRun
{
    sim::BatchResult result;         ///< accounting, when error == Ok
    ErrorCode error = ErrorCode::Ok; ///< category of the device's throw
    std::string message;             ///< what() of the device's throw
};

/**
 * Multiply every item of @p wave on @p device through mul_batch_wave,
 * with items and fault-seed indices 0..n-1 in wave order, inside the
 * trace span @p span. @p items and @p indices are the caller's scratch,
 * so their capacity recycles wave over wave. A device throw is caught
 * here, on whichever thread runs the wave, and returned as its
 * error_code_of category: the caller records that one typed error for
 * every product of the wave (SubmitQueue's futures rethrow it, the
 * serve engine settles or retries on it).
 */
WaveRun run_wave(Device& device, WaveBuffer& wave,
                 std::vector<std::size_t>& items,
                 std::vector<std::uint64_t>& indices,
                 unsigned parallelism, const char* span);

/**
 * Thresholds retuned for a hardware backend with an @p cap_bits-bit
 * monolithic base case: Karatsuba engages only above the base case and
 * Toom-3 above six base cases (mirroring mpapca's decomposition
 * policy); the higher regimes follow in monotone factor-4 steps.
 */
mpn::MulTuning retuned_for_cap(std::uint64_t cap_bits);

/**
 * Apply per-device environment overrides
 * `CAMP_<DEVICE>_MUL_THRESH_{KARATSUBA,TOOM3,TOOM4,TOOM6,SSA,PARALLEL}`
 * (limb counts, uppercased device name) on top of @p tuning.
 */
mpn::MulTuning apply_device_env_tuning(const char* device_name,
                                       mpn::MulTuning tuning);

} // namespace camp::exec

#endif // CAMP_EXEC_DEVICE_HPP
