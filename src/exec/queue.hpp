/**
 * @file
 * SubmitQueue: asynchronous base-product submission with batch
 * coalescing. Independently submitted multiplications buffer in the
 * queue and execute together through Device::mul_batch_wave, so
 * tasks from unrelated products pack the simulated IPU fabric in
 * shared waves — the batch-mode win of paper §V-B3 — instead of each
 * product paying its own partial waves. Futures resolve lazily: the
 * first get() (or an explicit flush) drains everything buffered so
 * far in one coalesced batch, which keeps the design deadlock-free
 * even on a serial (CAMP_THREADS=1) host.
 *
 * Wave ring (DESIGN.md §15): the pooled WaveBuffer storage is a ring
 * of inflight_waves + 1 buffers — one filling, up to inflight_waves
 * executing concurrently. A flush is split in two halves so a caller
 * can pipeline overlapping waves: begin_flush() *claims* the current
 * fill set (swapping in a fresh fill buffer, blocking for slot-id
 * backpressure when every execution slot is busy) and run_flush()
 * executes the claimed wave — on the caller's thread or a worker of
 * its choosing. flush() remains the inline begin+run composition, and
 * the default inflight_waves = 1 reproduces the PR-8 double-buffered
 * behaviour exactly.
 */
#ifndef CAMP_EXEC_QUEUE_HPP
#define CAMP_EXEC_QUEUE_HPP

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "exec/device.hpp"
#include "exec/wave.hpp"
#include "support/errors.hpp"

namespace camp::exec {

/** Aggregate accounting of a queue's lifetime. */
struct QueueStats
{
    std::uint64_t submitted = 0;   ///< products submitted
    std::uint64_t flushes = 0;     ///< coalesced batches executed
    std::uint64_t largest_batch = 0;
    std::uint64_t sim_cycles = 0;  ///< sum of coalesced batch cycles
    std::uint64_t sim_tasks = 0;   ///< sum of coalesced IPU tasks
    std::uint64_t injected = 0;    ///< faults injected (armed runs)
    std::uint64_t faulty = 0;      ///< products failing validation
    std::uint64_t failed = 0;      ///< products whose flush threw
    std::uint64_t overlapped = 0;  ///< flushes begun while another ran
};

class SubmitQueue
{
    struct Slot
    {
        mpn::Natural product;
        std::uint64_t injected = 0;
        bool faulty = false;
        bool ready = false;
        bool taken = false; ///< product moved out via Future::take()
        bool claimed = false; ///< owned by a begun (in-flight) flush
        ErrorCode error = ErrorCode::Ok; ///< set when the flush threw
        std::string error_message;
    };

    /** One ring entry: a pooled wave plus the flush-side scratch that
     * travels with it (slot list, item/index lists). A buffer is
     * either the fill side, claimed by an in-flight flush, or on the
     * free list — so everything here is touched by exactly one thread
     * at a time and the lists' capacity recycles wave over wave. */
    struct Buffer
    {
        WaveBuffer wave;
        std::vector<std::shared_ptr<Slot>> slots;
        std::vector<std::size_t> items;
        std::vector<std::uint64_t> indices;
    };

    struct State
    {
        std::mutex mutex;
        std::condition_variable cv;
        /** The wave ring: inflight_waves + 1 pooled buffers.
         * Submissions copy their operands into buffers[fill] (the one
         * operand copy the zero-copy path pays); begin_flush claims
         * that buffer and promotes a free one to fill. */
        std::vector<std::unique_ptr<Buffer>> buffers;
        unsigned fill = 0;
        std::vector<unsigned> free_buffers;
        std::vector<std::shared_ptr<Slot>> slots; ///< fill-side futures
        unsigned flushing = 0; ///< flushes begun, not yet published
        QueueStats stats;
    };

  public:
    /** Handle to one submitted product. get() blocks until the product
     * is available, triggering a flush of the owning queue if nothing
     * else already did — so a Future can always be resolved, even on a
     * single-threaded host with no background drain. */
    class Future
    {
      public:
        Future() = default;

        bool valid() const { return slot_ != nullptr; }

        /** True once the product (or its failure) is available
         * (non-blocking). */
        bool ready() const;

        /**
         * The product, flushing the owning queue if needed. When the
         * device threw during the flush that owned this product, the
         * original error *category* is preserved: get() rethrows the
         * typed camp exception (camp::HardwareFault,
         * camp::InvalidArgument, ...) reconstructed from the recorded
         * ErrorCode — so a retry policy above the queue can
         * distinguish retryable faults from fatal caller errors.
         */
        const mpn::Natural& get();

        /**
         * Like get(), but *moves* the product out of the queue slot
         * instead of handing back a reference the caller must copy —
         * the right delivery edge when the caller immediately stores
         * the product elsewhere (serve::Server does). May be called
         * once per future; get() after take() (or a second take())
         * asserts. Error semantics are get()'s.
         */
        mpn::Natural take();

        /** Error category of this product's flush (valid after
         * ready(); ErrorCode::Ok when the flush succeeded). Lets
         * callers poll for failure without catching. */
        ErrorCode error() const;

        /** Faults injected into this product (valid after get()). */
        std::uint64_t injected() const;

        /** Product failed device validation (valid after get();
         * armed-fault batches only — see BatchResult::faulty). */
        bool faulty() const;

      private:
        friend class SubmitQueue;
        Future(SubmitQueue* queue, std::shared_ptr<State> state,
               std::shared_ptr<Slot> slot)
            : queue_(queue), state_(std::move(state)),
              slot_(std::move(slot))
        {
        }

        /** Block (flushing if nobody else is) until the slot resolves;
         * rethrows a recorded flush error. @p lock owns state_->mutex
         * on entry and exit. */
        void await(std::unique_lock<std::mutex>& lock);

        SubmitQueue* queue_ = nullptr;
        std::shared_ptr<State> state_;
        std::shared_ptr<Slot> slot_;
    };

    /** Claim on one begun-but-not-yet-run flush. Move-only; must be
     * passed to run_flush exactly once (dropping a valid ticket
     * asserts — the claimed wave would strand its futures). */
    class Ticket
    {
      public:
        Ticket() = default;
        Ticket(Ticket&& other) noexcept { swap(other); }
        Ticket& operator=(Ticket&& other) noexcept
        {
            swap(other);
            return *this;
        }
        Ticket(const Ticket&) = delete;
        Ticket& operator=(const Ticket&) = delete;
        ~Ticket();

        /** False for the empty-buffer begin_flush (nothing to run). */
        bool valid() const { return valid_; }

        /** Products in the claimed wave. */
        std::size_t count() const { return count_; }

      private:
        friend class SubmitQueue;
        void swap(Ticket& other) noexcept
        {
            std::swap(buffer_, other.buffer_);
            std::swap(count_, other.count_);
            std::swap(valid_, other.valid_);
        }
        unsigned buffer_ = 0;
        std::size_t count_ = 0;
        bool valid_ = false;
    };

    /**
     * @p device executes the coalesced batches (not owned; must
     * outlive the queue). @p max_pending > 0 auto-flushes whenever
     * that many products are buffered; 0 buffers without bound until
     * a get()/flush(). @p parallelism is forwarded to
     * mul_batch_wave (0 = auto). @p inflight_waves sizes the wave
     * ring: that many flushes may execute concurrently (>= 1; 1 = the
     * classic double-buffered queue).
     */
    explicit SubmitQueue(Device& device, std::size_t max_pending = 0,
                         unsigned parallelism = 0,
                         unsigned inflight_waves = 1);

    /** Enqueue one product a*b; does not execute anything yet (unless
     * the max_pending watermark is crossed). */
    Future submit(const mpn::Natural& a, const mpn::Natural& b);

    /**
     * First half of a pipelined flush: claim everything buffered so
     * far as one wave and free the fill side for new submissions.
     * Blocks while all inflight_waves execution slots are busy (the
     * ring's backpressure). Returns an invalid Ticket when nothing is
     * buffered. The claimed wave executes only when the ticket is
     * handed to run_flush — its futures stay unready until then.
     */
    Ticket begin_flush();

    /** Second half: execute @p ticket's wave through
     * Device::mul_batch_wave and publish the products (or the typed
     * error) to the wave's futures. Runs device work on the calling
     * thread; safe to call from a worker thread concurrently with
     * submit()/begin_flush()/other run_flush calls. Returns the
     * number of products published. */
    std::size_t run_flush(Ticket ticket);

    /** Execute everything buffered as one coalesced batch, inline
     * (begin_flush + run_flush). Returns the number of products
     * flushed (0 if the buffer was empty). Safe to call concurrently
     * with submit()/get(). */
    std::size_t flush();

    /** Flush until no submission is pending or in flight. */
    void wait_all();

    /** Buffered (not yet claimed by a flush) submissions. */
    std::size_t pending() const;

    /** Flushes begun and not yet published. */
    unsigned inflight_flushes() const;

    QueueStats stats() const;

    Device& device() { return device_; }

    unsigned inflight_waves() const { return inflight_waves_; }

  private:
    /** Inline begin+run under @p lock; re-acquires before returning. */
    std::size_t flush_locked(std::unique_lock<std::mutex>& lock);

    /** begin_flush with @p lock held; may wait on backpressure. */
    Ticket begin_flush_locked(std::unique_lock<std::mutex>& lock);

    Device& device_;
    std::size_t max_pending_;
    unsigned parallelism_;
    unsigned inflight_waves_;
    std::shared_ptr<State> state_;
};

} // namespace camp::exec

#endif // CAMP_EXEC_QUEUE_HPP
