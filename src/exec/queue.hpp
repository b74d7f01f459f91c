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
 * Storage is a double buffer of pooled WaveBuffers (DESIGN.md §14):
 * submissions copy their operands into the fill side while at most
 * one flush executes the other side, so submit() never waits for a
 * running device call and wave storage recycles flush over flush. The
 * serve engine does not go through this queue: it fills and runs its
 * own waves (serve/server.hpp).
 */
#ifndef CAMP_EXEC_QUEUE_HPP
#define CAMP_EXEC_QUEUE_HPP

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
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
        ErrorCode error = ErrorCode::Ok; ///< set when the flush threw
        std::string error_message;
    };

    struct State
    {
        std::mutex mutex;
        std::condition_variable cv;
        /** The double buffer. Submissions copy their operands into
         * waves[fill] (the one operand copy of the zero-copy path); a
         * flush swaps sides and runs the other one outside the lock. */
        WaveBuffer waves[2];
        unsigned fill = 0;
        std::vector<std::shared_ptr<Slot>> slots; ///< fill-side futures
        /** The running flush's futures and run_wave scratch: touched
         * only by the one flushing thread until it publishes, so their
         * capacity recycles flush over flush. */
        std::vector<std::shared_ptr<Slot>> flushing_slots;
        std::vector<std::size_t> items;
        std::vector<std::uint64_t> indices;
        bool flushing = false; ///< a flush is executing
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
         * the product elsewhere. May be called
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

    /**
     * @p device executes the coalesced batches (not owned; must
     * outlive the queue). @p max_pending > 0 auto-flushes whenever
     * that many products are buffered; 0 buffers without bound until
     * a get()/flush(). @p parallelism is forwarded to
     * mul_batch_wave (0 = auto).
     */
    explicit SubmitQueue(Device& device, std::size_t max_pending = 0,
                         unsigned parallelism = 0);

    /** Enqueue one product a*b; does not execute anything yet (unless
     * the max_pending watermark is crossed). */
    Future submit(const mpn::Natural& a, const mpn::Natural& b);

    /** Execute everything buffered as one coalesced batch on the
     * calling thread, after any flush already running. Returns the
     * number of products flushed (0 if the buffer was empty). Safe to
     * call concurrently with submit()/get(). */
    std::size_t flush();

    /** Flush until no submission is pending or in flight. */
    void wait_all();

    /** Buffered (not yet flushing) submissions. */
    std::size_t pending() const;

    QueueStats stats() const;

    Device& device() { return device_; }

  private:
    /** Wait out a running flush, then run the fill side (if any) with
     * @p lock released around the device call; re-acquires before
     * returning. */
    std::size_t flush_locked(std::unique_lock<std::mutex>& lock);

    Device& device_;
    std::size_t max_pending_;
    unsigned parallelism_;
    std::shared_ptr<State> state_;
};

} // namespace camp::exec

#endif // CAMP_EXEC_QUEUE_HPP
