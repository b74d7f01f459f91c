#include "exec/wave.hpp"

#include <algorithm>
#include <cstring>

#include "support/assert.hpp"

namespace camp::exec {

using mpn::Limb;

WaveBuffer::WaveBuffer(support::LimbArena& arena) : arena_(arena) {}

WaveBuffer::~WaveBuffer()
{
    release();
}

Limb*
WaveBuffer::carve(std::size_t words)
{
    if (words == 0)
        return nullptr;
    while (cursor_ < segments_.size() &&
           segments_[cursor_].capacity - segments_[cursor_].used < words)
        ++cursor_; // tail waste; reclaimed by the next reset()
    if (cursor_ == segments_.size()) {
        const std::size_t want = std::max(
            {segments_.empty() ? kFirstSegmentWords
                               : segments_.back().capacity * 2,
             words, kFirstSegmentWords});
        const std::size_t cap = support::LimbArena::size_class_words(want);
        Segment segment{arena_.alloc(cap), cap, 0};
        // The uncarved extent stays poisoned; carve() unpoisons exactly
        // what is handed out, so an out-of-item access faults.
        support::asan_poison(segment.ptr, cap * sizeof(Limb));
        segments_.push_back(segment);
    }
    Segment& segment = segments_[cursor_];
    Limb* p = segment.ptr + segment.used;
    segment.used += words;
    support::asan_unpoison(p, words * sizeof(Limb));
    return p;
}

std::size_t
WaveBuffer::add(const mpn::Natural& a, const mpn::Natural& b)
{
    Item item;
    item.an = a.size();
    item.bn = b.size();
    if (item.an != 0) {
        Limb* ap = carve(item.an);
        std::memcpy(ap, a.data(), item.an * sizeof(Limb));
        item.a = ap;
    }
    if (item.bn != 0) {
        Limb* bp = carve(item.bn);
        std::memcpy(bp, b.data(), item.bn * sizeof(Limb));
        item.b = bp;
    }
    // Result storage is reserved eagerly: wave execution then only
    // reads bookkeeping, so concurrent shard tasks writing disjoint
    // items never race on this buffer.
    if (item.an != 0 && item.bn != 0) {
        item.r_cap = item.an + item.bn;
        item.r = carve(item.r_cap);
    }
    items_.push_back(item);
    return items_.size() - 1;
}

void
WaveBuffer::set_result_size(std::size_t i, std::size_t used)
{
    Item& item = items_[i];
    CAMP_ASSERT(used <= item.r_cap);
    while (used > 0 && item.r[used - 1] == 0)
        --used;
    item.r_len = used;
}

void
WaveBuffer::set_result(std::size_t i, const mpn::Natural& product,
                       bool faulty)
{
    std::size_t n = product.size();
    if (n > items_[i].r_cap) {
        CAMP_ASSERT(faulty);
        n = items_[i].r_cap;
    }
    if (n != 0)
        std::memcpy(items_[i].r, product.data(), n * sizeof(Limb));
    set_result_size(i, n);
}

void
WaveBuffer::reset()
{
    items_.clear();
    for (Segment& segment : segments_) {
        support::asan_poison(segment.ptr,
                             segment.capacity * sizeof(Limb));
        segment.used = 0;
    }
    cursor_ = 0;
    ++generation_;
}

void
WaveBuffer::release()
{
    reset();
    for (Segment& segment : segments_)
        arena_.release(segment.ptr, segment.capacity);
    segments_.clear();
}

std::size_t
WaveBuffer::capacity_words() const
{
    std::size_t total = 0;
    for (const Segment& segment : segments_)
        total += segment.capacity;
    return total;
}

std::size_t
fork_slices(const WaveBuffer& wave, const std::vector<std::size_t>& items,
            std::size_t max_slices)
{
    std::uint64_t work = 0;
    for (const std::size_t item : items)
        work += static_cast<std::uint64_t>(wave.operand_a(item).size()) *
                wave.operand_b(item).size();
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(max_slices, work / kForkChunkWork));
}

} // namespace camp::exec
