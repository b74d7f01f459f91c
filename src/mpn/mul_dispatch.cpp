/**
 * @file
 * Algorithm dispatch for mul(): schoolbook / Karatsuba / Toom-3/4/6 /
 * SSA by operand size, with block decomposition for heavily unbalanced
 * operands — the same threshold-driven policy structure GMP and the
 * paper's MPApca library use (§V-C).
 */
#include <vector>

#include "mpn/basic.hpp"
#include "mpn/mul.hpp"
#include "support/assert.hpp"
#include "support/env.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace camp::mpn {

namespace {

/** Products below this many (smaller-operand) limbs are not observed:
 * tracing/metrics per schoolbook leaf would dominate the work. */
constexpr std::size_t kObserveLimbs = 16;

/** Registered-once metric handles for the mul hot path (hot-path cost
 * after the first call: one static-init guard load + relaxed RMWs). */
struct MulMetrics
{
    support::metrics::Counter* algo[6];
    support::metrics::Counter* calls;
    support::metrics::Histogram* bits;
};

MulMetrics&
mul_metrics()
{
    static MulMetrics* m = [] {
        namespace metrics = support::metrics;
        auto* mm = new MulMetrics;
        mm->algo[0] = &metrics::counter("mpn.mul.algo.schoolbook");
        mm->algo[1] = &metrics::counter("mpn.mul.algo.karatsuba");
        mm->algo[2] = &metrics::counter("mpn.mul.algo.toom3");
        mm->algo[3] = &metrics::counter("mpn.mul.algo.toom4");
        mm->algo[4] = &metrics::counter("mpn.mul.algo.toom6");
        mm->algo[5] = &metrics::counter("mpn.mul.algo.ssa");
        mm->calls = &metrics::counter("mpn.mul.calls");
        mm->bits = &metrics::histogram("mpn.mul.bits");
        return mm;
    }();
    return *m;
}

/** Index into MulMetrics::algo, mirroring mul_algorithm_name. */
int
algo_index(std::size_t n, const MulTuning& t)
{
    if (n < t.karatsuba)
        return 0;
    if (n < t.toom3)
        return 1;
    if (n < t.toom4)
        return 2;
    if (n < t.toom6)
        return 3;
    if (n < t.ssa)
        return 4;
    return 5;
}

} // namespace

MulTuning
env_tuning(const std::string& prefix, MulTuning tuning)
{
    const auto apply = [&prefix](const char* field, std::size_t& value) {
        value = static_cast<std::size_t>(
            support::env_positive_u64((prefix + field).c_str(), value));
    };
    apply("KARATSUBA", tuning.karatsuba);
    apply("TOOM3", tuning.toom3);
    apply("TOOM4", tuning.toom4);
    apply("TOOM6", tuning.toom6);
    apply("SSA", tuning.ssa);
    apply("PARALLEL", tuning.parallel);
    return tuning;
}

bool
mul_tuning_monotone(const MulTuning& t)
{
    return t.karatsuba >= 2 && t.karatsuba < t.toom3 &&
           t.toom3 < t.toom4 && t.toom4 < t.toom6 && t.toom6 < t.ssa;
}

MulTuning&
mul_tuning()
{
    static MulTuning tuning = [] {
        const MulTuning t = env_tuning("CAMP_MUL_THRESH_", MulTuning{});
        CAMP_ASSERT_MSG(mul_tuning_monotone(t),
                        "mul thresholds must satisfy karatsuba < toom3 "
                        "< toom4 < toom6 < ssa (check CAMP_MUL_THRESH_* "
                        "overrides)");
        return t;
    }();
    return tuning;
}

bool
mul_should_fork(std::size_t bn)
{
    return bn >= mul_tuning().parallel &&
           support::ThreadPool::global().parallel() &&
           support::parallel_allowed();
}

const char*
mul_algorithm_name(std::size_t n, const MulTuning& t)
{
    if (n < t.karatsuba)
        return "schoolbook";
    if (n < t.toom3)
        return "karatsuba";
    if (n < t.toom4)
        return "toom3";
    if (n < t.toom6)
        return "toom4";
    if (n < t.ssa)
        return "toom6";
    return "ssa";
}

namespace {

/**
 * Balanced-ish product: an >= bn > an/2 after normalization; picks the
 * best algorithm whose split-block requirement b covers.
 */
void
mul_balanced(Limb* rp, const Limb* ap, std::size_t an,
             const Limb* bp, std::size_t bn)
{
    const MulTuning& t = mul_tuning();
    if (bn < t.karatsuba) {
        mul_basecase(rp, ap, an, bp, bn);
        return;
    }
    // Toom-k requires bn > (k-1) * ceil(an / k).
    auto toom_ok = [&](unsigned k) {
        const std::size_t m = (an + k - 1) / k;
        return bn > (k - 1) * m;
    };
    if (bn >= t.ssa) {
        mul_ssa(rp, ap, an, bp, bn);
    } else if (bn >= t.toom6 && toom_ok(6)) {
        mul_toom(rp, ap, an, bp, bn, 6);
    } else if (bn >= t.toom4 && toom_ok(4)) {
        mul_toom(rp, ap, an, bp, bn, 4);
    } else if (bn >= t.toom3 && toom_ok(3)) {
        mul_toom(rp, ap, an, bp, bn, 3);
    } else {
        mul_karatsuba(rp, ap, an, bp, bn);
    }
}

} // namespace

void
mul(Limb* rp, const Limb* ap, std::size_t an, const Limb* bp, std::size_t bn)
{
    CAMP_ASSERT(an >= bn && bn >= 1);
    const std::size_t rn = an + bn;
    // Internal callers pass unnormalized slices; renormalize here and
    // keep the contract that the full rn limbs of rp are written.
    std::size_t na = normalized_size(ap, an);
    std::size_t nb = normalized_size(bp, bn);
    if (na < nb) {
        std::swap(ap, bp);
        std::swap(na, nb);
    }
    if (nb == 0) {
        zero(rp, rn);
        return;
    }
    zero(rp + na + nb, rn - na - nb);
    an = na;
    bn = nb;

    const bool observe = bn >= kObserveLimbs;
    support::trace::Span span(observe ? "mpn.mul" : nullptr, "mpn");
    if (observe) {
        MulMetrics& m = mul_metrics();
        m.calls->add();
        m.bits->record(static_cast<std::uint64_t>(an) * kLimbBits);
        m.algo[algo_index(bn, mul_tuning())]->add();
        span.arg("bits_a", static_cast<double>(an) * kLimbBits);
        span.arg("bits_b", static_cast<double>(bn) * kLimbBits);
    }

    if (bn == 1) {
        rp[an] = mul_1(rp, ap, an, bp[0]);
        return;
    }
    if (2 * bn > an) {
        mul_balanced(rp, ap, an, bp, bn);
        return;
    }

    // Heavily unbalanced: process a in bn-limb blocks, accumulating
    // shifted balanced products (GMP's mul_basecase-free block walk).
    std::vector<Limb> tmp(2 * bn);
    std::size_t done = 0; // limbs of a consumed
    while (done < an) {
        const std::size_t chunk = std::min(bn, an - done);
        Limb* dst = rp + done;
        if (chunk >= bn) {
            if (done == 0) {
                mul_balanced(dst, ap, chunk, bp, bn);
            } else {
                mul_balanced(tmp.data(), ap + done, chunk, bp, bn);
                // dst[0..bn) already holds low halves of previous sums;
                // add the low half, then copy/add the high half.
                Limb carry = add_n(dst, dst, tmp.data(), bn);
                carry = add_1(dst + bn, tmp.data() + bn, bn, carry);
                CAMP_ASSERT(carry == 0);
            }
        } else {
            // Final short chunk.
            if (bn >= chunk)
                mul(tmp.data(), bp, bn, ap + done, chunk);
            else
                mul(tmp.data(), ap + done, chunk, bp, bn);
            if (done == 0) {
                copy(dst, tmp.data(), chunk + bn);
            } else {
                Limb carry = add_n(dst, dst, tmp.data(), bn);
                carry = add_1(dst + bn, tmp.data() + bn, chunk, carry);
                CAMP_ASSERT(carry == 0);
            }
        }
        done += chunk;
    }
}

namespace {

/**
 * Karatsuba square of a normalized n-limb a, n >= 2: with
 * a = a1*B^m + a0 and m = floor(n/2),
 * a^2 = a1^2*B^2m + (a0^2 + a1^2 - (a1 - a0)^2)*B^m + a0^2.
 * The middle term squares |a1 - a0| instead of multiplying two sums,
 * so all three half-size products recurse through sqr and its
 * symmetric basecase.
 */
void
sqr_karatsuba(Limb* rp, const Limb* ap, std::size_t n)
{
    const std::size_t m = n >> 1;
    const std::size_t h = n - m; // a1's size: m or m + 1
    const Limb* a0 = ap;
    const Limb* a1 = ap + m;

    support::ScratchFrame scratch;
    Limb* d = scratch.alloc(h);
    Limb* u = scratch.alloc(2 * h);
    Limb* s = scratch.alloc(2 * h + 1);

    sqr(rp, a0, m);         // rp[0..2m)  = a0^2
    sqr(rp + 2 * m, a1, h); // rp[2m..2n) = a1^2

    // d = |a1 - a0|. a1's top limb is a's, so a1 is normalized at h.
    const std::size_t a0n = normalized_size(a0, m);
    Limb borrow;
    if (cmp(a1, h, a0, a0n) >= 0)
        borrow = sub(d, a1, h, a0, a0n);
    else
        borrow = sub(d, a0, m, a1, h);
    CAMP_ASSERT(borrow == 0);
    const std::size_t dn = normalized_size(d, h);

    // s = a0^2 + a1^2 - d^2 = 2*a0*a1.
    s[2 * h] = add(s, rp + 2 * m, 2 * h, rp, 2 * m);
    if (dn > 0) {
        sqr(u, d, dn);
        borrow = sub(s, s, 2 * h + 1, u, 2 * dn);
        CAMP_ASSERT(borrow == 0);
    }

    // rp += s * B^m.
    const Limb carry = add(rp + m, rp + m, 2 * n - m, s,
                           normalized_size(s, 2 * h + 1));
    CAMP_ASSERT(carry == 0);
}

} // namespace

void
sqr(Limb* rp, const Limb* ap, std::size_t n)
{
    CAMP_ASSERT(n >= 1);
    const std::size_t nn = normalized_size(ap, n);
    if (nn == 0) {
        zero(rp, 2 * n);
        return;
    }
    zero(rp + 2 * nn, 2 * (n - nn));
    const MulTuning& t = mul_tuning();
    if (nn < t.karatsuba)
        sqr_basecase(rp, ap, nn);
    else if (nn < t.toom3)
        sqr_karatsuba(rp, ap, nn);
    else
        mul(rp, ap, nn, ap, nn);
}

} // namespace camp::mpn
