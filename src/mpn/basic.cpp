#include "mpn/basic.hpp"

#include <cstring>

#include "mpn/kernels/kernels.hpp"
#include "support/assert.hpp"

namespace camp::mpn {

// n == 0 returns early: callers may pass a null run then, and
// memset/memmove require non-null pointers even for a zero length.

void
zero(Limb* rp, std::size_t n)
{
    if (n == 0)
        return;
    std::memset(rp, 0, n * sizeof(Limb));
}

void
copy(Limb* rp, const Limb* ap, std::size_t n)
{
    if (n == 0)
        return;
    std::memmove(rp, ap, n * sizeof(Limb));
}

std::size_t
normalized_size(const Limb* ap, std::size_t n)
{
    while (n > 0 && ap[n - 1] == 0)
        --n;
    return n;
}

int
cmp_n(const Limb* ap, const Limb* bp, std::size_t n)
{
    for (std::size_t i = n; i-- > 0;) {
        if (ap[i] != bp[i])
            return ap[i] < bp[i] ? -1 : 1;
    }
    return 0;
}

int
cmp(const Limb* ap, std::size_t an, const Limb* bp, std::size_t bn)
{
    if (an != bn)
        return an < bn ? -1 : 1;
    return cmp_n(ap, bp, an);
}

Limb
add_n(Limb* rp, const Limb* ap, const Limb* bp, std::size_t n)
{
    return kernels::active().add_n(rp, ap, bp, n);
}

Limb
add_1(Limb* rp, const Limb* ap, std::size_t n, Limb b)
{
    for (std::size_t i = 0; i < n; ++i) {
        const Limb r = ap[i] + b;
        b = r < b;
        rp[i] = r;
        if (b == 0) {
            if (rp != ap)
                copy(rp + i + 1, ap + i + 1, n - i - 1);
            return 0;
        }
    }
    return b;
}

Limb
add(Limb* rp, const Limb* ap, std::size_t an, const Limb* bp, std::size_t bn)
{
    CAMP_ASSERT(an >= bn);
    Limb carry = add_n(rp, ap, bp, bn);
    if (an > bn)
        carry = add_1(rp + bn, ap + bn, an - bn, carry);
    return carry;
}

Limb
sub_n(Limb* rp, const Limb* ap, const Limb* bp, std::size_t n)
{
    return kernels::active().sub_n(rp, ap, bp, n);
}

Limb
sub_1(Limb* rp, const Limb* ap, std::size_t n, Limb b)
{
    for (std::size_t i = 0; i < n; ++i) {
        const Limb a = ap[i];
        rp[i] = a - b;
        b = a < b;
        if (b == 0) {
            if (rp != ap)
                copy(rp + i + 1, ap + i + 1, n - i - 1);
            return 0;
        }
    }
    return b;
}

Limb
sub(Limb* rp, const Limb* ap, std::size_t an, const Limb* bp, std::size_t bn)
{
    CAMP_ASSERT(an >= bn);
    Limb borrow = sub_n(rp, ap, bp, bn);
    if (an > bn)
        borrow = sub_1(rp + bn, ap + bn, an - bn, borrow);
    return borrow;
}

Limb
lshift(Limb* rp, const Limb* ap, std::size_t n, unsigned cnt)
{
    CAMP_ASSERT(n > 0 && cnt > 0 && cnt < kLimbBits);
    const unsigned tnc = kLimbBits - cnt;
    Limb high = ap[n - 1];
    const Limb out = high >> tnc;
    for (std::size_t i = n - 1; i > 0; --i) {
        const Limb low = ap[i - 1];
        rp[i] = (high << cnt) | (low >> tnc);
        high = low;
    }
    rp[0] = high << cnt;
    return out;
}

Limb
rshift(Limb* rp, const Limb* ap, std::size_t n, unsigned cnt)
{
    CAMP_ASSERT(n > 0 && cnt > 0 && cnt < kLimbBits);
    const unsigned tnc = kLimbBits - cnt;
    Limb low = ap[0];
    const Limb out = low << tnc;
    for (std::size_t i = 0; i + 1 < n; ++i) {
        const Limb high = ap[i + 1];
        rp[i] = (low >> cnt) | (high << tnc);
        low = high;
    }
    rp[n - 1] = low >> cnt;
    return out;
}

void
and_n(Limb* rp, const Limb* ap, const Limb* bp, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        rp[i] = ap[i] & bp[i];
}

void
or_n(Limb* rp, const Limb* ap, const Limb* bp, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        rp[i] = ap[i] | bp[i];
}

void
xor_n(Limb* rp, const Limb* ap, const Limb* bp, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        rp[i] = ap[i] ^ bp[i];
}

std::uint64_t
bit_size(const Limb* ap, std::size_t n)
{
    n = normalized_size(ap, n);
    if (n == 0)
        return 0;
    return (n - 1) * static_cast<std::uint64_t>(kLimbBits) +
           camp::bit_length(ap[n - 1]);
}

bool
get_bit(const Limb* ap, std::size_t n, std::uint64_t idx)
{
    const std::size_t limb = static_cast<std::size_t>(idx / kLimbBits);
    if (limb >= n)
        return false;
    return (ap[limb] >> (idx % kLimbBits)) & 1;
}

} // namespace camp::mpn
