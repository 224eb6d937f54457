/**
 * @file
 * Bit-field extraction/insertion helpers used by the address mapping
 * logic and cache indexing.
 */

#ifndef CLOUDMC_COMMON_BITUTILS_HH
#define CLOUDMC_COMMON_BITUTILS_HH

#include <cstdint>

#include "log.hh"
#include "types.hh"

namespace mcsim {

/** True iff @p v is a power of two (0 is not). */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** floor(log2(v)); v must be non-zero. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    unsigned l = 0;
    while (v >>= 1)
        ++l;
    return l;
}

/** ceil(log2(v)); v must be non-zero. */
constexpr unsigned
ceilLog2(std::uint64_t v)
{
    return isPowerOf2(v) ? floorLog2(v) : floorLog2(v) + 1;
}

/** Index of the lowest set bit of @p v; v must be non-zero. Walking a
 *  mask with `m &= m - 1` visits its bits in ascending order. */
inline unsigned
lowestSetBit(std::uint64_t v)
{
    return static_cast<unsigned>(__builtin_ctzll(v));
}

/** Extract @p width bits of @p value starting at bit @p lsb. */
constexpr std::uint64_t
extractBits(std::uint64_t value, unsigned lsb, unsigned width)
{
    if (width == 0)
        return 0;
    if (width >= 64)
        return value >> lsb;
    return (value >> lsb) & ((std::uint64_t{1} << width) - 1);
}

/**
 * Insert the low @p width bits of @p field into @p value at bit @p lsb,
 * returning the result. Existing bits in the target range are replaced.
 */
constexpr std::uint64_t
insertBits(std::uint64_t value, unsigned lsb, unsigned width,
           std::uint64_t field)
{
    if (width == 0)
        return value;
    const std::uint64_t mask =
        width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
    return (value & ~(mask << lsb)) | ((field & mask) << lsb);
}

} // namespace mcsim

#endif // CLOUDMC_COMMON_BITUTILS_HH
