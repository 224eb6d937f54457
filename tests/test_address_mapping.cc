/**
 * @file
 * Address mapping tests: bijectivity across all schemes and channel
 * counts, field ranges, and the interleaving semantics each scheme
 * name promises.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/random.hh"
#include "mem/address_mapping.hh"

using namespace mcsim;

namespace {

DramGeometry
geomWithChannels(std::uint32_t channels)
{
    DramGeometry g;
    g.channels = channels;
    g.rowsPerBank = 1u << 14;
    return g;
}

} // namespace

/** Parameterized over (scheme, channels). */
class MappingParam
    : public ::testing::TestWithParam<
          std::tuple<MappingScheme, std::uint32_t>>
{
};

TEST_P(MappingParam, DecodeFieldsInRange)
{
    const auto [scheme, channels] = GetParam();
    const auto g = geomWithChannels(channels);
    AddressMapper m(g, scheme);
    Pcg32 rng(99);
    for (int i = 0; i < 2000; ++i) {
        const Addr a = rng.below64(g.capacityBytes());
        const DramCoord c = m.decode(a);
        EXPECT_LT(c.channel, g.channels);
        EXPECT_LT(c.rank, g.ranksPerChannel);
        EXPECT_LT(c.bank, g.banksPerRank);
        EXPECT_LT(c.row, g.rowsPerBank);
        EXPECT_LT(c.column, g.blocksPerRow());
    }
}

TEST_P(MappingParam, EncodeDecodeRoundtrip)
{
    const auto [scheme, channels] = GetParam();
    const auto g = geomWithChannels(channels);
    AddressMapper m(g, scheme);
    Pcg32 rng(7);
    for (int i = 0; i < 2000; ++i) {
        const Addr a =
            rng.below64(g.capacityBytes()) & ~Addr{g.blockBytes - 1};
        const DramCoord c = m.decode(a);
        EXPECT_EQ(m.encode(c), a);
    }
}

TEST_P(MappingParam, DistinctBlocksDistinctCoords)
{
    const auto [scheme, channels] = GetParam();
    const auto g = geomWithChannels(channels);
    AddressMapper m(g, scheme);
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                        std::uint64_t, std::uint32_t>> seen;
    for (Addr a = 0; a < 4096 * g.blockBytes; a += g.blockBytes) {
        const DramCoord c = m.decode(a);
        const auto key =
            std::make_tuple(c.channel, c.rank, c.bank, c.row, c.column);
        EXPECT_TRUE(seen.insert(key).second) << "aliased addr " << a;
    }
}

TEST_P(MappingParam, MappedBitsCoverCapacity)
{
    const auto [scheme, channels] = GetParam();
    const auto g = geomWithChannels(channels);
    AddressMapper m(g, scheme);
    EXPECT_EQ(Addr{1} << (m.mappedBits() + floorLog2(g.blockBytes)),
              g.capacityBytes());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, MappingParam,
    ::testing::Combine(::testing::ValuesIn(kExtendedMappingSchemes),
                       ::testing::Values(1u, 2u, 4u, 8u)));

TEST(Mapping, RoRaBaCoChInterleavesBlocksAcrossChannels)
{
    const auto g = geomWithChannels(4);
    AddressMapper m(g, MappingScheme::RoRaBaCoCh);
    // Consecutive cache blocks land on consecutive channels.
    for (Addr blk = 0; blk < 16; ++blk) {
        EXPECT_EQ(m.decode(blk * g.blockBytes).channel, blk % 4);
    }
}

TEST(Mapping, RoRaBaChCoKeepsRowInOneChannel)
{
    const auto g = geomWithChannels(4);
    AddressMapper m(g, MappingScheme::RoRaBaChCo);
    // A whole row's worth of consecutive blocks stays in one channel.
    const std::uint32_t ch0 = m.decode(0).channel;
    for (Addr blk = 0; blk < g.blocksPerRow(); ++blk)
        EXPECT_EQ(m.decode(blk * g.blockBytes).channel, ch0);
    // The next stripe moves to another channel.
    EXPECT_NE(m.decode(Addr{g.blocksPerRow()} * g.blockBytes).channel,
              ch0);
}

TEST(Mapping, SingleChannelSchemesAgree)
{
    const auto g = geomWithChannels(1);
    AddressMapper a(g, MappingScheme::RoRaBaCoCh);
    AddressMapper b(g, MappingScheme::RoChRaBaCo);
    Pcg32 rng(3);
    for (int i = 0; i < 500; ++i) {
        const Addr addr = rng.below64(g.capacityBytes());
        EXPECT_TRUE(a.decode(addr) == b.decode(addr));
    }
}

TEST(Mapping, SchemeNamesRoundtrip)
{
    for (auto s : kExtendedMappingSchemes) {
        MappingScheme back{};
        EXPECT_TRUE(tryMappingSchemeFromName(mappingSchemeName(s), back));
        EXPECT_EQ(back, s);
    }
}

TEST(Mapping, PermBaXorSpreadsSameBankRowsOverBanks)
{
    // Under the plain stripe scheme, walking rows with fixed bank bits
    // hammers one bank; the XOR permutation spreads the walk across
    // all banks while the non-permuted scheme never leaves bank 0.
    const auto g = geomWithChannels(1);
    AddressMapper plain(g, MappingScheme::RoRaBaChCo);
    AddressMapper perm(g, MappingScheme::PermBaXor);
    std::set<std::uint32_t> plainBanks, permBanks;
    for (std::uint64_t row = 0; row < g.banksPerRank * 2; ++row) {
        DramCoord c;
        c.row = row;
        const Addr a = plain.encode(c); // Bank 0, walking rows.
        plainBanks.insert(plain.decode(a).bank);
        permBanks.insert(perm.decode(a).bank);
    }
    EXPECT_EQ(plainBanks.size(), 1u);
    EXPECT_EQ(permBanks.size(), std::size_t{g.banksPerRank});
}

TEST(Mapping, PermBaXorPreservesRowLocality)
{
    // The permutation must not break sequential streams: consecutive
    // blocks within one row keep identical (rank, bank, row).
    const auto g = geomWithChannels(2);
    AddressMapper m(g, MappingScheme::PermBaXor);
    const DramCoord c0 = m.decode(0);
    for (Addr blk = 1; blk < g.blocksPerRow(); ++blk) {
        const DramCoord c = m.decode(blk * g.blockBytes);
        EXPECT_EQ(c.bank, c0.bank);
        EXPECT_EQ(c.row, c0.row);
        EXPECT_EQ(c.rank, c0.rank);
    }
}

TEST(Mapping, PermChBaXorPermutesChannelWithRow)
{
    const auto g = geomWithChannels(4);
    AddressMapper m(g, MappingScheme::PermChBaXor);
    // Fix the stored channel/bank bits and walk rows; the decoded
    // channel must change as the XORed row slice changes.
    std::set<std::uint32_t> channels;
    const AddressMapper plain(g, MappingScheme::RoRaChBaCo);
    for (std::uint64_t row = 0; row < (g.banksPerRank * 4u); ++row) {
        DramCoord c;
        c.row = row;
        channels.insert(m.decode(plain.encode(c)).channel);
    }
    EXPECT_EQ(channels.size(), std::size_t{g.channels});
}

TEST(Mapping, ColumnBitsAreLowestForCoLowSchemes)
{
    const auto g = geomWithChannels(2);
    AddressMapper m(g, MappingScheme::RoRaChBaCo);
    // With Co in the lowest bits, consecutive blocks advance the
    // column within one row.
    const DramCoord c0 = m.decode(0);
    const DramCoord c1 = m.decode(g.blockBytes);
    EXPECT_EQ(c1.column, c0.column + 1);
    EXPECT_EQ(c1.row, c0.row);
    EXPECT_EQ(c1.channel, c0.channel);
}

namespace {

/** DDR4-like grouped geometry: 16 banks in 4 groups. */
DramGeometry
groupedGeom(std::uint32_t channels)
{
    DramGeometry g = geomWithChannels(channels);
    g.banksPerRank = 16;
    g.bankGroupsPerRank = 4;
    return g;
}

} // namespace

/** Parameterized over (scheme, group mapping): grouped geometry. */
class GroupMappingParam
    : public ::testing::TestWithParam<
          std::tuple<MappingScheme, BankGroupMapping>>
{
};

TEST_P(GroupMappingParam, RoundtripAndRangesWithBankGroups)
{
    const auto [scheme, gm] = GetParam();
    const auto g = groupedGeom(2);
    AddressMapper m(g, scheme, gm);
    Pcg32 rng(31);
    std::set<Addr> seen;
    for (int i = 0; i < 2000; ++i) {
        const Addr a =
            rng.below64(g.capacityBytes() / g.blockBytes) * g.blockBytes;
        const DramCoord c = m.decode(a);
        EXPECT_LT(c.channel, g.channels);
        EXPECT_LT(c.rank, g.ranksPerChannel);
        EXPECT_LT(c.bank, g.banksPerRank);
        EXPECT_LT(c.row, g.rowsPerBank);
        EXPECT_LT(c.column, g.blocksPerRow());
        EXPECT_EQ(m.encode(c), a);
    }
    EXPECT_EQ(m.mappedBits(),
              AddressMapper(g, scheme, BankGroupMapping::GroupPacked)
                  .mappedBits());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesBothPlacements, GroupMappingParam,
    ::testing::Combine(::testing::ValuesIn(kExtendedMappingSchemes),
                       ::testing::ValuesIn(kAllBankGroupMappings)));

TEST(GroupMapping, InterleavedRotatesConsecutiveBlocksAcrossGroups)
{
    // With the group bits sunk to the bottom, consecutive blocks (of
    // one channel) walk bank groups round-robin — the layout that
    // keeps streaming CAS trains on tCCD_S.
    const auto g = groupedGeom(1);
    AddressMapper m(g, MappingScheme::RoRaBaChCo,
                    BankGroupMapping::GroupInterleaved);
    for (std::uint64_t blk = 0; blk < 16; ++blk) {
        const DramCoord c = m.decode(blk * g.blockBytes);
        EXPECT_EQ(g.bankGroupOf(c.bank),
                  blk % g.bankGroupsPerRank)
            << "block " << blk;
    }
}

TEST(GroupMapping, PackedKeepsConsecutiveBlocksInOneGroup)
{
    // The packed layout preserves the classic contiguous bank field: a
    // stream stays in one bank (and so one group) for a whole row.
    const auto g = groupedGeom(1);
    AddressMapper m(g, MappingScheme::RoRaBaChCo,
                    BankGroupMapping::GroupPacked);
    const DramCoord c0 = m.decode(0);
    for (std::uint64_t blk = 1; blk < g.blocksPerRow(); ++blk) {
        const DramCoord c = m.decode(blk * g.blockBytes);
        EXPECT_EQ(c.bank, c0.bank);
        EXPECT_EQ(g.bankGroupOf(c.bank), g.bankGroupOf(c0.bank));
    }
}

TEST(GroupMapping, InterleavedKeepsBlockChannelInterleaveLowest)
{
    // RoRaBaCoCh promises block-granular channel interleave; the group
    // bits slot in just above the channel field, not below it.
    const auto g = groupedGeom(4);
    AddressMapper m(g, MappingScheme::RoRaBaCoCh,
                    BankGroupMapping::GroupInterleaved);
    for (std::uint64_t blk = 0; blk < 8; ++blk) {
        const DramCoord c = m.decode(blk * g.blockBytes);
        EXPECT_EQ(c.channel, blk % g.channels) << "block " << blk;
    }
    // Above the channel bits, groups rotate.
    const DramCoord a = m.decode(0);
    const DramCoord b = m.decode(g.channels * g.blockBytes);
    EXPECT_NE(g.bankGroupOf(b.bank), g.bankGroupOf(a.bank));
}

TEST(GroupMapping, SingleGroupGeometryIgnoresThePlacement)
{
    // With one bank group the two placements are the same layout.
    const auto g = geomWithChannels(2);
    AddressMapper inter(g, MappingScheme::RoRaChBaCo,
                        BankGroupMapping::GroupInterleaved);
    AddressMapper packed(g, MappingScheme::RoRaChBaCo,
                         BankGroupMapping::GroupPacked);
    Pcg32 rng(5);
    for (int i = 0; i < 500; ++i) {
        const Addr a = rng.below64(g.capacityBytes());
        EXPECT_TRUE(inter.decode(a) == packed.decode(a));
    }
}

TEST(GroupMapping, NamesRoundtrip)
{
    BankGroupMapping back{};
    for (auto m : kAllBankGroupMappings) {
        EXPECT_TRUE(
            tryBankGroupMappingFromName(bankGroupMappingName(m), back));
        EXPECT_EQ(back, m);
    }
    EXPECT_TRUE(tryBankGroupMappingFromName("interleaved", back));
    EXPECT_EQ(back, BankGroupMapping::GroupInterleaved);
    EXPECT_TRUE(tryBankGroupMappingFromName("packed", back));
    EXPECT_EQ(back, BankGroupMapping::GroupPacked);
}
