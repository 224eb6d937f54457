/**
 * @file
 * Clock-domain arithmetic, the DRAM device registry, and geometry
 * validation: the tick grid must be exact for every registered
 * frequency pair, every registry entry must be internally consistent
 * (and able to host the IO/DMA buffer), and DramGeometry must reject
 * non-power-of-two shapes loudly.
 */

#include <gtest/gtest.h>

#include <set>

#include "dram/devices.hh"
#include "sim/sim_config.hh"

using namespace mcsim;

TEST(ClockDomains, BaselineMatchesPaperGrid)
{
    // 2 GHz over 800 MHz: 250 ps ticks, ratios 2 and 5.
    EXPECT_EQ(kBaselineClocks.ticksPerCore.count(), 2u);
    EXPECT_EQ(kBaselineClocks.ticksPerDram.count(), 5u);
    EXPECT_EQ(kBaselineClocks.tickMhz(), 4000u);
    EXPECT_DOUBLE_EQ(kBaselineClocks.nsPerTick(), 0.25);
    EXPECT_DOUBLE_EQ(kBaselineClocks.nsPerDramCycle(), 1.25);
    EXPECT_EQ(ClockDomains::fromMhz(2000, 800), kBaselineClocks);
}

TEST(ClockDomains, ArbitraryRatiosStayExact)
{
    // DDR4-2400 under 2 GHz cores: LCM(2000,1200) = 6000 MHz ticks.
    const ClockDomains ddr4 = ClockDomains::fromMhz(2000, 1200);
    EXPECT_EQ(ddr4.ticksPerCore.count(), 3u);
    EXPECT_EQ(ddr4.ticksPerDram.count(), 5u);
    EXPECT_EQ(ddr4.tickMhz(), 6000u);

    // DDR3-1066 (533 MHz): a deliberately ugly pair.
    const ClockDomains ddr3 = ClockDomains::fromMhz(2000, 533);
    EXPECT_EQ(ddr3.ticksPerCore * 2000u, ddr3.ticksPerDram * 533u);

    // Equal frequencies collapse to a 1:1 grid.
    const ClockDomains flat = ClockDomains::fromMhz(1000, 1000);
    EXPECT_EQ(flat.ticksPerCore.count(), 1u);
    EXPECT_EQ(flat.ticksPerDram.count(), 1u);
}

TEST(ClockDomains, ConversionsRoundTrip)
{
    const ClockDomains clk = ClockDomains::fromMhz(2000, 1200);
    for (std::uint64_t cycles : {0ull, 1ull, 7ull, 123'456ull}) {
        EXPECT_EQ(clk.ticksToCore(clk.coreToTicks(cycles)).count(),
                  cycles);
        EXPECT_EQ(clk.ticksToDram(clk.dramToTicks(cycles)).count(),
                  cycles);
    }
    // One cycle of either domain always spans >= 1 tick.
    EXPECT_GE(clk.ticksPerCore.count(), 1u);
    EXPECT_GE(clk.ticksPerDram.count(), 1u);
}

TEST(DeviceRegistry, ContainsTheDocumentedSpeedGrades)
{
    std::set<std::string> names;
    for (const DramDevice &d : dramDeviceRegistry())
        names.insert(d.name);
    for (const char *want :
         {"DDR3-1066", "DDR3-1333", "DDR3-1600", "DDR3-1866", "DDR4-2400",
          "DDR5-4800", "LPDDR3-1600"}) {
        EXPECT_TRUE(names.count(want)) << "missing device " << want;
    }
    EXPECT_EQ(names.size(), dramDeviceRegistry().size())
        << "duplicate registry names";
    EXPECT_NE(findDramDevice("DDR4-2400"), nullptr);
    EXPECT_EQ(findDramDevice("DDR9-9999"), nullptr);
}

TEST(DeviceRegistry, EntriesAreInternallyConsistent)
{
    for (const DramDevice &d : dramDeviceRegistry()) {
        SCOPED_TRACE(d.name);
        // DDR: data rate = 2x bus clock (within marketing rounding,
        // e.g. "1333" MT/s on a 667 MHz bus).
        const int drift = static_cast<int>(d.dataRateMtps) -
                          2 * static_cast<int>(d.busMhz);
        EXPECT_LE(drift < 0 ? -drift : drift, 1)
            << "bus clock is not half the data rate";
        const DramTimings &t = d.timings;
        // JEDEC structural relations every real device satisfies.
        EXPECT_GE(t.tRC, t.tRAS + 1) << "tRC must exceed tRAS";
        EXPECT_LE(t.tRAS, t.tRC);
        EXPECT_GE(t.tRAS, t.tRCD) << "row must stay open past tRCD";
        EXPECT_GE(t.tFAW, t.tRRD) << "four activates cannot beat one";
        EXPECT_GE(t.tRFC, t.tRP) << "refresh outlasts a precharge";
        EXPECT_GT(t.tREFI, t.tRFC) << "refresh interval must dominate";
        EXPECT_TRUE(t.tBURST == 4 || t.tBURST == 8)
            << "BL8 is 4 clocks on a DDR bus; DDR5's BL16 is 8";
        // Split (bank-group) timings: the long same-group value can
        // never undercut the short any-pair one, and a device without
        // bank groups must keep the pairs equal so the single-tCCD
        // model is reproduced exactly.
        EXPECT_GE(t.tCCDL, t.tCCD);
        EXPECT_GE(t.tRRDL, t.tRRD);
        EXPECT_GE(t.tWTRL, t.tWTR);
        if (d.geometry.bankGroupsPerRank == 1) {
            EXPECT_EQ(t.tCCDL, t.tCCD);
            EXPECT_EQ(t.tRRDL, t.tRRD);
            EXPECT_EQ(t.tWTRL, t.tWTR);
        }
        // Per-bank refresh needs its cycle time; a per-bank burst is
        // shorter than the rank-wide one it replaces.
        if (t.perBankRefresh) {
            EXPECT_GT(t.tRFCpb, 0u);
            EXPECT_LT(t.tRFCpb, t.tRFC);
            EXPECT_GT(t.tREFI / d.geometry.banksPerRank, t.tRFCpb)
                << "per-bank refresh interval must dominate tRFCpb";
        }
        // Geometry is legal and divides cleanly.
        d.geometry.validate();
        EXPECT_GE(d.geometry.banksPerRank, d.geometry.bankGroupsPerRank);
        EXPECT_GE(d.power.vdd, 1.0);
        EXPECT_GT(d.power.idd4r, d.power.idd3n);
        EXPECT_FALSE(d.source.empty());
    }
}

TEST(DeviceRegistry, EveryDeviceHostsTheIoBuffer)
{
    // System places the DMA buffer at a fixed 7 GiB + 512 MiB window;
    // a registry geometry too small would abort IO-enabled workloads.
    const std::uint64_t ioEnd = (7ull << 30) + (512ull << 20);
    for (const DramDevice &d : dramDeviceRegistry()) {
        SCOPED_TRACE(d.name);
        EXPECT_GE(d.geometry.capacityBytes(), ioEnd);
    }
}

TEST(DeviceRegistry, BankGroupDevicesCarryRealSplitTimings)
{
    const DramDevice &ddr4 = dramDeviceOrDie("DDR4-2400");
    EXPECT_EQ(ddr4.geometry.bankGroupsPerRank, 4u);
    EXPECT_EQ(ddr4.geometry.banksPerGroup(), 4u);
    EXPECT_GT(ddr4.timings.tCCDL, ddr4.timings.tCCD);
    EXPECT_GT(ddr4.timings.tRRDL, ddr4.timings.tRRD);
    EXPECT_GT(ddr4.timings.tWTRL, ddr4.timings.tWTR);

    const DramDevice &ddr5 = dramDeviceOrDie("DDR5-4800");
    EXPECT_EQ(ddr5.geometry.banksPerRank, 32u);
    EXPECT_EQ(ddr5.geometry.bankGroupsPerRank, 8u);
    EXPECT_EQ(ddr5.timings.tBURST, 8u); // BL16.
    EXPECT_GT(ddr5.timings.tCCDL, ddr5.timings.tCCD);

    const DramDevice &lp = dramDeviceOrDie("LPDDR3-1600");
    EXPECT_TRUE(lp.timings.perBankRefresh);
    EXPECT_GT(lp.timings.tRFCpb, 0u);
}

TEST(DramGeometry, BankGroupOfUsesHighBankBits)
{
    DramGeometry g;
    g.banksPerRank = 16;
    g.bankGroupsPerRank = 4;
    EXPECT_EQ(g.banksPerGroup(), 4u);
    EXPECT_EQ(g.bankGroupOf(0), 0u);
    EXPECT_EQ(g.bankGroupOf(3), 0u);
    EXPECT_EQ(g.bankGroupOf(4), 1u);
    EXPECT_EQ(g.bankGroupOf(15), 3u);
}

TEST(SimConfigDevice, ApplyDevicePreservesChannelsAndCoreClock)
{
    SimConfig cfg = SimConfig::baseline();
    cfg.dram.channels = 4;
    cfg.setCoreMhz(3000);
    cfg.applyDevice(dramDeviceOrDie("DDR4-2400"));
    EXPECT_EQ(cfg.deviceName, "DDR4-2400");
    EXPECT_EQ(cfg.dram.channels, 4u);       // Caller's sweep axis.
    EXPECT_EQ(cfg.dram.banksPerRank, 16u);  // Device geometry.
    EXPECT_EQ(cfg.clocks.coreMhz, 3000u);   // Preserved.
    EXPECT_EQ(cfg.clocks.dramMhz, 1200u);   // Device bus clock.
    EXPECT_EQ(cfg.timings.tCAS, 17u);
    EXPECT_DOUBLE_EQ(cfg.power.vdd, 1.2);
}

TEST(DramGeometry, CapacityScalesWithChannels)
{
    DramGeometry g; // Baseline: 8 GiB at 1 channel.
    EXPECT_EQ(g.capacityBytes(), 8ull << 30);
    g.channels = 4;
    EXPECT_EQ(g.capacityBytes(), 32ull << 30);
    g.channels = 8;
    EXPECT_EQ(g.capacityBytes(), 64ull << 30);
    // No overflow surprises at plausible extremes: 8 channels x
    // 4 ranks x 16 banks x 2^17 rows x 8 KB = 2^39 bytes = 512 GiB.
    g.ranksPerChannel = 4;
    g.banksPerRank = 16;
    g.rowsPerBank = 1ull << 17;
    EXPECT_EQ(g.capacityBytes(), 1ull << 39);
}

using DramGeometryDeathTest = ::testing::Test;

TEST(DramGeometryDeathTest, ValidateRejectsNonPowerOfTwoFields)
{
    const auto withBad = [](auto mutate) {
        DramGeometry g;
        mutate(g);
        g.validate();
    };
    EXPECT_DEATH(withBad([](DramGeometry &g) { g.channels = 3; }),
                 "powers of two");
    EXPECT_DEATH(withBad([](DramGeometry &g) { g.ranksPerChannel = 6; }),
                 "powers of two");
    EXPECT_DEATH(withBad([](DramGeometry &g) { g.banksPerRank = 12; }),
                 "powers of two");
    EXPECT_DEATH(withBad([](DramGeometry &g) { g.bankGroupsPerRank = 3; }),
                 "bank groups");
    EXPECT_DEATH(withBad([](DramGeometry &g) { g.bankGroupsPerRank = 16; }),
                 "bank groups"); // More groups than banks.
    EXPECT_DEATH(withBad([](DramGeometry &g) { g.rowsPerBank = 1000; }),
                 "powers of two");
    EXPECT_DEATH(withBad([](DramGeometry &g) { g.rowBufferBytes = 6000; }),
                 "powers of two");
    EXPECT_DEATH(withBad([](DramGeometry &g) { g.blockBytes = 48; }),
                 "powers of two");
}

TEST(DramGeometryDeathTest, ValidateRejectsMoreThan64BanksPerChannel)
{
    DramGeometry g;
    g.ranksPerChannel = 4;
    g.banksPerRank = 16;
    g.validate(); // 64 banks: the largest channel allowed.
    g.ranksPerChannel = 8;
    EXPECT_DEATH(g.validate(), "at most 64 banks");
}

TEST(DramGeometryDeathTest, ValidateRejectsRowSmallerThanBlock)
{
    DramGeometry g;
    g.rowBufferBytes = 32; // Power of two, but below the 64 B block.
    EXPECT_DEATH(g.validate(), "row buffer smaller than a block");
}
