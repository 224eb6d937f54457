/**
 * @file
 * DRAM geometry and timing parameters.
 *
 * Timing values are expressed in DRAM command-bus cycles (tCK); the
 * device model converts them to global ticks internally. The default
 * preset matches the paper's Table 2: DDR3-1600 (800 MHz), 2 ranks,
 * 8 banks per rank, 8 KB row buffer, 11-11-11-28 primary timings.
 */

#ifndef CLOUDMC_DRAM_DRAM_PARAMS_HH
#define CLOUDMC_DRAM_DRAM_PARAMS_HH

#include <cstdint>

#include "common/bitutils.hh"
#include "common/types.hh"

namespace mcsim {

/** Banks one channel may hold (ranks x banks per rank). The controller
 *  keeps one bit per bank and the scheduling layer indexes fixed
 *  per-bank arrays by Request::bankIndex, so both rely on this cap. */
inline constexpr std::uint32_t kMaxBanksPerChannel = 64;

/**
 * DRAM device timing parameters in DRAM cycles.
 *
 * Bank-group devices (DDR4/DDR5) split the CAS-to-CAS, ACT-to-ACT and
 * write-to-read constraints into a short different-bank-group value
 * and a long same-bank-group value. The unsuffixed fields (tCCD,
 * tRRD, tWTR) are the *short* (_S) values and apply between any pair;
 * the `L`-suffixed fields apply on top when both commands target the
 * same bank group of the same rank. Devices without bank groups
 * (DramGeometry::bankGroupsPerRank == 1) set the pairs equal, which
 * reproduces the single-tCCD model exactly.
 */
struct DramTimings
{
    std::uint32_t tCAS = 11;  ///< CL: read command to first data.
    std::uint32_t tRCD = 11;  ///< ACT to internal read/write.
    std::uint32_t tRP = 11;   ///< PRE to ACT.
    std::uint32_t tRAS = 28;  ///< ACT to PRE (same bank).
    std::uint32_t tRC = 39;   ///< ACT to ACT (same bank).
    std::uint32_t tWR = 12;   ///< Write recovery (end of write data to PRE).
    std::uint32_t tWTR = 6;   ///< tWTR_S: write-to-read, same rank.
    std::uint32_t tWTRL = 6;  ///< tWTR_L: write-to-read, same bank group.
    std::uint32_t tRTP = 6;   ///< Read to PRE (same bank).
    std::uint32_t tRRD = 5;   ///< tRRD_S: ACT to ACT, same rank.
    std::uint32_t tRRDL = 5;  ///< tRRD_L: ACT to ACT, same bank group.
    std::uint32_t tFAW = 24;  ///< Four-activate window (per rank,
                              ///< counted across bank groups).
    std::uint32_t tCWL = 8;   ///< Write command to first data.
    std::uint32_t tBURST = 4; ///< Data burst length on the bus (BL8, DDR).
    std::uint32_t tCCD = 4;   ///< tCCD_S: CAS to CAS (same channel).
    std::uint32_t tCCDL = 4;  ///< tCCD_L: CAS to CAS, same bank group.
    std::uint32_t tRTW = 9;   ///< Read cmd to write cmd bus turnaround.
    std::uint32_t tCS = 2;    ///< Rank-to-rank data bus switch penalty.
    std::uint32_t tREFI = 6240; ///< Average refresh interval (7.8 us).
    std::uint32_t tRFC = 208;   ///< Refresh cycle time (260 ns, 4 Gb die).

    /** Per-bank refresh (LPDDR REFpb): refresh cycles one bank at a
     *  time every tREFI / banksPerRank, blocking only that bank for
     *  tRFCpb while the others stay schedulable. */
    bool perBankRefresh = false;
    std::uint32_t tRFCpb = 0; ///< Per-bank refresh cycle time.

    /** Stacked devices only: TSV/return-path crossing from the vault
     *  to the logic layer, charged on read data return. 0 (flat
     *  devices) reproduces the JEDEC model exactly. */
    std::uint32_t tTSV = 0;

    /** The paper's DDR3-1600 configuration (Table 2). */
    static DramTimings ddr3_1600() { return DramTimings{}; }
};

/** Per-device electrical parameters (defaults: DDR3-1600, 4 Gb x8). */
struct DramPowerParams
{
    double vdd = 1.5;       ///< Supply voltage (V).
    double idd0 = 95.0;     ///< ACT-PRE cycling current (mA).
    double idd2n = 42.0;    ///< Precharge standby current (mA).
    double idd3n = 45.0;    ///< Active standby current (mA).
    double idd4r = 180.0;   ///< Read burst current (mA).
    double idd4w = 185.0;   ///< Write burst current (mA).
    double idd5b = 215.0;   ///< Burst refresh current (mA).
    std::uint32_t devicesPerRank = 8; ///< x8 devices on a 64-bit rank.

    /** The defaults; spelled out for call-site readability. */
    static DramPowerParams ddr3_1600() { return DramPowerParams{}; }
};

/** DRAM organization parameters. All counts must be powers of two. */
struct DramGeometry
{
    std::uint32_t channels = 1;
    std::uint32_t ranksPerChannel = 2;
    std::uint32_t banksPerRank = 8;
    /** Bank groups per rank (DDR4: 4, DDR5: 8). 1 disables the
     *  same-group timing constraints (tCCD_L/tRRD_L/tWTR_L). The
     *  physical convention: bank index = group * banksPerGroup() +
     *  index-within-group, i.e. the high bank bits select the group. */
    std::uint32_t bankGroupsPerRank = 1;
    std::uint64_t rowsPerBank = 1u << 16; ///< 64 K rows => 16 GB @ 1ch.
    std::uint32_t rowBufferBytes = 8192;  ///< 8 KB row buffer.
    std::uint32_t blockBytes = 64;        ///< Cache block / burst payload.
    /**
     * Stacked (HMC-style) devices: vaults per stack, 0 for flat JEDEC
     * parts. When nonzero, `channels` counts stacks and the per-"rank"
     * bank/row fields describe ONE vault, so capacity scales by the
     * vault count and the stacked backend builds channels *
     * vaultsPerStack controller queues (one per vault).
     */
    std::uint32_t vaultsPerStack = 0;

    /** Cache blocks per row (columns at block granularity). */
    std::uint32_t
    blocksPerRow() const
    {
        return rowBufferBytes / blockBytes;
    }

    /** Banks in one bank group. */
    std::uint32_t
    banksPerGroup() const
    {
        return banksPerRank / bankGroupsPerRank;
    }

    /** Bank group of a bank index (high bank bits select the group). */
    std::uint32_t
    bankGroupOf(std::uint32_t bank) const
    {
        return bank / banksPerGroup();
    }

    /** Total addressable bytes across all channels (and vaults). */
    std::uint64_t
    capacityBytes() const
    {
        return static_cast<std::uint64_t>(channels) * ranksPerChannel *
               banksPerRank * rowsPerBank * rowBufferBytes *
               (vaultsPerStack ? vaultsPerStack : 1);
    }

    /** Validate power-of-two-ness; fatal on user error. */
    void
    validate() const
    {
        mc_assert(isPowerOf2(channels) && isPowerOf2(ranksPerChannel) &&
                      isPowerOf2(banksPerRank) && isPowerOf2(rowsPerBank) &&
                      isPowerOf2(rowBufferBytes) && isPowerOf2(blockBytes),
                  "DRAM geometry fields must be powers of two");
        mc_assert(isPowerOf2(bankGroupsPerRank) &&
                      bankGroupsPerRank <= banksPerRank,
                  "bank groups must be a power of two dividing the banks");
        mc_assert(rowBufferBytes >= blockBytes,
                  "row buffer smaller than a block");
        mc_assert(vaultsPerStack == 0 || isPowerOf2(vaultsPerStack),
                  "vault count must be zero (flat) or a power of two");
        mc_assert(std::uint64_t{ranksPerChannel} * banksPerRank <=
                      kMaxBanksPerChannel,
                  "a channel holds at most 64 banks (ranks x banks)");
    }
};

/** Coordinates of a block within the DRAM system. */
struct DramCoord
{
    std::uint32_t channel = 0;
    std::uint32_t rank = 0;
    std::uint32_t bank = 0;
    std::uint64_t row = 0;
    std::uint32_t column = 0; ///< Block-granularity column index.

    bool
    operator==(const DramCoord &o) const
    {
        return channel == o.channel && rank == o.rank && bank == o.bank &&
               row == o.row && column == o.column;
    }
};

} // namespace mcsim

#endif // CLOUDMC_DRAM_DRAM_PARAMS_HH
