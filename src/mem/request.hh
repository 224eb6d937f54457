/**
 * @file
 * The memory request type exchanged between the cache hierarchy and
 * the memory controller.
 */

#ifndef CLOUDMC_MEM_REQUEST_HH
#define CLOUDMC_MEM_REQUEST_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/dram_params.hh"

namespace mcsim {

/** How a serviced request found its target row. */
enum class RowOutcome : std::uint8_t {
    Unknown,  ///< Not yet serviced.
    Hit,      ///< Row already open; CAS only.
    Miss,     ///< Bank was precharged; ACT + CAS.
    Conflict, ///< Another row was open; PRE + ACT + CAS.
};

/** A block-granularity memory request at the controller. */
struct Request
{
    std::uint64_t id = 0;
    CoreId core = 0;
    bool isWrite = false;
    bool isIo = false; ///< Issued by a DMA/IO engine, not a core.
    /** Bank within the channel, coord.rank * banksPerRank + coord.bank
     *  (< kMaxBanksPerChannel); stamped by MemController::enqueue. The
     *  scheduling layer's one bank key. Sits in the padding before
     *  addr, so Request keeps its size. */
    std::uint16_t bankIndex = 0;

    Addr addr = 0;       ///< Block-aligned physical address.
    DramCoord coord;     ///< Decoded channel/rank/bank/row/column.

    Tick arrivedAt;   ///< Enqueue tick at the controller.
    Tick completedAt; ///< Read: last data beat; write: CAS issue.

    /** Earliest tick the backend will service this request (default 0:
     *  immediately). Stamped by MemBackend::route() when the target
     *  slot is mid-migration (stacked backend's remap cost model); the
     *  controller clamps every command's legal tick to it. */
    Tick availableAt;

    RowOutcome outcome = RowOutcome::Unknown;

    // --- scheduler scratch state ---
    bool marked = false;   ///< PAR-BS batch membership.
    bool preIssued = false; ///< A conflict PRE was issued for us.
    bool actIssued = false; ///< An ACT was issued for us.

    /** Enqueue order within the controller, stamped by
     *  MemController::enqueue. 32 bits fill the tail padding (Request
     *  stays 88 bytes), so compare two keys wrap-safely:
     *  int32_t(a.seq - b.seq) < 0 means a was enqueued first. */
    std::uint32_t seq = 0;
};

} // namespace mcsim

#endif // CLOUDMC_MEM_REQUEST_HH
