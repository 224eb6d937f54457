/**
 * @file
 * The twelve paper workloads (Table 1) as calibrated synthetic
 * presets: six CloudSuite scale-out workloads, three transactional
 * workloads, and three TPC-H decision-support queries.
 *
 * Each preset's region mixture is calibrated so the baseline system
 * (FR-FCFS, open-adaptive, 1 channel) reproduces the workload's
 * published characteristics; examples/characterize.cpp prints the
 * measured values next to those targets.
 */

#ifndef CLOUDMC_WORKLOAD_PRESETS_HH
#define CLOUDMC_WORKLOAD_PRESETS_HH

#include <array>
#include <string>
#include <vector>

#include "synthetic.hh"

namespace mcsim {

/** Identifiers for the paper's workloads, in figure order. */
enum class WorkloadId : std::uint8_t {
    DS,      ///< Data Serving
    MR,      ///< MapReduce
    SS,      ///< SAT Solver
    WF,      ///< Web Frontend (8 cores)
    WS,      ///< Web Search
    MS,      ///< Media Streaming
    WSPEC99, ///< SPECweb99
    TPCC1,   ///< TPC-C vendor A
    TPCC2,   ///< TPC-C vendor B
    TPCHQ2,  ///< TPC-H Q2
    TPCHQ6,  ///< TPC-H Q6
    TPCHQ17, ///< TPC-H Q17
};

/** All workloads in the paper's figure order. */
constexpr std::array<WorkloadId, 12> kAllWorkloads = {
    WorkloadId::DS,      WorkloadId::MR,     WorkloadId::SS,
    WorkloadId::WF,      WorkloadId::WS,     WorkloadId::MS,
    WorkloadId::WSPEC99, WorkloadId::TPCC1,  WorkloadId::TPCC2,
    WorkloadId::TPCHQ2,  WorkloadId::TPCHQ6, WorkloadId::TPCHQ17};

/** Build the calibrated parameter set for one workload. */
WorkloadParams workloadPreset(WorkloadId id);

/** Acronym used in the paper's figures (DS, MR, ...). */
const char *workloadAcronym(WorkloadId id);

/** Parse a workload acronym; false on unknown names. */
bool tryWorkloadFromName(const std::string &name, WorkloadId &out);

/** Category of a workload. */
WorkloadCategory workloadCategory(WorkloadId id);

/** Workloads belonging to @p cat, in figure order. */
std::vector<WorkloadId> workloadsInCategory(WorkloadCategory cat);

} // namespace mcsim

#endif // CLOUDMC_WORKLOAD_PRESETS_HH
