/**
 * @file
 * Table 4: the best-performing multi-channel address mapping scheme
 * for each workload at 2 and 4 channels, plus the full IPC matrix
 * across all schemes so the margins are visible.
 */

#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mcsim;
    const bool csv = bench::sweepFlags(argc, argv);

    ExperimentRunner runner;

    // Simulate the full (channels, scheme, workload) matrix in one
    // parallel batch; the table loops below hit the memo cache.
    {
        std::vector<SimConfig> sweep;
        for (std::uint32_t channels : {2u, 4u}) {
            for (auto scheme : kAllMappingSchemes) {
                SimConfig cfg = SimConfig::baseline();
                cfg.dram.channels = channels;
                cfg.mapping = scheme;
                sweep.push_back(cfg);
            }
        }
        bench::prefetchSweep(runner, sweep);
    }

    // Full IPC matrix per channel count.
    for (std::uint32_t channels : {2u, 4u}) {
        TextTable table;
        std::vector<std::string> header{"workload"};
        for (auto scheme : kAllMappingSchemes)
            header.emplace_back(mappingSchemeName(scheme));
        header.emplace_back("best");
        table.setHeader(header);
        for (auto wl : kAllWorkloads) {
            std::vector<std::string> row{workloadAcronym(wl)};
            double bestIpc = -1.0;
            MappingScheme best = MappingScheme::RoRaBaCoCh;
            for (auto scheme : kAllMappingSchemes) {
                SimConfig cfg = SimConfig::baseline();
                cfg.dram.channels = channels;
                cfg.mapping = scheme;
                const MetricSet m = runner.run(wl, cfg);
                row.push_back(TextTable::num(m.userIpc, 3));
                if (m.userIpc > bestIpc) {
                    bestIpc = m.userIpc;
                    best = scheme;
                }
            }
            row.emplace_back(mappingSchemeName(best));
            table.addRow(std::move(row));
        }
        if (!csv) {
            std::printf("Table 4 (%u-channel): user IPC per address "
                        "mapping scheme\n",
                        channels);
        }
        std::printf("%s\n", csv ? table.renderCsv().c_str()
                                : table.render().c_str());
    }
    return 0;
}
