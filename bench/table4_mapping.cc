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

    constexpr std::array<std::uint32_t, 2> kChannelCounts = {2, 4};

    // Simulate the full (channels, scheme, workload) matrix in one
    // parallel batch: one series per (channels, scheme), channel-major.
    std::vector<bench::LabeledConfig> configs;
    for (std::uint32_t channels : kChannelCounts) {
        for (auto scheme : kAllMappingSchemes) {
            SimConfig cfg = SimConfig::baseline();
            cfg.dram.channels = channels;
            cfg.mapping = scheme;
            configs.push_back({mappingSchemeName(scheme), cfg});
        }
    }
    ExperimentRunner runner;
    const auto series = bench::runConfigStudy(runner, configs);

    // Full IPC matrix per channel count.
    for (std::size_t c = 0; c < kChannelCounts.size(); ++c) {
        const std::uint32_t channels = kChannelCounts[c];
        const bench::Series *schemes =
            &series[c * kAllMappingSchemes.size()];
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
            for (std::size_t k = 0; k < kAllMappingSchemes.size(); ++k) {
                const MetricSet &m = schemes[k].results.at(wl);
                row.push_back(TextTable::num(m.userIpc, 3));
                if (m.userIpc > bestIpc) {
                    bestIpc = m.userIpc;
                    best = kAllMappingSchemes[k];
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
