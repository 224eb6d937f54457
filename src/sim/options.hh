/**
 * @file
 * Command-line configuration for run_experiment: every spec key
 * doubles as a flag, so `--foo-bar V` means exactly the spec line
 * `foo_bar = V` (see kSpecKeys in spec.hh), plus a few CLI-only
 * flags, with generated usage/--list text.
 */

#ifndef CLOUDMC_SIM_OPTIONS_HH
#define CLOUDMC_SIM_OPTIONS_HH

#include <string>
#include <vector>

#include "spec.hh"

namespace mcsim {

/** Parsed command line for an experiment-style tool. */
struct ExperimentOptions
{
    bool csv = false;
    /** Leftover positional arguments, in order. */
    std::vector<std::string> positional;
    /** Set when --help was requested; the caller should print usage. */
    bool helpRequested = false;
    /** Set when --list was requested; print listText() and exit. */
    bool listRequested = false;
    /** Every flag and --config line, applied in order and finished:
     *  its base is the configuration of a one-point run, points()
     *  the sweep (workload DS when none is named). */
    ExperimentSpec spec;
    /** Set when a --config file was applied. */
    bool hasSpec = false;

    /**
     * Parse argv (excluding argv[0]). Returns an empty string on
     * success, or a one-line error naming the offending flag.
     *
     * `--foo-bar V` applies the spec line `foo_bar = V`. `--config
     * FILE` applies the file's lines at that position, so flags and
     * file lines apply in argv order and the last write of a key
     * wins; cross-key checks run once, after the last argument. A
     * bare workload acronym sets the workload; other non-flag
     * arguments land in `positional`. CLI-only flags:
     *   --help, -h   --list   --csv
     *   --fairness   bare form of `--fairness on`
     *   --config F   apply spec file F here
     *   --fast D     shorten the current warmup and measure windows
     *                by D (SimConfig::shortenWindows)
     */
    std::string parse(int argc, char **argv);

    /** Usage text listing every flag and legal value. */
    static std::string usage(const std::string &tool);

    /** The --list payload: every scheduler, page policy, mapping,
     *  DRAM device (with timings summary) and workload, one block
     *  each. Also appended to usage(). */
    static std::string listText();
};

} // namespace mcsim

#endif // CLOUDMC_SIM_OPTIONS_HH
