/**
 * @file
 * detlint — the simulator's determinism linter.
 *
 * Simulation results must be a pure function of (config, workload,
 * seed): bit-identical across runs, hosts, and standard-library
 * implementations. This tool scans the simulation core (src/) for the
 * constructs that historically break that contract and fails the build
 * when it finds one that is not explicitly justified:
 *
 *  - unordered-iter: std::unordered_map / std::unordered_set in the
 *    simulation core. Hash-bucket order is implementation-defined, so
 *    any iteration over such a container (today or in a later edit)
 *    leaks nondeterminism into scheduling decisions — exactly the
 *    FcfsBanks head-of-bank bug this tool was built after. Every
 *    declaration must carry an allow annotation proving the container
 *    is insert/lookup/erase-only or that iteration order cannot reach
 *    simulation state.
 *
 *  - wall-clock: std::chrono clocks, time(), clock_gettime(),
 *    gettimeofday() in the core. Wall time belongs to the harness
 *    (bench/, tools/, examples/), never to simulated behavior.
 *
 *  - raw-rand: rand()/srand(), std::random_device, the std::mt19937
 *    family. All simulation randomness must flow through the seeded
 *    Pcg32 so runs replay exactly.
 *
 *  - raw-thread: std::thread construction/storage outside
 *    common/worker_pool.*. All parallelism — running independent
 *    sweep points concurrently — draws from one budgeted WorkerPool;
 *    ad-hoc threads bypass the budget and the determinism argument.
 *    std::thread::hardware_concurrency() (a pure host query) stays
 *    legal. Suppressions need a detlint-allow(raw-thread) reason.
 *
 *  - raw-tick: a std::uint64_t variable whose name says it holds
 *    ticks. Time in the core is strongly typed (Tick/TickSpan and the
 *    per-domain cycle types in common/types.hh); a raw integer named
 *    *Ticks* bypasses the type system's domain checking.
 *
 * Suppression: append
 *     // detlint-allow(<rule>): <reason>
 * to the offending line or the line directly above it. The reason is
 * mandatory — an allow without one is itself a finding.
 *
 * Usage: detlint <dir-or-file>...
 * Exit status: 0 clean, 1 findings, 2 usage/IO error.
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding
{
    std::string file;
    std::size_t line;
    std::string rule;
    std::string message;
};

/** One lexed source line: code with comments/literals blanked, plus
 *  the comment text (where detlint-allow annotations live). */
struct Line
{
    std::string code;
    std::string comment;
};

/**
 * Split a file into per-line code and comment streams with a small
 * state machine (block comments, line comments, string and char
 * literals). Literal contents are blanked in the code stream so text
 * inside strings never trips a rule.
 */
std::vector<Line>
lexFile(std::istream &in)
{
    enum class St { Code, Slash, Line, Block, BlockStar, Str, Chr };
    std::vector<Line> lines;
    std::string raw;
    St st = St::Code;
    while (std::getline(in, raw)) {
        Line out;
        bool escape = false;
        // A line comment never spans lines; \-continuations of line
        // comments are vanishingly rare in this codebase.
        if (st == St::Line || st == St::Slash)
            st = St::Code;
        if (st == St::Str || st == St::Chr)
            st = St::Code; // Unterminated literal: resync.
        for (const char c : raw) {
            switch (st) {
              case St::Code:
                if (c == '/') {
                    st = St::Slash;
                } else if (c == '"') {
                    st = St::Str;
                    out.code += '"';
                } else if (c == '\'') {
                    st = St::Chr;
                    out.code += '\'';
                } else {
                    out.code += c;
                }
                break;
              case St::Slash:
                if (c == '/') {
                    st = St::Line;
                } else if (c == '*') {
                    st = St::Block;
                } else {
                    out.code += '/';
                    out.code += c;
                    st = St::Code;
                }
                break;
              case St::Line:
                out.comment += c;
                break;
              case St::Block:
                out.comment += c;
                if (c == '*')
                    st = St::BlockStar;
                break;
              case St::BlockStar:
                if (c == '/') {
                    st = St::Code;
                } else {
                    out.comment += c;
                    if (c != '*')
                        st = St::Block;
                }
                break;
              case St::Str:
                if (escape) {
                    escape = false;
                } else if (c == '\\') {
                    escape = true;
                } else if (c == '"') {
                    out.code += '"';
                    st = St::Code;
                }
                break;
              case St::Chr:
                if (escape) {
                    escape = false;
                } else if (c == '\\') {
                    escape = true;
                } else if (c == '\'') {
                    out.code += '\'';
                    st = St::Code;
                }
                break;
            }
        }
        if (st == St::Slash) {
            out.code += '/';
            st = St::Code;
        }
        lines.push_back(std::move(out));
    }
    return lines;
}

/** Does this line's comment carry detlint-allow(<rule>)? Returns
 *  0 = no, 1 = yes with a reason, -1 = yes but reasonless. */
int
allowState(const Line &ln, const std::string &rule)
{
    const std::string needle = "detlint-allow(" + rule + ")";
    const auto pos = ln.comment.find(needle);
    if (pos == std::string::npos)
        return 0;
    const std::string rest = ln.comment.substr(pos + needle.size());
    for (const char c : rest) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            return 1; // Something word-like follows: a reason.
    }
    return -1;
}

class Linter
{
  public:
    void
    lintFile(const fs::path &path)
    {
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "detlint: cannot read %s\n",
                         path.c_str());
            ioError = true;
            return;
        }
        const std::vector<Line> lines = lexFile(in);
        for (std::size_t i = 0; i < lines.size(); ++i) {
            const std::string &code = lines[i].code;
            checkRule(path, lines, i, "unordered-iter",
                      std::regex("\\bunordered_(map|set)\\s*<"), code,
                      "hash-ordered container in the simulation core; "
                      "iteration order is nondeterministic — prove it "
                      "is insert/lookup-only or use an ordered/indexed "
                      "container");
            checkRule(path, lines, i, "wall-clock",
                      std::regex("\\b(std\\s*::\\s*chrono\\b|"
                                 "steady_clock|system_clock|"
                                 "high_resolution_clock|gettimeofday\\s*"
                                 "\\(|clock_gettime\\s*\\(|"
                                 "\\btime\\s*\\(\\s*(nullptr|NULL|0)\\s*"
                                 "\\))"),
                      code,
                      "wall-clock time in the simulation core; timing "
                      "must come from the simulated clock domains");
            checkRule(path, lines, i, "raw-rand",
                      std::regex("\\b(std\\s*::\\s*rand\\b|srand\\s*\\(|"
                                 "\\brand\\s*\\(\\s*\\)|random_device|"
                                 "mt19937|default_random_engine)"),
                      code,
                      "unseeded / stdlib randomness; use the seeded "
                      "Pcg32 so runs replay bit-identically");
            checkRule(path, lines, i, "raw-tick",
                      std::regex("\\buint64_t\\s+[A-Za-z_]*"
                                 "[Tt]icks?[A-Za-z0-9_]*\\s*[=;{]"),
                      code,
                      "raw integer holding tick values; use "
                      "Tick/TickSpan so the clock-domain checks apply");
            // std::thread::hardware_concurrency() is a pure query and
            // stays legal: the lookahead rejects only construction-
            // capable uses (the bare type), not its static members.
            checkRule(path, lines, i, "raw-thread",
                      std::regex("\\bstd\\s*::\\s*thread\\b(?!\\s*::)"),
                      code,
                      "raw std::thread outside the shared worker pool; "
                      "route parallelism through WorkerPool so the "
                      "sweep thread budget stays enforceable");
        }
        // Ignore #include lines for unordered-iter: pulling the header
        // in is fine, declaring the container is what needs the proof.
    }

    void
    checkRule(const fs::path &path, const std::vector<Line> &lines,
              std::size_t i, const std::string &rule,
              const std::regex &re, const std::string &code,
              const std::string &msg)
    {
        if (!std::regex_search(code, re))
            return;
        if (rule == "unordered-iter" &&
            code.find("#include") != std::string::npos)
            return;
        // The worker pool is the one sanctioned thread owner: every
        // other site must either go through it or carry an allow
        // annotation with a reason.
        if (rule == "raw-thread" &&
            path.filename().string().rfind("worker_pool.", 0) == 0)
            return;
        const int here = allowState(lines[i], rule);
        const int above = i > 0 ? allowState(lines[i - 1], rule) : 0;
        if (here == 1 || above == 1)
            return;
        if (here == -1 || above == -1) {
            findings.push_back({path.string(), i + 1, rule,
                                "detlint-allow(" + rule +
                                    ") without a reason; justify the "
                                    "suppression"});
            return;
        }
        findings.push_back({path.string(), i + 1, rule, msg});
    }

    std::vector<Finding> findings;
    bool ioError = false;
};

bool
lintable(const fs::path &p)
{
    const auto ext = p.extension().string();
    return ext == ".hh" || ext == ".cc" || ext == ".hpp" ||
           ext == ".cpp" || ext == ".h";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: detlint <dir-or-file>...\n");
        return 2;
    }
    Linter linter;
    std::size_t filesScanned = 0;
    for (int i = 1; i < argc; ++i) {
        const fs::path root(argv[i]);
        std::error_code ec;
        if (fs::is_directory(root, ec)) {
            std::vector<fs::path> files;
            for (const auto &e :
                 fs::recursive_directory_iterator(root, ec)) {
                if (e.is_regular_file() && lintable(e.path()))
                    files.push_back(e.path());
            }
            // Directory iteration order is OS-defined; sort so the
            // report (and this tool's own output) is deterministic.
            std::sort(files.begin(), files.end());
            for (const auto &f : files) {
                linter.lintFile(f);
                ++filesScanned;
            }
        } else if (fs::is_regular_file(root, ec)) {
            linter.lintFile(root);
            ++filesScanned;
        } else {
            std::fprintf(stderr, "detlint: no such path: %s\n",
                         argv[i]);
            return 2;
        }
    }
    for (const auto &f : linter.findings) {
        std::printf("%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                    f.rule.c_str(), f.message.c_str());
    }
    std::printf("detlint: %zu file(s), %zu finding(s)\n", filesScanned,
                linter.findings.size());
    if (linter.ioError)
        return 2;
    return linter.findings.empty() ? 0 : 1;
}
