/**
 * @file
 * Self-tests for tools/mopac_lint: run the real binary against the
 * fixtures in tests/tools/fixtures and assert the exact finding codes
 * and line numbers.  Each check has one deliberately-bad fixture (the
 * findings below) and one clean counterpart; the suppression syntax
 * gets its own fixture.
 *
 * The binary path and repo root arrive via compile definitions
 * (MOPAC_LINT_BIN, MOPAC_LINT_ROOT) so the test works from any build
 * directory.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

namespace
{

struct LintFinding
{
    std::string path;
    int line = 0;
    std::string check;
};

struct LintResult
{
    int exit_code = -1;
    std::string output;
    std::vector<LintFinding> findings;
};

/** Run mopac_lint on fixture-relative paths; parse stdout findings. */
LintResult
runLint(const std::vector<std::string> &fixtures,
        const std::string &extra_flags = "")
{
    std::string cmd = std::string(MOPAC_LINT_BIN) + " --root " +
                      MOPAC_LINT_ROOT + " " + extra_flags;
    for (const std::string &f : fixtures) {
        cmd += " tests/tools/fixtures/" + f;
    }
    cmd += " 2>/dev/null";

    LintResult res;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
        ADD_FAILURE() << "popen failed for: " << cmd;
        return res;
    }
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
        res.output += buf;
    }
    const int status = pclose(pipe);
    res.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;

    // Findings look like "path:line: check: message".
    std::size_t pos = 0;
    while (pos < res.output.size()) {
        std::size_t eol = res.output.find('\n', pos);
        if (eol == std::string::npos) {
            eol = res.output.size();
        }
        const std::string line = res.output.substr(pos, eol - pos);
        pos = eol + 1;
        const std::size_t c1 = line.find(':');
        if (c1 == std::string::npos) {
            continue;
        }
        const std::size_t c2 = line.find(':', c1 + 1);
        const std::size_t c3 = line.find(':', c2 + 1);
        if (c2 == std::string::npos || c3 == std::string::npos) {
            continue;
        }
        LintFinding f;
        f.path = line.substr(0, c1);
        f.line = std::atoi(line.substr(c1 + 1, c2 - c1 - 1).c_str());
        f.check = line.substr(c2 + 2, c3 - c2 - 2);
        res.findings.push_back(std::move(f));
    }
    return res;
}

/** Assert a run produced exactly the given (line, check) findings. */
void
expectFindings(const LintResult &res,
               const std::vector<std::pair<int, std::string>> &want)
{
    EXPECT_EQ(res.exit_code, 1) << res.output;
    ASSERT_EQ(res.findings.size(), want.size()) << res.output;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(res.findings[i].line, want[i].first) << res.output;
        EXPECT_EQ(res.findings[i].check, want[i].second) << res.output;
    }
}

TEST(MopacLint, DetRandBadFixture)
{
    expectFindings(runLint({"bad_det_rand.cc"}), {{7, "det-rand"}});
}

TEST(MopacLint, DetTimeBadFixture)
{
    expectFindings(runLint({"bad_det_time.cc"}), {{7, "det-time"}});
}

TEST(MopacLint, DetClockBadFixture)
{
    expectFindings(runLint({"bad_det_clock.cc"}), {{7, "det-clock"}});
}

TEST(MopacLint, DetRngBadFixture)
{
    expectFindings(runLint({"bad_det_rng.cc"}),
                   {{8, "det-rng"}, {9, "det-rng"}});
}

TEST(MopacLint, DetPtrKeyBadFixture)
{
    expectFindings(runLint({"bad_det_ptr_key.cc"}),
                   {{9, "det-ptr-key"}});
}

TEST(MopacLint, DetUnorderedBadFixture)
{
    expectFindings(runLint({"bad_det_unordered.cc"}),
                   {{15, "det-unordered"}});
}

TEST(MopacLint, SerialDriftBadFixture)
{
    const LintResult res = runLint({"bad_serial_drift.hh"});
    expectFindings(res, {{31, "serial-drift"}, {32, "serial-drift"}});
    // One transfer body describes the snapshot, so the finding names
    // that body.
    EXPECT_NE(res.output.find("never mentioned in its transfer body"),
              std::string::npos)
        << res.output;
}

TEST(MopacLint, SerialDriftSeparateHalvesFixture)
{
    // A class that writes saveState and loadState as two bodies keeps
    // its field order in two places; the class itself is reported.
    const LintResult res = runLint({"bad_serial_halves.hh"});
    expectFindings(res, {{12, "serial-drift"}});
    EXPECT_NE(res.output.find("separate saveState and loadState"),
              std::string::npos)
        << res.output;
}

TEST(MopacLint, RngSeedBadFixture)
{
    expectFindings(runLint({"bad_rng_seed.cc"}),
                   {{15, "rng-seed"}, {16, "rng-seed"}});
}

TEST(MopacLint, NextEventBadFixture)
{
    const LintResult res = runLint({"bad_next_event.hh"});
    expectFindings(res, {{14, "next-event"}});
    EXPECT_NE(res.output.find("cannot skip idle cycles"),
              std::string::npos)
        << res.output;
}

TEST(MopacLint, IoErrnoBadFixture)
{
    const LintResult res = runLint({"bad_io_errno.cc"});
    expectFindings(res, {{11, "io-errno"},
                         {17, "io-errno"},
                         {18, "io-errno"}});
    EXPECT_NE(res.output.find("raw errno read"), std::string::npos)
        << res.output;
    EXPECT_NE(res.output.find("unchecked 'write'"), std::string::npos)
        << res.output;
}

TEST(MopacLint, GuardBadFixture)
{
    const LintResult res = runLint({"bad_guard.hh"});
    expectFindings(res, {{3, "guard"}});
    EXPECT_NE(
        res.output.find("MOPAC_TESTS_TOOLS_FIXTURES_BAD_GUARD_HH"),
        std::string::npos)
        << res.output;
}

TEST(MopacLint, HotAllocBadFixture)
{
    // Growing-container methods, operator new, and a container local
    // inside annotated functions; the un-annotated sibling making the
    // same calls stays silent.
    const LintResult res = runLint({"bad_hot_path.cc"});
    expectFindings(res, {{16, "hot-alloc"},
                         {17, "hot-alloc"},
                         {18, "hot-alloc"},
                         {28, "hot-alloc"},
                         {29, "hot-alloc"}});
    EXPECT_NE(res.output.find("must not allocate"), std::string::npos)
        << res.output;
    EXPECT_NE(res.output.find("'tick'"), std::string::npos)
        << res.output;
    EXPECT_NE(res.output.find("'drain'"), std::string::npos)
        << res.output;
}

TEST(MopacLint, HotReachBadFixture)
{
    // The hot function is allocation-free; the push_back sits two
    // calls away in the included helper.  Only the whole-program
    // closure ties them together -- and the diagnostic names the
    // full call chain.
    const LintResult res =
        runLint({"bad_hot_reach.cc", "bad_reach_alloc.hh"});
    expectFindings(res, {{12, "hot-reach"}});
    EXPECT_NE(res.output.find("step -> reachStage -> reachGrow"),
              std::string::npos)
        << res.output;
    EXPECT_NE(res.output.find("reachable from a hot path"),
              std::string::npos)
        << res.output;
}

TEST(MopacLint, SerialReachBadFixture)
{
    // Two distinct audits: a snapshotting member merely *mentioned*
    // (satisfying serial-drift) but never delegated to, and a class
    // reachable from System's member-type graph that neither
    // snapshots nor declares itself stateless.
    const LintResult res = runLint({"bad_serial_reach.hh"});
    expectFindings(res, {{35, "serial-reach"}, {64, "serial-reach"}});
    EXPECT_NE(res.output.find("never delegated to"),
              std::string::npos)
        << res.output;
    EXPECT_NE(res.output.find("System -> ReachLeaf"),
              std::string::npos)
        << res.output;
}

TEST(MopacLint, ConfigKeyBadFixture)
{
    // "seed" is documented in the repo-root CONFIG_KEYS.md; the other
    // key is not.
    const LintResult res = runLint({"bad_config_key.cc"});
    expectFindings(res, {{13, "config-key"}});
    EXPECT_NE(res.output.find("totally.bogus"), std::string::npos)
        << res.output;
    EXPECT_NE(res.output.find("not documented in CONFIG_KEYS.md"),
              std::string::npos)
        << res.output;
}

TEST(MopacLint, GoodFixturesAreClean)
{
    const LintResult res = runLint({
        "good_det_rand.cc",
        "good_det_time.cc",
        "good_det_clock.cc",
        "good_det_rng.cc",
        "good_det_ptr_key.cc",
        "good_det_unordered.cc",
        "good_serial_drift.hh",
        "good_rng_seed.cc",
        "good_next_event.hh",
        "good_guard.hh",
        "good_io_errno.cc",
        "good_hot_path.hh",
        "good_hot_reach.cc",
        "good_reach_alloc.hh",
        "good_serial_reach.hh",
        "good_config_key.cc",
    });
    EXPECT_EQ(res.exit_code, 0) << res.output;
    EXPECT_TRUE(res.findings.empty()) << res.output;
}

TEST(MopacLint, AllowCommentSuppressesFindings)
{
    // Same-line and line-above allow() forms both suppress det-rand.
    const LintResult res = runLint({"allow_suppressed.cc"});
    EXPECT_EQ(res.exit_code, 0) << res.output;
    EXPECT_TRUE(res.findings.empty()) << res.output;
}

/** Every bad fixture, for the combined and parallel-order tests. */
const std::vector<std::string> &
allBadFixtures()
{
    static const std::vector<std::string> kAll = {
        "bad_det_rand.cc",
        "bad_det_time.cc",
        "bad_det_clock.cc",
        "bad_det_rng.cc",
        "bad_det_ptr_key.cc",
        "bad_det_unordered.cc",
        "bad_serial_drift.hh",
        "bad_serial_halves.hh",
        "bad_rng_seed.cc",
        "bad_next_event.hh",
        "bad_guard.hh",
        "bad_io_errno.cc",
        "bad_hot_path.cc",
        "bad_hot_reach.cc",
        "bad_reach_alloc.hh",
        "bad_serial_reach.hh",
        "bad_config_key.cc",
    };
    return kAll;
}

TEST(MopacLint, AllBadFixturesTogether)
{
    // One combined run: every check fires at least once and the exit
    // code stays 1 (findings), not 2 (usage/IO error).
    const LintResult res = runLint(allBadFixtures());
    EXPECT_EQ(res.exit_code, 1) << res.output;
    EXPECT_EQ(res.findings.size(), 26u) << res.output;
    for (const char *check :
         {"det-rand", "det-time", "det-clock", "det-rng",
          "det-ptr-key", "det-unordered", "serial-drift", "rng-seed",
          "next-event", "guard", "io-errno", "hot-alloc",
          "hot-reach", "serial-reach", "config-key"}) {
        bool seen = false;
        for (const LintFinding &f : res.findings) {
            seen = seen || f.check == check;
        }
        EXPECT_TRUE(seen) << "check never fired: " << check;
    }
}

TEST(MopacLint, ParallelJobsKeepFindingOrder)
{
    // Findings are sorted after the parallel phases, so the report is
    // byte-identical at any --jobs count.
    const LintResult serial = runLint(allBadFixtures(), "--jobs 1");
    const LintResult threaded = runLint(allBadFixtures(), "--jobs 4");
    EXPECT_EQ(serial.exit_code, 1) << serial.output;
    EXPECT_EQ(threaded.exit_code, 1) << threaded.output;
    EXPECT_EQ(serial.output, threaded.output);
}

TEST(MopacLint, ListChecksEnumeratesEveryCheck)
{
    const LintResult res = runLint({}, "--list-checks");
    EXPECT_EQ(res.exit_code, 0) << res.output;
    for (const char *check :
         {"det-rand", "det-time", "det-clock", "det-rng",
          "det-ptr-key", "det-unordered", "serial-drift", "rng-seed",
          "next-event", "guard", "io-errno", "hot-alloc",
          "hot-reach", "serial-reach", "config-key"}) {
        EXPECT_NE(res.output.find(check), std::string::npos)
            << "missing from --list-checks: " << check;
    }
}

TEST(MopacLint, MissingPathIsUsageError)
{
    const LintResult res = runLint({"no_such_fixture.cc"});
    EXPECT_EQ(res.exit_code, 2) << res.output;
}

} // namespace
