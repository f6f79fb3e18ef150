// The command-line tools' count parsing: the parser itself, and the exit
// status of each tool when a count flag is malformed.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <string>

#include "cli_args.h"

namespace psse {
namespace {

TEST(CliArgs, ParseCountAcceptsWholeDecimals) {
  std::size_t n = 7;
  EXPECT_TRUE(cli::parse_count("0", n));
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(cli::parse_count("2", n));
  EXPECT_EQ(n, 2u);
  EXPECT_TRUE(cli::parse_count("016", n));
  EXPECT_EQ(n, 16u);
  EXPECT_TRUE(cli::parse_count("4096", n));
  EXPECT_EQ(n, cli::kMaxCount);
}

TEST(CliArgs, ParseCountRejectsMalformedCounts) {
  for (const char* bad : {"", "abc", "2x", "x2", " 2", "2 ", "-1", "+3", "1.5",
                          "1e3", "0x10", "4097", "18446744073709551615",
                          "18446744073709551616", "99999999999999999999999"}) {
    std::size_t n = 7;
    EXPECT_FALSE(cli::parse_count(bad, n)) << '"' << bad << '"';
    EXPECT_EQ(n, 7u) << '"' << bad << '"';
  }
}

// Runs a shell command with stdin from /dev/null and its output dropped,
// and returns its exit status (-1 if it did not exit normally).
int exit_status(const std::string& command) {
  const int status =
      std::system((command + " </dev/null >/dev/null 2>&1").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string quoted(const char* path) { return std::string("'") + path + "'"; }

TEST(CliArgs, ScenarioToolRejectsMalformedPortfolio) {
  const std::string verify = quoted(PSSE_SCENARIO_TOOL) + " verify " +
                             quoted(PSSE_DATA_DIR "/ieee14_objective2.scn");
  EXPECT_EQ(exit_status(verify + " --portfolio 1"), 0);
  EXPECT_EQ(exit_status(verify + " --portfolio abc"), 2);
  EXPECT_EQ(exit_status(verify + " --portfolio 2x"), 2);
}

TEST(CliArgs, BatchRunnerRejectsMalformedCounts) {
  const std::string run = quoted(PSSE_BATCH_RUNNER);
  const std::string dir = " " + quoted(PSSE_DATA_DIR);
  EXPECT_EQ(exit_status(run + " --threads 2x" + dir), 2);
  EXPECT_EQ(exit_status(run + " --portfolio abc" + dir), 2);
  EXPECT_EQ(exit_status(run + " --portfolio 0" + dir), 2);
}

TEST(CliArgs, AnalyticsServerRejectsMalformedCounts) {
  const std::string server = quoted(PSSE_ANALYTICS_SERVER);
  EXPECT_EQ(exit_status(server + " --threads 1"), 0);  // EOF at once
  EXPECT_EQ(exit_status(server + " --threads 2x"), 2);
  EXPECT_EQ(exit_status(server + " --max-sessions abc"), 2);
  EXPECT_EQ(exit_status(server + " --memo 1k"), 2);
}

}  // namespace
}  // namespace psse
