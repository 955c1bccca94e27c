// obs::Session, the `--trace PATH` / `--metrics PATH` export every binary
// shares.  In a -DRESHAPE_OBS=OFF build record() must refuse with 2 and
// write nothing, so the recording tests branch on compiled_in().

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace reshape::obs {
namespace {

/// Feeds `args` (argv[0] excluded) through Session::take; returns the
/// indices at which take() accepted a flag.
std::vector<int> take_all(Session& session, std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  std::vector<int> taken;
  for (int i = 1; i < static_cast<int>(argv.size()); ++i) {
    const int at = i;
    if (session.take(static_cast<int>(argv.size()), argv.data(), i)) {
      EXPECT_EQ(i, at + 1);  // the value was consumed with its flag
      taken.push_back(at);
    } else {
      EXPECT_EQ(i, at);
    }
  }
  return taken;
}

std::string slurp(const std::string& path) {
  std::ostringstream out;
  out << std::ifstream(path).rdbuf();
  return out.str();
}

TEST(SessionTest, TakeConsumesFlagAndValueOnly) {
  Session session;
  EXPECT_EQ(take_all(session, {"--smoke", "--trace", "t.json", "--metrics",
                               "m.json", "extra"}),
            (std::vector<int>{2, 4}));
  EXPECT_TRUE(session.tracing());
}

TEST(SessionTest, TakeRefusesTrailingFlagWithoutValue) {
  Session session;
  EXPECT_TRUE(take_all(session, {"--trace"}).empty());
  EXPECT_FALSE(session.tracing());
  EXPECT_TRUE(take_all(session, {"--metrics"}).empty());
  bool ran = false;
  EXPECT_EQ(session.record([&] { ran = true; }), 0);  // nothing requested
  EXPECT_FALSE(ran);
}

TEST(SessionTest, RecordWritesBothFilesAndLeavesRecordingOff) {
  const std::string trace_path = ::testing::TempDir() + "session_trace.json";
  const std::string metrics_path = ::testing::TempDir() + "session_m.json";
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
  Session session;
  take_all(session, {"--trace", trace_path, "--metrics", metrics_path});
  bool was_enabled = false;
  const int rc = session.record([&] {
    was_enabled = enabled();
    // Inserted out of time order: the file must still be canonical.
    trace().complete(kPidCloud, 2, "instance", "late", 5.0, 1.0);
    trace().complete(kPidCloud, 1, "instance", "early", 1.0, 1.0);
    metrics().counter("session.test").add(3);
  });
  EXPECT_FALSE(enabled());
  if (!compiled_in()) {
    EXPECT_EQ(rc, 2);
    EXPECT_FALSE(std::ifstream(trace_path).good());
    EXPECT_FALSE(std::ifstream(metrics_path).good());
    return;
  }
  EXPECT_EQ(rc, 0);
  EXPECT_TRUE(was_enabled);
  EXPECT_EQ(slurp(trace_path), trace().to_chrome_json(/*canonical=*/true));
  EXPECT_NE(slurp(trace_path), trace().to_chrome_json());
  EXPECT_EQ(slurp(metrics_path), metrics().to_json());
  EXPECT_NE(slurp(metrics_path).find("session.test"), std::string::npos);
  reset();
}

TEST(SessionTest, UnwritablePathReturnsOne) {
  Session session;
  take_all(session, {"--trace", ::testing::TempDir() + "no-such-dir/t.json"});
  EXPECT_EQ(session.write(), 1);
  EXPECT_EQ(session.record([] {}), compiled_in() ? 1 : 2);
  EXPECT_FALSE(enabled());
}

}  // namespace
}  // namespace reshape::obs
