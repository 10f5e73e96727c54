// core::Flags, the one command-line parser of the front ends: flag
// placement, the ways a command line or a number is rejected, the shared
// flag tables (--listen forms, protocol limits, cost backend), and the
// usage text rendered from a table.

#include "core/flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "cost/backend.hpp"
#include "search/result_store.hpp"
#include "serve/front_end.hpp"

namespace naas {
namespace {

/// Parses `args` as argv[1..] against `flags`; returns the rejection.
std::string parse(const core::Flags& flags,
                  const std::vector<std::string>& args,
                  std::vector<std::string>* positionals = nullptr) {
  std::vector<const char*> argv = {"prog"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return flags.parse(static_cast<int>(argv.size()), argv.data(), positionals);
}

struct Table {
  std::string path;
  bool readonly = false;
  int count = 7;
  core::Flags flags{"usage: prog <cmd> [args]\n",
                    {core::text_flag("--path", "<file>", &path, "a file"),
                     {"--ro", "", "read only",
                      [this](const std::string&) {
                        readonly = true;
                        return std::string();
                      }},
                     core::int_flag("--count", &count, "a count", 2, 10)},
                    "notes\n"};
};

TEST(Flags, FlagsMaySitBetweenPositionals) {
  Table t;
  std::vector<std::string> positionals;
  ASSERT_EQ(parse(t.flags,
                  {"search", "--path", "s.bin", "cifarnet", "--ro", "eyeriss",
                   "--count", "3", "1"},
                  &positionals),
            "");
  EXPECT_EQ(positionals,
            (std::vector<std::string>{"search", "cifarnet", "eyeriss", "1"}));
  EXPECT_EQ(t.path, "s.bin");
  EXPECT_TRUE(t.readonly);
  EXPECT_EQ(t.count, 3);
}

TEST(Flags, RejectsMissingValuesUnknownFlagsAndStrayPositionals) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> bad = {
      {{"search", "--count"}, "--count needs a value <n>"},
      {{"--bogus"}, "unknown flag: --bogus"},
      {{"--count=3"}, "unknown flag: --count=3"},  // no '=' form
      {{"-"}, "unknown flag: -"},
      {{"-1"}, "unknown flag: -1"},  // a signed positional is no number
      {{"--ro", "--count", "11"},
       "bad --count: need an integer in [2, 10], got '11'"}};
  for (const auto& [args, why] : bad) {
    Table t;
    std::vector<std::string> positionals;
    EXPECT_EQ(parse(t.flags, args, &positionals), why);
    EXPECT_EQ(t.count, 7) << "a rejected value must not be stored";
  }
  // A program that takes no positionals names the first one it meets.
  Table t;
  EXPECT_EQ(parse(t.flags, {"--ro", "stray"}), "unexpected argument: stray");
}

TEST(Flags, ParseUintTakesOnlyWholeBase10NumbersInRange) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t v = 0;
  EXPECT_TRUE(core::parse_uint("0", 0, kMax, &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(core::parse_uint("007", 0, kMax, &v));
  EXPECT_EQ(v, 7u);
  EXPECT_TRUE(core::parse_uint("18446744073709551615", 0, kMax, &v));
  EXPECT_EQ(v, kMax);
  EXPECT_TRUE(core::parse_uint("1024", 0, 1024, &v));
  EXPECT_EQ(v, 1024u);

  v = 99;
  for (const char* text : {"",                       // empty
                           "+1", "-1", "-0",         // a sign
                           " 1", "1 ", "1x", "0x10", "1e3", "1.0",  // text
                           "18446744073709551616"})  // overflow
    EXPECT_FALSE(core::parse_uint(text, 0, kMax, &v)) << '"' << text << '"';
  EXPECT_FALSE(core::parse_uint("1", 2, kMax, &v));      // below the minimum
  EXPECT_FALSE(core::parse_uint("1025", 0, 1024, &v));   // above the maximum
  EXPECT_EQ(v, 99u) << "a rejected value must not be stored";
}

TEST(Flags, IntFlagsKeepTheirTypesRange) {
  int threads = 0;
  long long deadline = 0;
  std::uint64_t seed = 1;
  const core::Flags flags(
      "", {core::int_flag("--threads", &threads, "", 0,
                          core::ThreadPool::kMaxThreads),
           core::int_flag("--deadline-ms", &deadline, ""),
           core::int_flag("--seed", &seed, "")});
  EXPECT_EQ(parse(flags, {"--threads", "1024", "--deadline-ms",
                          "9223372036854775807", "--seed",
                          "18446744073709551615"}),
            "");
  EXPECT_EQ(threads, 1024);
  EXPECT_EQ(deadline, std::numeric_limits<long long>::max());
  EXPECT_EQ(seed, std::numeric_limits<std::uint64_t>::max());
  // Counts from outside the program are parsed here only: no pool is built.
  EXPECT_EQ(parse(flags, {"--threads", "1025"}),
            "bad --threads: need an integer in [0, 1024], got '1025'");
  EXPECT_NE(parse(flags, {"--threads", "-4"}), "");
  EXPECT_EQ(parse(flags, {"--deadline-ms", "9223372036854775808"}),
            "bad --deadline-ms: need an integer in [0, 9223372036854775807], "
            "got '9223372036854775808'");
  EXPECT_NE(parse(flags, {"--seed", "abc"}), "");
}

TEST(Flags, ParseDoubleTakesWholeDecimalsInRange) {
  double v = 0;
  EXPECT_TRUE(core::parse_double("78.6", 0, 100, &v));
  EXPECT_EQ(v, 78.6);
  EXPECT_TRUE(core::parse_double("100", 0, 100, &v));
  EXPECT_TRUE(core::parse_double("1e1", 0, 100, &v));
  EXPECT_EQ(v, 10.0);
  v = 5;
  for (const char* text :
       {"", "100.5", "-1", "+5", "nan", "inf", "5%", " 5", "5 ", "1e999"})
    EXPECT_FALSE(core::parse_double(text, 0, 100, &v)) << '"' << text << '"';
  EXPECT_EQ(v, 5.0);
}

TEST(Flags, ListenFormsSetHostPortAndMode) {
  struct Case {
    std::string spec, host;
    int port;
  };
  for (const Case& c : {Case{"9000", "127.0.0.1", 9000},
                        Case{"10.0.0.1:0", "10.0.0.1", 0},
                        Case{"localhost:65535", "localhost", 65535},
                        Case{"::1:8080", "::1", 8080}}) {
    bool listen = false;
    serve::ServerOptions options;
    core::Flags flags;
    serve::add_front_end_flags(&flags.flags, &listen, &options);
    ASSERT_EQ(parse(flags, {"--listen", c.spec}), "");
    EXPECT_TRUE(listen);
    EXPECT_EQ(options.host, c.host);
    EXPECT_EQ(options.port, c.port);
  }
  for (const char* spec : {"127.0.0.1:70000", "abc", "127.0.0.1:-5",
                           "127.0.0.1:", "", "host:80x", "65536"}) {
    bool listen = false;
    serve::ServerOptions options;
    core::Flags flags;
    serve::add_front_end_flags(&flags.flags, &listen, &options);
    EXPECT_EQ(parse(flags, {"--listen", spec}).rfind("bad --listen", 0), 0u)
        << spec;
    EXPECT_FALSE(listen) << spec;
  }
}

TEST(Flags, ProtocolLimitsKeepZeroAndRejectNegatives) {
  bool listen = false;
  serve::ServerOptions options;
  core::Flags flags;
  serve::add_front_end_flags(&flags.flags, &listen, &options);
  // --max-queue 0 sheds every request (the soak script relies on it).
  ASSERT_EQ(parse(flags, {"--max-queue", "0", "--max-line-bytes", "0",
                          "--max-batch", "0", "--max-connections", "0",
                          "--deadline-ms", "0", "--idle-timeout-ms", "0"}),
            "");
  EXPECT_EQ(options.max_queue_requests, 0u);
  EXPECT_EQ(options.max_line_bytes, 0u);
  EXPECT_EQ(options.max_batch_requests, 0u);
  EXPECT_EQ(options.max_connections, 0);
  for (const char* flag :
       {"--max-queue", "--max-line-bytes", "--max-batch", "--max-connections",
        "--deadline-ms", "--idle-timeout-ms"})
    EXPECT_NE(parse(flags, {flag, "-1"}), "") << flag;
  EXPECT_EQ(parse(flags, {"--faults", "sock_read_short=2"})
                .rfind("bad --faults spec", 0),
            0u);
}

TEST(Flags, CostBackendFlagRejectsUnknownNames) {
  std::optional<cost::BackendKind> kind;
  const core::Flags flags("", {cost::cost_backend_flag(&kind)});
  EXPECT_EQ(parse(flags, {"--cost-backend", "neon"}),
            "unknown cost backend 'neon' (scalar|avx2|auto)");
  ASSERT_EQ(parse(flags, {"--cost-backend", "scalar"}), "");
  EXPECT_EQ(kind, cost::BackendKind::kScalar);
  EXPECT_TRUE(cost::backend_usable(kind));
  EXPECT_TRUE(cost::backend_usable(std::nullopt));
  EXPECT_EQ(cost::backend_usable(cost::BackendKind::kAvx2),
            cost::backend_available(cost::BackendKind::kAvx2));
}

TEST(Flags, UsageListsEveryTableEntry) {
  std::string path;
  bool readonly = false;
  std::optional<cost::BackendKind> kind;
  bool listen = false;
  serve::ServerOptions options;
  std::vector<core::Flag> table = {search::cache_path_flag(&path),
                                   search::cache_readonly_flag(&readonly),
                                   cost::cost_backend_flag(&kind)};
  serve::add_front_end_flags(&table, &listen, &options);
  const std::vector<core::Flag> entries = table;
  const core::Flags flags("usage: prog [flags]\n", std::move(table),
                          "see the docs\n");
  const std::string usage = flags.usage();
  EXPECT_EQ(usage.rfind("usage: prog [flags]\nflags:\n", 0), 0u) << usage;
  EXPECT_EQ(usage.substr(usage.size() - 13), "see the docs\n");
  std::size_t at = 0;
  for (const core::Flag& f : entries) {
    const std::string head =
        "  " + f.name + (f.placeholder.empty() ? "" : " " + f.placeholder);
    const std::size_t found = usage.find(head, at);
    ASSERT_NE(found, std::string::npos) << head;
    EXPECT_NE(usage.find(f.help, found), std::string::npos) << f.help;
    at = found + head.size();  // entries appear in table order
  }
  EXPECT_EQ(entries.size(), 11u);
}

}  // namespace
}  // namespace naas
