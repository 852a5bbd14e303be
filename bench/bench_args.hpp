#pragma once
/// \file bench_args.hpp
/// \brief Shared command-line handling for the paper-reproduction benches.
///
/// Every accuracy bench accepts:
///   --full            paper-scale sweep (6 sequences × 6 seeds)
///   --sequences N     number of standard flight plans (1..6)
///   --seeds N         noise seeds per sequence
///   --threads N       campaign threads: 1 replays one run at a time (the
///                     reference schedule), 0 = hardware concurrency;
///                     results are bit-identical for every value
///   --csv DIR         also write the series as CSV into DIR
///   --help            usage
///
/// Count values go through parse_count(), which bench_campaign_throughput's
/// parser shares.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <system_error>

namespace tofmcl::bench {

struct BenchArgs {
  std::size_t sequences = 6;
  std::size_t seeds = 2;
  std::size_t threads = 0;
  std::optional<std::string> csv_dir;
};

/// The value of count flag `flag` as a non-negative decimal integer. A
/// sign, a non-digit or an out-of-range value exits with code 2 instead of
/// wrapping into a huge count.
inline std::size_t parse_count(const char* flag, const char* text) {
  std::size_t count = 0;
  const char* end = text + std::strlen(text);
  const auto [last, error] = std::from_chars(text, end, count);
  if (error != std::errc() || last != end) {
    std::fprintf(stderr, "%s expects a non-negative integer, got '%s'\n",
                 flag, text);
    std::exit(2);
  }
  return count;
}

inline void print_usage(const char* name, const char* description) {
  std::printf("%s — %s\n", name, description);
  std::printf(
      "options:\n"
      "  --full          paper-scale sweep (6 sequences x 6 seeds)\n"
      "  --sequences N   standard flight plans to use (1..6, default 6)\n"
      "  --seeds N       noise seeds per sequence (default 2)\n"
      "  --threads N     campaign threads, 1 = one run at a time\n"
      "                  (default: hardware)\n"
      "  --csv DIR       write result series as CSV into DIR\n"
      "  --help          this message\n");
}

inline BenchArgs parse_args(int argc, char** argv, const char* description) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const auto is = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0;
    };
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto count = [&] {
      const char* flag = argv[i];
      return parse_count(flag, value());
    };
    if (is("--help") || is("-h")) {
      print_usage(argv[0], description);
      std::exit(0);
    } else if (is("--full")) {
      args.sequences = 6;
      args.seeds = 6;
    } else if (is("--sequences")) {
      args.sequences = count();
    } else if (is("--seeds")) {
      args.seeds = count();
    } else if (is("--threads")) {
      args.threads = count();
    } else if (is("--csv")) {
      args.csv_dir = value();
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      print_usage(argv[0], description);
      std::exit(2);
    }
  }
  return args;
}

}  // namespace tofmcl::bench
