// Bin-packing core microbenchmark — the perf trajectory tracker for the
// reshaping hot path.
//
// Times the naive O(n·b) reference first-fit against the tournament-tree
// first-fit at n in {10k, 100k, 1M}, and the fixed-bin-count packers
// (uniform_bins, pack_into_k) at k in {8, 64, 512} over 1M files, and
// emits BENCH_binpack.json with items/sec for each.  Every timed
// configuration is first checked for bit-identical bin assignments
// against its naive oracle, so a speedup can never come from a behaviour
// change.
//
// Modes:
//   micro_binpack           full sweep (the 1M naive baseline takes a
//                           minute or two by design — that is the point)
//   micro_binpack --smoke   n=10k only; exits nonzero if the tree-based
//                           first-fit is slower than the naive reference.
//                           Wired up as the `bench-smoke` CTest target.
//
// Observability flags (untimed — recording only turns on after the timed
// sweep, for one extra merge pass, so the numbers above stay clean):
//   --trace out.json        wall-clock span of one sequential merge_to_unit
//                           exported as Chrome trace-event JSON
//   --metrics out.json      binpack.* counter-histogram snapshot

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "corpus/corpus.hpp"
#include "corpus/distribution.hpp"
#include "harness.hpp"
#include "naive_pack.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "reshape/binpack.hpp"
#include "reshape/merge.hpp"

namespace {

using namespace reshape;
using bench::time_best_of;

constexpr Bytes kCapacity = 64_kB;

std::vector<corpus::VirtualFile> make_files(std::size_t n) {
  Rng rng(42);
  const corpus::FileSizeDistribution dist = corpus::text_400k_sizes();
  std::vector<corpus::VirtualFile> files;
  files.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    files.push_back(corpus::VirtualFile{i, dist.sample(rng), 1.0});
  }
  return files;
}

bool identical(const pack::Packing& a, const pack::Packing& b) {
  if (a.bins.size() != b.bins.size() || a.bin_of != b.bin_of) return false;
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    if (a.bins[i].capacity != b.bins[i].capacity ||
        a.bins[i].used != b.bins[i].used) {
      return false;
    }
  }
  return true;
}

struct Row {
  std::string algo;
  std::size_t n = 0;
  std::size_t k = 0;  // bin count of a fixed-k packer, 0 for first-fit
  double seconds = 0.0;
  double items_per_sec = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  obs::Session session;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (!session.take(argc, argv, i)) {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--trace out.json] "
                   "[--metrics out.json]\n",
                   argv[0]);
      return 2;
    }
  }
  const std::vector<std::size_t> ns =
      smoke ? std::vector<std::size_t>{10'000}
            : std::vector<std::size_t>{10'000, 100'000, 1'000'000};

  std::vector<Row> rows;
  double naive_ff_seconds_at_smoke_n = 0.0;
  double tree_ff_seconds_at_smoke_n = 0.0;
  double speedup_at_100k = 0.0;
  bool all_identical = true;

  auto record = [&rows](const std::string& algo, std::size_t n,
                        double seconds, std::size_t k = 0) {
    rows.push_back(Row{algo, n, k, seconds,
                       seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0});
    const std::string label =
        k > 0 ? algo + " k=" + std::to_string(k) : algo;
    std::printf("  %-24s n=%-9zu %10.4f s   %12.0f items/s\n", label.c_str(),
                n, seconds,
                seconds > 0.0 ? static_cast<double>(n) / seconds : 0.0);
  };

  for (const std::size_t n : ns) {
    std::printf("-- n = %zu (capacity %s)\n", n, kCapacity.str().c_str());
    const std::vector<corpus::VirtualFile> items = make_files(n);
    const int reps = n <= 100'000 ? 3 : 1;

    // Equivalence gate before timing anything.
    if (!identical(pack::first_fit_reference(items, kCapacity),
                   pack::first_fit(items, kCapacity))) {
      std::fprintf(stderr, "FATAL: optimized packer diverged from reference "
                           "at n=%zu\n", n);
      all_identical = false;
      continue;
    }

    const double t_ff_ref = time_best_of(reps, [&] {
      (void)pack::first_fit_reference(items, kCapacity);
    });
    const double t_ff_tree = time_best_of(reps, [&] {
      (void)pack::first_fit(items, kCapacity);
    });

    record("first_fit_reference", n, t_ff_ref);
    record("first_fit_tree", n, t_ff_tree);

    if (n == 10'000) {
      naive_ff_seconds_at_smoke_n = t_ff_ref;
      tree_ff_seconds_at_smoke_n = t_ff_tree;
    }
    if (n == 100'000) speedup_at_100k = t_ff_ref / t_ff_tree;
  }

  // The planner's packers at the fleet sizes it asks for.  pack_into_k
  // gets the balanced share of the volume, so bins fill first and the
  // last files spill.
  if (!smoke) {
    constexpr std::size_t kFixedN = 1'000'000;
    const std::vector<corpus::VirtualFile> items = make_files(kFixedN);
    Bytes total{0};
    for (const corpus::VirtualFile& item : items) total += item.size;
    for (const std::size_t k : {std::size_t{8}, std::size_t{64},
                                std::size_t{512}}) {
      std::printf("-- n = %zu, k = %zu\n", kFixedN, k);
      const Bytes share = total / k + 1_B;
      if (!identical(bench::naive_uniform_bins(items, k),
                     pack::uniform_bins(items, k)) ||
          !identical(bench::naive_pack_into_k(items, k, share),
                     pack::pack_into_k(items, k, share))) {
        std::fprintf(stderr, "FATAL: fixed-k packer diverged from the naive "
                             "scan at k=%zu\n", k);
        all_identical = false;
        continue;
      }
      record("uniform_bins", kFixedN, time_best_of(3, [&] {
               (void)pack::uniform_bins(items, k);
             }), k);
      record("pack_into_k", kFixedN, time_best_of(3, [&] {
               (void)pack::pack_into_k(items, k, share);
             }), k);
    }
  }

  FILE* out = std::fopen("BENCH_binpack.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"bench\": \"micro_binpack\",\n");
    std::fprintf(out, "  \"capacity_bytes\": %llu,\n",
                 static_cast<unsigned long long>(kCapacity.count()));
    std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(out, "  \"results\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::string k =
          rows[i].k > 0 ? ", \"k\": " + std::to_string(rows[i].k) : "";
      std::fprintf(out,
                   "    {\"algo\": \"%s\", \"n\": %zu%s, \"seconds\": %.6f, "
                   "\"items_per_sec\": %.1f}%s\n",
                   rows[i].algo.c_str(), rows[i].n, k.c_str(), rows[i].seconds,
                   rows[i].items_per_sec, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]");
    if (speedup_at_100k > 0.0) {
      std::fprintf(out, ",\n  \"first_fit_speedup_at_100k\": %.2f",
                   speedup_at_100k);
    }
    std::fprintf(out, "\n}\n");
    std::fclose(out);
    std::printf("wrote BENCH_binpack.json\n");
  }

  // Observability export: one extra (untimed) merge with recording +
  // wall-clock capture on.  Runs after every timed section so the
  // benchmark numbers above are never measured with recording active.
  const corpus::Corpus corpus(make_files(ns.back()));
  const int exported = session.record([&] {
    obs::trace().set_wall_capture(true);
    (void)pack::merge_to_unit(corpus, kCapacity);
    obs::trace().set_wall_capture(false);
  });
  if (exported != 0) return exported;

  if (!all_identical) return 2;
  if (smoke) {
    if (tree_ff_seconds_at_smoke_n > naive_ff_seconds_at_smoke_n) {
      std::fprintf(stderr,
                   "SMOKE FAIL: tree first-fit (%.4f s) slower than naive "
                   "(%.4f s) at n=10k\n",
                   tree_ff_seconds_at_smoke_n, naive_ff_seconds_at_smoke_n);
      return 1;
    }
    std::printf("smoke ok: tree %.4f s <= naive %.4f s\n",
                tree_ff_seconds_at_smoke_n, naive_ff_seconds_at_smoke_n);
  }
  return 0;
}
