// Micro-benchmarks (google-benchmark) for the design choices DESIGN.md
// calls out:
//
//   * bin-packing cost per item: first-fit and the uniform balance, the
//     two packers the planner contrasts in Fig. 8 — quality is tested
//     elsewhere;
//   * regression fits (the planner refits models frequently);
//   * the literal scanner vs regex-lite (why grep's literal path is BMH);
//   * POS decoding: greedy-left3 vs full Viterbi (the left3words
//     trade-off);
//   * the event queue (the simulator's hot loop).

#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "corpus/distribution.hpp"
#include "corpus/textgen.hpp"
#include "model/regression.hpp"
#include "reshape/binpack.hpp"
#include "sim/simulation.hpp"
#include "textproc/pos.hpp"
#include "textproc/scanner.hpp"
#include "textproc/tokenizer.hpp"

namespace {

using namespace reshape;

std::vector<corpus::VirtualFile> pack_items(std::size_t n) {
  Rng rng(1);
  const corpus::FileSizeDistribution dist = corpus::text_400k_sizes();
  std::vector<corpus::VirtualFile> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back(corpus::VirtualFile{i, dist.sample(rng), 1.0});
  }
  return items;
}

void BM_FirstFit(benchmark::State& state) {
  const auto items = pack_items(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pack::first_fit(items, 1_MB));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FirstFit)->Arg(1000)->Arg(10000);

void BM_UniformBins(benchmark::State& state) {
  const auto items = pack_items(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pack::uniform_bins(items, 27));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_UniformBins)->Arg(10000);

void BM_FitAffine(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> xs, ys;
  for (int i = 0; i < 64; ++i) {
    const double x = rng.uniform(1e5, 1e9);
    xs.push_back(x);
    ys.push_back(0.3 + 8.6e-5 * x + rng.normal(0.0, 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::fit_affine(xs, ys));
  }
}
BENCHMARK(BM_FitAffine);

void BM_FitPower(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> xs, ys;
  for (int i = 0; i < 64; ++i) {
    const double x = rng.uniform(1e3, 1e9);
    xs.push_back(x);
    ys.push_back(2.0 * std::pow(x, 0.9));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::fit_power(xs, ys));
  }
}
BENCHMARK(BM_FitPower);

const std::string& scan_text() {
  static const std::string text = [] {
    corpus::TextGenerator gen({}, Rng(4));
    return gen.text_of_size(1_MB);
  }();
  return text;
}

void BM_ScannerLiteralBMH(benchmark::State& state) {
  const textproc::LiteralSearcher searcher("xyzzyplugh");
  for (auto _ : state) {
    benchmark::DoNotOptimize(searcher.count(scan_text()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(scan_text().size()));
}
BENCHMARK(BM_ScannerLiteralBMH);

void BM_ScannerRegexLite(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        textproc::grep_regex(scan_text(), "xyzzy[a-z]+"));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(scan_text().size()));
}
BENCHMARK(BM_ScannerRegexLite);

const textproc::PosTagger& trained_tagger() {
  static const textproc::PosTagger tagger = [] {
    corpus::TextGenerator gen({}, Rng(5));
    textproc::PosTagger t;
    t.train(gen.tagged_corpus(2000));
    return t;
  }();
  return tagger;
}

void BM_PosGreedy(benchmark::State& state) {
  corpus::TextGenerator gen({}, Rng(6));
  const std::string doc = gen.text_of_size(64_kB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trained_tagger().tag_document(
        doc, textproc::DecodeMode::kGreedyLeft3));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(doc.size()));
}
BENCHMARK(BM_PosGreedy);

void BM_PosViterbi(benchmark::State& state) {
  corpus::TextGenerator gen({}, Rng(6));
  const std::string doc = gen.text_of_size(64_kB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trained_tagger().tag_document(doc, textproc::DecodeMode::kViterbi));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(doc.size()));
}
BENCHMARK(BM_PosViterbi);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(Seconds(rng.uniform(0.0, 1e6)),
                      [](sim::Simulation&) {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

}  // namespace

BENCHMARK_MAIN();
