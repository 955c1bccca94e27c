// MapReduce small-files penalty — the execution-substrate view of the
// paper's problem (reproduction-note requirement).
//
// The same wordcount over the same bytes, with one map task per file vs
// combined (reshaped) splits, on the real threaded framework — plus the
// simulator's projection of the gap at corpus scale where per-task
// scheduling overhead (a JVM-era constant per task) dominates.

#include "bench_util.hpp"
#include "corpus/textgen.hpp"
#include "mapreduce/job.hpp"
#include "mapreduce/jobs.hpp"
#include "mapreduce/sim_cluster.hpp"

using namespace reshape;

int main() {
  bench::banner("MapReduce small files",
                "whole-file vs combined splits, measured and projected");

  // Real run: 3000 documents of ~2 kB.
  Rng rng(311);
  corpus::TextGenerator gen({}, rng);
  std::vector<std::string> files;
  for (int i = 0; i < 3000; ++i) files.push_back(gen.text_of_size(2_kB));

  const mr::MapReduceJob job = mr::word_count_job();
  const mr::LocalRunner runner(4);
  // Wall-clock columns vary run to run, so they go to stderr; stdout stays
  // byte-reproducible (the paper-golden check diffs it).
  Table real({"split layout", "map tasks", "shuffle pairs"});
  Table walls({"split layout", "map wall", "total wall"});
  mr::JobStats per_file_stats, combined_stats;
  {
    const mr::JobResult r =
        runner.run(job, files, mr::whole_file_splits(files));
    per_file_stats = r.stats;
    real.add("one per file", r.stats.map_tasks, r.stats.intermediate_pairs);
    walls.add("one per file", r.stats.map_wall, r.stats.total_wall);
  }
  {
    const mr::JobResult r =
        runner.run(job, files, mr::combined_splits(files, 256_kB));
    combined_stats = r.stats;
    real.add("combined 256 kB", r.stats.map_tasks, r.stats.intermediate_pairs);
    walls.add("combined 256 kB", r.stats.map_wall, r.stats.total_wall);
  }
  std::printf("measured (in-process, %zu docs, %s):\n%s\n", files.size(),
              per_file_stats.input_bytes.str().c_str(), real.str().c_str());
  std::fprintf(stderr, "measured wall clock (varies run to run):\n%s\n",
               walls.str().c_str());

  // Projection on the simulated cluster: every map task pays a
  // scheduling + JVM constant (Hadoop-era: ~1.5 s), splits are
  // LPT-scheduled over 64 heterogeneous workers, and the shuffle volume
  // comes from the measured run.
  mr::SimClusterConfig config;
  config.workers = 64;
  const mr::SimCluster cluster(config, Rng(312));
  const Bytes corpus_volume = 1_GB;
  const auto synth_splits = [&](std::uint64_t count) {
    std::vector<mr::Split> splits(count);
    const Bytes each = corpus_volume / count;
    for (std::uint64_t i = 0; i < count; ++i) {
      splits[i].file_indices.push_back(i);
      splits[i].total = each;
    }
    return splits;
  };
  // Scale the measured shuffle volume to the projected corpus.
  const Bytes shuffle(combined_stats.shuffle_bytes.count() *
                      (corpus_volume.count() /
                       std::max<std::uint64_t>(
                           1, combined_stats.input_bytes.count())));

  Table projected({"split layout", "map tasks", "overhead fraction",
                   "map makespan", "total wall"});
  const mr::SimJobReport small_files =
      cluster.run(synth_splits(250'000), shuffle);
  const mr::SimJobReport combined_blocks =
      cluster.run(synth_splits(4), shuffle);
  projected.add("one per 4 kB file", small_files.map_tasks,
                fmt(100.0 * small_files.overhead_fraction, 1) + "%",
                small_files.map_makespan, small_files.total);
  projected.add("combined 256 MB", combined_blocks.map_tasks,
                fmt(100.0 * combined_blocks.overhead_fraction, 1) + "%",
                combined_blocks.map_makespan, combined_blocks.total);
  std::printf("projected on a %zu-worker simulated cluster (1 GB corpus):\n%s\n",
              config.workers, projected.str().c_str());
  std::printf("projected small-files slowdown at cluster scale: %.0fx —\n"
              "the reason the paper reshapes before provisioning.\n",
              small_files.total.value() / combined_blocks.total.value());
  return 0;
}
