// text family: the text kernels and word count over real bytes.
//
// Set-up generates a base text (corpus::TextGenerator, sentence per line)
// and tiles it into distinct small files at random offsets, reshapes them
// into 10 MB blocks (pack::merge_to_unit) and concatenates the bytes
// (pack::materialize).  Steps rotate over three kinds of sample: one
// block through one scan (a literal grep for a vocabulary word that hits,
// one for a word that never does, or a regex grep, in turn),
// PosTagger::tag_document over one 256 kB
// chunk of a fixed subset (plus TokenArena tokenization in traced steps),
// and one mr::LocalRunner word-count job over another subset.  Each
// throughput is taken from the median of its samples.  At full scale the blocks
// total 448 MiB, at least four times the 105 MiB last-level cache of the
// reference machine, so the literal scans stream from memory.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "corpus/corpus.hpp"
#include "corpus/textgen.hpp"
#include "mapreduce/job.hpp"
#include "mapreduce/jobs.hpp"
#include "reshape/merge.hpp"
#include "textproc/pos.hpp"
#include "textproc/scanner.hpp"
#include "textproc/tokenizer.hpp"

namespace perfbench {
namespace {

using namespace reshape;

struct Scale {
  Bytes blocks_total;
  Bytes base;
  Bytes pos_subset;
  Bytes wc_subset;
  Bytes check_slice;
};

constexpr Scale kFull{Bytes(448ULL << 20), 8_MB, 4_MB, 4_MB, 1_MB};
constexpr Scale kProbe{Bytes(32ULL << 20), 2_MB, 1_MB, 2_MB, 256_kB};

constexpr std::uint64_t kVocabularySeed = 7;
const std::string kMissWord = "xyzzyplugh";
const std::string kRegex = "[a-z]+tion";

// Pinned results on the canary text (Rng(42), 1 MB, sentence per line):
// they change only if a kernel or the text generator changes behaviour.
constexpr std::size_t kCanaryLiteralLines = 4449;
constexpr std::size_t kCanaryRegexLines = 4449;
constexpr std::size_t kCanaryTotalLines = 16811;

std::string lined(std::string text) {
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] == '.' && text[i + 1] == ' ') text[i + 1] = '\n';
  }
  return text;
}

struct Input {
  std::vector<std::string> blocks;
  std::size_t bytes = 0;
  std::string hit_word;
  textproc::PosTagger tagger;
  std::string pos_text;
  std::vector<std::string> wc_docs;
  std::size_t wc_bytes = 0;
  double textgen_s = 0.0;
  double materialize_s = 0.0;
};

void make_input(std::uint64_t seed, const Scale& scale, Input& in) {
  in = Input{};
  // The vocabulary is fixed, so the hit word, and how often lines match
  // (which sets the scans' speed), do not change with the seed; the
  // sentence stream and the tiling come from the seed.
  const Rng vocabulary = Rng(kVocabularySeed).split("vocabulary");
  const Rng rng = Rng(seed).split("text");
  corpus::TextGenerator gen({}, vocabulary, rng.split("sentences"));
  double t0 = now_s();
  const std::string base = lined(gen.text_of_size(scale.base));
  in.textgen_s = now_s() - t0;
  in.hit_word = gen.vocabulary(corpus::PosTag::kNoun).at(30);

  // Distinct files: slices of the base text at random offsets.
  Rng pick = rng.split("files");
  std::vector<corpus::VirtualFile> files;
  std::vector<std::string> texts;
  std::size_t total = 0;
  while (total < scale.blocks_total.count()) {
    const std::size_t size = 16'384 + pick.uniform_below(98'304);
    const std::size_t off = pick.uniform_below(base.size() - size);
    texts.push_back(base.substr(off, size));
    files.push_back(corpus::VirtualFile{files.size(), Bytes(size), 1.0});
    total += size;
  }
  const pack::MergedCorpus merged =
      pack::merge_to_unit(corpus::Corpus(std::move(files)), 10_MB);
  t0 = now_s();
  in.blocks = pack::materialize(merged, texts);
  in.materialize_s = now_s() - t0;
  texts = {};
  for (const std::string& b : in.blocks) in.bytes += b.size();

  corpus::TextGenerator train(corpus::TextGenerator::Options{}, vocabulary,
                              rng.split("train"));
  in.tagger.train(train.tagged_corpus(2000));

  // POS and word count run on fixed subsets of the blocks.
  std::string all;
  for (const std::string& b : in.blocks) {
    if (all.size() >= std::max(scale.pos_subset, scale.wc_subset).count()) break;
    all += b;
  }
  in.pos_text = all.substr(0, scale.pos_subset.count());
  const std::size_t doc = 256 * 1024;
  for (std::size_t off = 0; off < scale.wc_subset.count(); off += doc) {
    in.wc_docs.push_back(all.substr(off, doc));
    in.wc_bytes += in.wc_docs.back().size();
  }
}

/// Kernel results against the retained oracles on a sampled slice, and
/// the pinned canary counts.
void check_oracles(const Input& in, const Scale& scale, std::uint64_t seed,
                   Result& result) {
  const std::string& block = in.blocks[seed % in.blocks.size()];
  const std::string_view slice(block.data(),
                               std::min(block.size(), scale.check_slice.count()));
  for (const std::string& word : {in.hit_word, kMissWord}) {
    const textproc::GrepResult a = textproc::grep_literal(slice, word);
    const textproc::GrepResult b = textproc::grep_literal_reference(slice, word);
    result.check(a.matching_lines == b.matching_lines &&
                     a.total_lines == b.total_lines &&
                     a.bytes_scanned == b.bytes_scanned,
                 "text: grep_literal(" + word + ") != reference");
  }
  const textproc::GrepResult a = textproc::grep_regex(slice, kRegex);
  const textproc::GrepResult b = textproc::grep_regex_reference(slice, kRegex);
  result.check(a.matching_lines == b.matching_lines &&
                   a.total_lines == b.total_lines,
               "text: grep_regex != reference");

  std::size_t ref_tokens = 0;
  for (const std::string_view s : textproc::split_sentences(slice)) {
    const auto words = textproc::tokenize(s, /*keep_punct=*/true);
    if (!words.empty()) ref_tokens += in.tagger.tag(words).size();
  }
  result.check(in.tagger.tag_document(slice) == ref_tokens,
               "text: tag_document tokens != reference");

  Rng canary_rng(42);
  corpus::TextGenerator canary_gen({}, canary_rng);
  const std::string canary = lined(canary_gen.text_of_size(1_MB));
  const textproc::GrepResult lit = textproc::grep_literal(canary, "tion");
  const textproc::GrepResult re = textproc::grep_regex(canary, kRegex);
  result.check(lit.matching_lines == kCanaryLiteralLines &&
                   re.matching_lines == kCanaryRegexLines &&
                   lit.total_lines == kCanaryTotalLines,
               "text: pinned canary counts changed");
}

/// Per-kind sample lists: seconds per byte for grep and POS, seconds per
/// job for word count.
struct Samples {
  std::vector<double> grep[3];  // literal hit, literal miss, regex
  std::vector<double> pos;
  std::vector<double> wc;
  std::size_t literal_bytes = 0, regex_bytes = 0, pos_bytes = 0;
};

/// Word-count threads: half the cores, so the job does not compete with
/// the host's other tenants for every core.
std::size_t wc_threads() {
  return std::max(1u, std::thread::hardware_concurrency() / 2);
}

class Text final : public Family {
 public:
  explicit Text(const Options& options)
      : options_(options), scale_(options.full ? kFull : kProbe) {}

  void setup() override {
    // A full-scale set-up takes about a second; the median of three counts.
    std::vector<double> setups;
    for (int i = 0; i < (options_.full ? 3 : 1); ++i) {
      const double t0 = now_s();
      make_input(options_.seed, scale_, in_);
      setups.push_back(now_s() - t0);
    }
    setup_s_ = median(setups);
    for (std::size_t off = 0; off < in_.pos_text.size(); off += kPosChunk) {
      pos_chunks_.push_back(std::string_view(in_.pos_text).substr(off, kPosChunk));
    }
    for (const std::string& d : in_.wc_docs) words_ += textproc::count_words(d);
    for (auto& lines : block_lines_) lines.assign(in_.blocks.size(), kUnseen);
    pos_tokens_.assign(pos_chunks_.size(), kUnseen);
    check_oracles(in_, scale_, options_.seed, result_);
  }

  void step(Tracer& tracer, bool traced) override {
    // Kinds rotate; in a traced run each kind gets an untraced and a
    // traced step in turn.
    const std::size_t kind = (steps_++ / (options_.trace ? 2 : 1)) % 3;
    Tracer off(false);
    Tracer& tr = traced ? tracer : off;
    Samples& out = traced ? traced_ : samples_;
    ++result_.attempted;
    if (kind == 0) {
      grep_step(tr, out);
    } else if (kind == 1) {
      pos_step(tr, out, traced);
    } else {
      wc_step(tr, out, traced);
    }
  }

  [[nodiscard]] std::size_t steps() const override { return steps_; }

  void record_obs() override {
    Tracer off(false);
    Samples ignored;
    grep_step(off, ignored);
    pos_step(off, ignored, false);
    wc_step(off, ignored, false);
  }

  Result finish(const Tracer& tracer) override;

 private:
  static constexpr std::size_t kUnseen = ~std::size_t{0};
  static constexpr std::size_t kPosChunk = 256 * 1024;

  /// The three scans take turns, each walking the blocks from its own
  /// third of the way round, so every scan gets samples in every run and a
  /// block is revisited only after about a third of the blocks (150 MB at
  /// full scale, more than the L3) went by: the scans stream from memory.
  void grep_step(Tracer& tr, Samples& out) {
    const std::size_t n = in_.blocks.size();
    const std::size_t scan = grep_cursor_ % 3;
    const std::size_t b = (grep_cursor_++ / 3 + scan * n / 3) % n;
    const std::string& block = in_.blocks[b];
    const double t0 = now_s();
    const std::size_t lines =
        scan == 2 ? tr.span("textproc.grep_regex",
                            [&] {
                              return textproc::grep_regex(block, kRegex)
                                  .matching_lines;
                            })
                  : tr.span("textproc.grep_literal", [&] {
                      return textproc::grep_literal(
                                 block, scan == 0 ? in_.hit_word : kMissWord)
                          .matching_lines;
                    });
    out.grep[scan].push_back((now_s() - t0) / static_cast<double>(block.size()));
    (scan == 2 ? out.regex_bytes : out.literal_bytes) += block.size();
    same(block_lines_[scan][b], lines, "text: grep counts differ between visits");
  }

  void pos_step(Tracer& tr, Samples& out, bool traced) {
    const std::size_t c = pos_cursor_++ % pos_chunks_.size();
    const std::string_view chunk = pos_chunks_[c];
    const double t0 = now_s();
    const std::size_t tokens = tr.span("textproc.tag_document",
                                       [&] { return in_.tagger.tag_document(chunk); });
    out.pos.push_back((now_s() - t0) / static_cast<double>(chunk.size()));
    out.pos_bytes += chunk.size();
    same(pos_tokens_[c], tokens, "text: POS tokens differ between visits");
    if (!traced) return;
    tr.span("textproc.tokenize", [&] {
      textproc::TokenArena arena;
      std::size_t n = 0;
      textproc::for_each_sentence(chunk, [&](std::string_view s) {
        n += arena.tokenize(s, /*keep_punct=*/true).size();
      });
      return n;
    });
  }

  void wc_step(Tracer& tr, Samples& out, bool traced) {
    const Unpinned all_cpus;
    const mr::LocalRunner runner(wc_threads());
    const double t0 = now_s();
    const mr::JobResult wc = tr.span("mapreduce.run", [&] {
      return runner.run(mr::word_count_job(), in_.wc_docs,
                        mr::combined_splits(in_.wc_docs, 1_MB));
    });
    out.wc.push_back(now_s() - t0);
    std::uint64_t words = 0;
    for (const mr::KeyValue& kv : wc.output) words += mr::parse_count(kv.value);
    result_.check(words == words_, "text: word count total != count_words");
    if (traced) wc_stats_.push_back(wc.stats);
  }

  void same(std::size_t& seen, std::size_t now, const char* what) {
    if (seen == kUnseen) seen = now;
    result_.check(seen == now, what);
  }

  Options options_;
  Scale scale_;
  Input in_;
  double setup_s_ = 0.0;
  std::vector<std::string_view> pos_chunks_;
  std::uint64_t words_ = 0;
  std::vector<std::size_t> block_lines_[3];
  std::vector<std::size_t> pos_tokens_;
  std::size_t steps_ = 0, grep_cursor_ = 0, pos_cursor_ = 0;
  Samples samples_, traced_;
  std::vector<mr::JobStats> wc_stats_;
  Result result_;
};

Result Text::finish(const Tracer& tracer) {
  Result result = std::move(result_);
  result.setup_s = setup_s_;
  result.info["blocks_bytes"] = std::to_string(in_.bytes);
  result.info["pos_bytes"] = std::to_string(in_.pos_text.size());
  result.info["wordcount_bytes"] = std::to_string(in_.wc_bytes);
  result.info["wordcount_threads"] = std::to_string(wc_threads());
  result.info["hit_word"] = in_.hit_word;
  result.info["steps"] = std::to_string(steps_);

  const double mb = 1e6;
  const auto grep_mb_per_s = [&](const Samples& s) {
    return 3.0 / (median(s.grep[0]) + median(s.grep[1]) + median(s.grep[2])) / mb;
  };
  const auto pos_mb_per_s = [&](const Samples& s) {
    return 1.0 / median(s.pos) / mb;
  };
  const auto wc_mb_per_s = [&](const Samples& s) {
    return static_cast<double>(in_.wc_bytes) / median(s.wc) / mb;
  };
  result.metric("grep_mb_per_s", grep_mb_per_s(samples_), "MB/s");
  result.metric("pos_mb_per_s", pos_mb_per_s(samples_), "MB/s");
  result.metric("wordcount_mb_per_s", wc_mb_per_s(samples_), "MB/s");
  if (!options_.trace) return result;

  // Span self time per byte traced, scaled to one pass over the blocks
  // (both literal scans, then the regex scan) or over the POS subset.
  const auto per_pass = [&](const char* span, std::size_t traced_bytes,
                            std::size_t pass_bytes) {
    return tracer.self_s(span) / static_cast<double>(traced_bytes) *
           static_cast<double>(pass_bytes);
  };
  std::size_t matching = 0, tokens = 0;
  for (const std::string& block : in_.blocks) {
    matching += textproc::grep_literal(block, in_.hit_word).matching_lines +
                textproc::grep_regex(block, kRegex).matching_lines;
  }
  for (const std::string_view chunk : pos_chunks_) {
    tokens += in_.tagger.tag_document(chunk);
  }
  std::vector<double> map_s, shuffle_s, reduce_s;
  std::uint64_t pairs = 0;
  for (const mr::JobStats& st : wc_stats_) {
    map_s.push_back(st.map_wall.value());
    shuffle_s.push_back(st.shuffle_wall.value());
    reduce_s.push_back(st.reduce_wall.value());
    pairs = st.intermediate_pairs;
  }
  result.layer("corpus.textgen_s", in_.textgen_s, "s");
  result.layer("reshape.materialize_s", in_.materialize_s, "s");
  result.layer("textproc.grep_literal_s",
               per_pass("textproc.grep_literal", traced_.literal_bytes,
                        2 * in_.bytes),
               "s");
  result.layer("textproc.grep_regex_s",
               per_pass("textproc.grep_regex", traced_.regex_bytes, in_.bytes), "s");
  result.layer("textproc.matching_lines", static_cast<double>(matching), "count");
  result.layer("textproc.tokenize_s",
               per_pass("textproc.tokenize", traced_.pos_bytes,
                        in_.pos_text.size()),
               "s");
  result.layer("textproc.pos_tag_s",
               per_pass("textproc.tag_document", traced_.pos_bytes,
                        in_.pos_text.size()),
               "s");
  result.layer("textproc.pos_tokens", static_cast<double>(tokens), "count");
  result.layer("mapreduce.map_s", median(map_s), "s");
  result.layer("mapreduce.shuffle_s", median(shuffle_s), "s");
  result.layer("mapreduce.reduce_s", median(reduce_s), "s");
  result.layer("mapreduce.combine_frac",
               static_cast<double>(pairs) / static_cast<double>(words_), "ratio");
  // Traced over untraced, per kind, averaged over the three kinds.
  const double overhead =
      (grep_mb_per_s(samples_) / grep_mb_per_s(traced_) +
       pos_mb_per_s(samples_) / pos_mb_per_s(traced_) +
       wc_mb_per_s(samples_) / wc_mb_per_s(traced_)) /
          3.0 -
      1.0;
  result.layer("obs.trace_overhead_frac", overhead, "ratio");
  tracer.write_json(options_.out_dir + "/spans-text.json");
  return result;
}

}  // namespace

std::unique_ptr<Family> make_text(const Options& options) {
  return std::make_unique<Text>(options);
}

}  // namespace perfbench
