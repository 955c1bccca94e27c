// Text-kernel microbenchmark — the perf trajectory tracker for the §5
// application hot paths (literal/regex grep, tokenization, POS tagging).
//
// Every vectorized kernel is first checked for identical observable
// results (grep counts, token streams, tag totals) against its retained
// reference oracle, then both are timed and the before/after ratio is
// emitted to BENCH_textproc.json in MB/s.  A speedup can never come from
// a behaviour change.
//
// Modes:
//   micro_textproc           full sweep over a 16 MB corpus
//   micro_textproc --smoke   4 MB corpus; exits nonzero if any kernel's
//                            ratio falls more than 25% below its recorded
//                            reference ratio (floors: literal grep 3x,
//                            regex grep 5x).  Wired into the bench-smoke
//                            CTest label.
//
// Observability flags (untimed — recording only turns on for one extra
// pass after the timed sweep):
//   --trace out.json         wall-clock spans of the grep/tag kernels
//   --metrics out.json       textproc.* counter snapshot

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "corpus/textgen.hpp"
#include "harness.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "textproc/pos.hpp"
#include "textproc/scanner.hpp"
#include "textproc/tokenizer.hpp"

namespace {

using namespace reshape;
using bench::time_best_of;

// Recorded reference ratios (vectorized vs reference, measured on the
// smoke corpus).  The smoke gate fails below 75% of these; the literal
// and regex floors also satisfy the acceptance criteria (>=3x, >=5x).
constexpr double kRecordedLiteralRatio = 4.5;
constexpr double kRecordedRegexRatio = 6.5;
constexpr double kRecordedTokenizeRatio = 1.8;
constexpr double kFloorLiteral = 3.0;
constexpr double kFloorRegex = 5.0;

std::string lined_corpus(Bytes volume) {
  Rng rng(42);
  corpus::TextGenerator gen({}, rng);
  std::string text = gen.text_of_size(volume);
  // Sentence-per-line layout, the same reshaping tagger_tour applies:
  // grep counts matching lines, so lines must exist.
  for (std::size_t i = 0; i + 1 < text.size(); ++i) {
    if (text[i] == '.' && text[i + 1] == ' ') text[i + 1] = '\n';
  }
  return text;
}

double mb_per_s(std::size_t bytes, double seconds) {
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(bytes) / 1e6 / seconds;
}

struct Row {
  std::string kernel;
  std::size_t bytes = 0;
  double ref_seconds = 0.0;
  double vec_seconds = 0.0;
  [[nodiscard]] double ratio() const {
    return vec_seconds > 0.0 ? ref_seconds / vec_seconds : 0.0;
  }
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

  const Bytes volume = smoke ? 4_MB : 16_MB;
  const std::string text = lined_corpus(volume);
  const int reps = smoke ? 3 : 5;
  std::printf("-- corpus: %zu bytes, %s mode\n", text.size(),
              smoke ? "smoke" : "full");

  std::vector<Row> rows;
  bool all_identical = true;
  const auto record = [&rows, &text](const std::string& kernel, double ref_s,
                                     double vec_s) {
    rows.push_back(Row{kernel, text.size(), ref_s, vec_s});
    const Row& r = rows.back();
    std::printf("  %-24s ref %8.2f MB/s   vec %8.2f MB/s   ratio %5.2fx\n",
                kernel.c_str(), mb_per_s(r.bytes, ref_s),
                mb_per_s(r.bytes, vec_s), r.ratio());
  };

  // ------------------------------------------------------- literal grep
  // The paper's §5.1 workload: a dictionary word that occurs ("tion"
  // suffixed words) and a nonsense word forcing a full traversal.
  for (const std::string word : {"tion", "xyzzyplugh"}) {
    const textproc::GrepResult ref = textproc::grep_literal_reference(text, word);
    const textproc::GrepResult vec = textproc::grep_literal(text, word);
    if (ref.matching_lines != vec.matching_lines ||
        ref.total_lines != vec.total_lines ||
        ref.bytes_scanned != vec.bytes_scanned) {
      std::fprintf(stderr, "FATAL: grep_literal(%s) diverged from reference\n",
                   word.c_str());
      all_identical = false;
      continue;
    }
    const double t_ref = time_best_of(reps, [&] {
      (void)textproc::grep_literal_reference(text, word);
    });
    const double t_vec = time_best_of(reps, [&] {
      (void)textproc::grep_literal(text, word);
    });
    record("grep_literal:" + word, t_ref, t_vec);
  }

  // --------------------------------------------------------- regex grep
  for (const std::string pattern : {"[a-z]+tion", "xyzzy[a-z]+"}) {
    const textproc::GrepResult ref =
        textproc::grep_regex_reference(text, pattern);
    const textproc::GrepResult vec = textproc::grep_regex(text, pattern);
    if (ref.matching_lines != vec.matching_lines ||
        ref.total_lines != vec.total_lines) {
      std::fprintf(stderr, "FATAL: grep_regex(%s) diverged from reference\n",
                   pattern.c_str());
      all_identical = false;
      continue;
    }
    const double t_ref = time_best_of(reps, [&] {
      (void)textproc::grep_regex_reference(text, pattern);
    });
    const double t_vec = time_best_of(reps, [&] {
      (void)textproc::grep_regex(text, pattern);
    });
    record("grep_regex:" + pattern, t_ref, t_vec);
  }

  // ---------------------------------------------------------- tokenizer
  // Reference: per-sentence vector<std::string>.  Vectorized: TokenArena
  // string_view spans.  Token streams must agree exactly.
  {
    const auto sentences = textproc::split_sentences(text);
    textproc::TokenArena arena;
    bool streams_equal = true;
    for (const std::string_view s : sentences) {
      const auto ref_tokens = textproc::tokenize(s, /*keep_punct=*/true);
      const auto& vec_tokens = arena.tokenize(s, /*keep_punct=*/true);
      if (ref_tokens.size() != vec_tokens.size()) {
        streams_equal = false;
        break;
      }
      for (std::size_t i = 0; i < ref_tokens.size(); ++i) {
        if (ref_tokens[i] != vec_tokens[i]) {
          streams_equal = false;
          break;
        }
      }
      if (!streams_equal) break;
    }
    if (!streams_equal) {
      std::fprintf(stderr, "FATAL: TokenArena diverged from tokenize()\n");
      all_identical = false;
    } else {
      std::size_t sink_ref = 0, sink_vec = 0;
      const double t_ref = time_best_of(reps, [&] {
        std::size_t tokens = 0;
        textproc::for_each_sentence(text, [&](std::string_view s) {
          tokens += textproc::tokenize(s, /*keep_punct=*/true).size();
        });
        sink_ref = tokens;
      });
      const double t_vec = time_best_of(reps, [&] {
        std::size_t tokens = 0;
        textproc::for_each_sentence(text, [&](std::string_view s) {
          tokens += arena.tokenize(s, /*keep_punct=*/true).size();
        });
        sink_vec = tokens;
      });
      if (sink_ref != sink_vec) {
        std::fprintf(stderr, "FATAL: tokenizer token counts diverged\n");
        all_identical = false;
      }
      record("tokenize", t_ref, t_vec);
    }
  }

  // --------------------------------------------------------- POS tagging
  // Reference: the old pipeline through public APIs (split + allocating
  // tokenize + tag).  Vectorized: tag_document's arena pipeline.
  {
    Rng rng(17);
    corpus::TextGenerator train_gen({}, rng);
    textproc::PosTagger tagger;
    tagger.train(train_gen.tagged_corpus(2000));
    const Bytes pos_volume = smoke ? 512_kB : 2_MB;
    const std::string pos_text(text.data(),
                               std::min(text.size(), pos_volume.count()));
    const auto reference_pass = [&] {
      std::size_t tokens = 0;
      for (const std::string_view s : textproc::split_sentences(pos_text)) {
        const auto words = textproc::tokenize(s, /*keep_punct=*/true);
        if (words.empty()) continue;
        tokens += tagger.tag(words).size();
      }
      return tokens;
    };
    const std::size_t ref_tokens = reference_pass();
    const std::size_t vec_tokens = tagger.tag_document(pos_text);
    if (ref_tokens != vec_tokens) {
      std::fprintf(stderr, "FATAL: tag_document token count diverged\n");
      all_identical = false;
    } else {
      const int pos_reps = smoke ? 2 : 3;
      const double t_ref =
          time_best_of(pos_reps, [&] { (void)reference_pass(); });
      const double t_vec = time_best_of(pos_reps, [&] {
        (void)tagger.tag_document(pos_text);
      });
      rows.push_back(Row{"pos_tag_document", pos_text.size(), t_ref, t_vec});
      const Row& r = rows.back();
      std::printf("  %-24s ref %8.2f MB/s   vec %8.2f MB/s   ratio %5.2fx\n",
                  r.kernel.c_str(), mb_per_s(r.bytes, t_ref),
                  mb_per_s(r.bytes, t_vec), r.ratio());
    }
  }

  // --------------------------------------------------------------- JSON
  FILE* out = std::fopen("BENCH_textproc.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"bench\": \"micro_textproc\",\n");
    std::fprintf(out, "  \"corpus_bytes\": %zu,\n", text.size());
    std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(out,
                 "  \"recorded_ratios\": {\"grep_literal\": %.2f, "
                 "\"grep_regex\": %.2f, \"tokenize\": %.2f},\n",
                 kRecordedLiteralRatio, kRecordedRegexRatio,
                 kRecordedTokenizeRatio);
    std::fprintf(out, "  \"results\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(out,
                   "    {\"kernel\": \"%s\", \"bytes\": %zu, "
                   "\"seconds_reference\": %.6f, \"seconds_vectorized\": "
                   "%.6f, \"mb_per_s_reference\": %.2f, "
                   "\"mb_per_s_vectorized\": %.2f, \"ratio\": %.2f}%s\n",
                   r.kernel.c_str(), r.bytes, r.ref_seconds, r.vec_seconds,
                   mb_per_s(r.bytes, r.ref_seconds),
                   mb_per_s(r.bytes, r.vec_seconds), r.ratio(),
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote BENCH_textproc.json\n");
  }

  // Observability export: one extra untimed pass with recording on, after
  // every timed section, so the numbers above are never measured with
  // recording active.
  const int exported = session.record([&] {
    obs::trace().set_wall_capture(true);
    (void)textproc::grep_literal(text, "tion");
    (void)textproc::grep_regex(text, "[a-z]+tion");
    obs::trace().set_wall_capture(false);
  });
  if (exported != 0) return exported;

  if (!all_identical) return 2;
  if (smoke) {
    bool ok = true;
    const auto gate = [&ok](const Row& r, double recorded, double min_ratio) {
      ok = bench::ratio_gate(r.kernel, r.ratio(), recorded, min_ratio) && ok;
    };
    for (const Row& r : rows) {
      if (r.kernel.rfind("grep_literal:", 0) == 0) {
        gate(r, kRecordedLiteralRatio, kFloorLiteral);
      } else if (r.kernel.rfind("grep_regex:", 0) == 0) {
        gate(r, kRecordedRegexRatio, kFloorRegex);
      } else if (r.kernel == "tokenize") {
        gate(r, kRecordedTokenizeRatio, 1.0);
      }
    }
    if (!ok) return 1;
    std::printf("smoke ok: all kernel ratios above their thresholds\n");
  }
  return 0;
}
