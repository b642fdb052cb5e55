#ifndef RHEEM_BENCH_BENCH_COMMON_H_
#define RHEEM_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/stopwatch.h"
#include "core/api/context.h"

namespace rheem {
namespace bench {

/// Default benchmark configuration: the scaled-down cluster constants
/// documented in EXPERIMENTS.md (about 1:40 of a real Spark cluster's
/// overheads, so crossovers land at laptop-scale datasets).
inline Config BenchConfig() {
  Config config;
  config.SetInt("sparksim.slots", 8);
  config.SetInt("sparksim.partitions", 8);
  return config;
}

inline RheemContext* NewContext() {
  auto* ctx = new RheemContext(BenchConfig());
  Status st = ctx->RegisterDefaultPlatforms();
  if (!st.ok()) {
    std::fprintf(stderr, "platform registration failed: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }
  return ctx;
}

/// Simple fixed-width table printer for the paper-style result series.
class ResultTable {
 public:
  explicit ResultTable(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void Print() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("|");
      for (std::size_t c = 0; c < widths.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : std::string();
        std::printf(" %-*s |", static_cast<int>(widths[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (std::size_t c = 0; c < widths.size(); ++c) {
      std::printf("%s|", std::string(widths[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Collects pre-formatted JSON objects and writes a committed
/// `BENCH_<name>.json` result file: {"bench": name, "results": [rows...]}.
/// Smoke runs write `BENCH_<name>.smoke.json` instead, so a quick CI-sized
/// run can never overwrite the recorded full-mode numbers.
class JsonResults {
 public:
  /// `file` is the full-mode result file, "BENCH_<name>.json".
  JsonResults(std::string bench, const std::string& file, bool smoke)
      : bench_(std::move(bench)),
        path_(smoke ? file.substr(0, file.rfind(".json")) + ".smoke.json"
                    : file) {}

  void Add(std::string row_json) { rows_.push_back(std::move(row_json)); }

  /// Free-form annotation written as a top-level "note" key (e.g. the
  /// before/after story of a re-recorded series). Must not contain quotes.
  void SetNote(std::string note) { note_ = std::move(note); }

  /// Writes path() and prints where the results went; false on failure.
  bool Write() const {
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "failed to write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench_.c_str());
    if (!note_.empty()) {
      std::fprintf(f, "  \"note\": \"%s\",\n", note_.c_str());
    }
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "    %s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path_.c_str());
    return true;
  }

 private:
  std::string bench_;
  std::string path_;
  std::string note_;
  std::vector<std::string> rows_;
};

inline std::string Ms(double micros) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", micros * 1e-3);
  return buf;
}

inline std::string Times(double factor) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fx", factor);
  return buf;
}

}  // namespace bench
}  // namespace rheem

#endif  // RHEEM_BENCH_BENCH_COMMON_H_
