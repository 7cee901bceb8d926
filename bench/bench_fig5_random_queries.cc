// Reproduces Figure 5: average selectivity, pruning power, and
// false-positive ratio over 1000 random twig queries per data set.
//
// Shape expectations from the paper:
//   * XMark / Treebank: avg pp tracks avg sel closely (structure-rich);
//   * TCMD: a large gap between sel and pp (~32% in the paper) — similar
//     documents cannot be told apart structurally;
//   * DBLP: a moderate gap (~14% in the paper).

#include <string>

#include "datagen/query_gen.h"
#include "harness.h"

namespace fix::bench {
namespace {

struct PaperAvg {
  DataSet data;
  const char* paper_sel;
  const char* paper_pp;
  const char* paper_fpr;
};

// Approximate bar heights read off Figure 5.
constexpr PaperAvg kPaper[] = {
    {DataSet::kTcmd, "~0.62", "~0.30", "~0.47"},
    {DataSet::kDblp, "~0.84", "~0.70", "~0.42"},
    {DataSet::kXMark, "~0.98", "~0.96", "~0.40"},
    {DataSet::kTreebank, "~0.99", "~0.95", "~0.66"},
};

void Run() {
  Report report("bench_fig5_random_queries");
  report.Note("Figure 5: averages over 1000 random twig queries per set.");
  report.Header({"dataset", "queries", "avg_sel", "avg_pp", "avg_fpr",
                 "queries_with_false_neg", "paper_sel", "paper_pp",
                 "paper_fpr"});

  for (const PaperAvg& paper : kPaper) {
    auto corpus = BuildCorpus(paper.data);
    auto index = BuildFix(corpus.get(), paper.data, /*clustered=*/false, 0,
                          nullptr,
                          std::string("f5_") + DataSetName(paper.data));
    FIX_CHECK(index.ok());

    QueryGenOptions qopts;
    qopts.seed = 20060301;  // the TR's publication date
    qopts.max_depth = PaperDepthLimit(paper.data) > 0
                          ? PaperDepthLimit(paper.data)
                          : 5;
    qopts.rooted = paper.data == DataSet::kTcmd;  // TCMD queries are rooted
    auto queries = GenerateRandomQueries(*corpus, 1000, qopts);

    double sel = 0, pp = 0, fpr = 0;
    uint64_t with_fn = 0;
    for (const auto& q : queries) {
      QueryMetrics m = MeasureQuery(corpus.get(), &*index, q, q.ToString());
      sel += m.sel;
      pp += m.pp;
      fpr += m.fpr;
      with_fn += m.false_negatives > 0 ? 1 : 0;
    }
    double n = static_cast<double>(queries.size());
    char avg_sel[16], avg_pp[16], avg_fpr[16];
    std::snprintf(avg_sel, sizeof(avg_sel), "%.3f", sel / n);
    std::snprintf(avg_pp, sizeof(avg_pp), "%.3f", pp / n);
    std::snprintf(avg_fpr, sizeof(avg_fpr), "%.3f", fpr / n);
    report.Row({DataSetName(paper.data), Num(queries.size()), avg_sel,
                avg_pp, avg_fpr, Num(with_fn), paper.paper_sel,
                paper.paper_pp, paper.paper_fpr});
  }
  report.Note(
      "queries_with_false_neg counts random queries where paper-mode "
      "pruning lost producers (see DESIGN.md finding F1; expected nonzero "
      "on recursive data, 0 under IndexOptions::sound_probe).");
}

}  // namespace
}  // namespace fix::bench

int main() {
  fix::bench::Run();
  return 0;
}
