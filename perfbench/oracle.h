// The benchmark's answer oracle: a small twig evaluator over Document
// trees that shares no code with the index (src/core) or the refiner
// (src/query). It parses the XPath subset the workloads send itself and
// walks every element of a document by name, so a fault in the label
// resolution, the probe or the refiner of the program shows up as a
// mismatch here.
//
// Grammar (the shapes GenerateRandomQueries and Figure 6 produce):
//   query := ('/' | '//') step ('/' step)*
//   step  := name ('[' rel ']')*
//   rel   := step ('/' step)*
// A leading '/' binds the first step to the document's root element, '//'
// to any element. Every other axis is child. The answer is the set of
// nodes bound by the last step of the main path.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <optional>
#include <string>
#include <vector>

#include "xml/document.h"
#include "xml/label_table.h"

namespace perfbench {

/// One step of a twig: a name test plus the child steps that must exist
/// below a node for it to match (predicates, and for predicate steps the
/// rest of their relative path).
struct OracleStep {
  std::string name;
  std::vector<OracleStep> required;
};

struct OraclePattern {
  bool rooted = false;            ///< '/' (root element) vs '//' (any)
  std::vector<OracleStep> path;   ///< main path; path.back() is the answer
};

/// Parses `xpath`; nullopt when it is outside the grammar above.
std::optional<OraclePattern> ParseOraclePattern(const std::string& xpath);

/// Appends to `out`, in ascending node order, every node of `doc` that
/// `pattern` binds at its last main-path step. `labels` is the table the
/// document's label ids index into.
void EvaluateOracle(const OraclePattern& pattern, const fix::Document& doc,
                    const fix::LabelTable& labels, uint32_t doc_id,
                    std::vector<fix::NodeRef>* out);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
