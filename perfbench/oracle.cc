#include "oracle.h"

#include <cctype>

namespace perfbench {
namespace {

/// Recursive-descent parser over the grammar in oracle.h.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<OraclePattern> Query() {
    OraclePattern p;
    if (Eat("//")) {
      p.rooted = false;
    } else if (Eat("/")) {
      p.rooted = true;
    } else {
      return std::nullopt;
    }
    do {
      std::optional<OracleStep> s = Step();
      if (!s) return std::nullopt;
      p.path.push_back(std::move(*s));
    } while (Eat("/"));
    if (pos_ != text_.size() || Peek('/')) return std::nullopt;
    return p;
  }

 private:
  bool Peek(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
  bool Eat(const char* lit) {
    size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    // "/" must not swallow the first half of "//".
    if (n == 1 && lit[0] == '/' && pos_ + 1 < text_.size() &&
        text_[pos_ + 1] == '/') {
      return false;
    }
    pos_ += n;
    return true;
  }

  std::optional<OracleStep> Step() {
    OracleStep s;
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (!(std::isalnum(c) || c == '_' || c == '-' || c == '.' ||
            c == ':')) {
        break;
      }
      s.name += text_[pos_++];
    }
    if (s.name.empty()) return std::nullopt;
    while (Eat("[")) {
      std::optional<OracleStep> rel = Relative();
      if (!rel || !Eat("]")) return std::nullopt;
      s.required.push_back(std::move(*rel));
    }
    return s;
  }

  /// A relative path a/b/c becomes step a requiring b requiring c.
  std::optional<OracleStep> Relative() {
    std::optional<OracleStep> head = Step();
    if (!head) return std::nullopt;
    if (Eat("/")) {
      std::optional<OracleStep> rest = Relative();
      if (!rest) return std::nullopt;
      head->required.push_back(std::move(*rest));
    }
    return head;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

bool Matches(const OracleStep& step, const fix::Document& doc,
             const fix::LabelTable& labels, fix::NodeId node) {
  if (!doc.IsElement(node) || labels.Name(doc.label(node)) != step.name) {
    return false;
  }
  for (const OracleStep& req : step.required) {
    bool found = false;
    for (fix::NodeId c = doc.first_child(node);
         c != fix::kInvalidNode && !found; c = doc.next_sibling(c)) {
      found = Matches(req, doc, labels, c);
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace

std::optional<OraclePattern> ParseOraclePattern(const std::string& xpath) {
  return Parser(xpath).Query();
}

void EvaluateOracle(const OraclePattern& pattern, const fix::Document& doc,
                    const fix::LabelTable& labels, uint32_t doc_id,
                    std::vector<fix::NodeRef>* out) {
  const size_t last = pattern.path.size() - 1;
  // Node 0 is the synthetic document node; elements start at 1.
  for (fix::NodeId n = 1; n < doc.num_nodes(); ++n) {
    if (!Matches(pattern.path[last], doc, labels, n)) continue;
    fix::NodeId cur = n;
    bool ok = true;
    for (size_t i = last; i-- > 0 && ok;) {
      cur = doc.parent(cur);
      ok = cur != 0 && cur != fix::kInvalidNode &&
           Matches(pattern.path[i], doc, labels, cur);
    }
    if (ok && pattern.rooted) ok = doc.parent(cur) == 0;
    if (ok) out->push_back(fix::NodeRef{doc_id, n});
  }
}

}  // namespace perfbench
