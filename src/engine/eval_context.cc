#include "engine/eval_context.h"

#include <cstdio>

namespace rigpm {

void EvalContext::NoteQuery(const GmResult& result) {
  ++queries_evaluated_;
  occurrences_emitted_ += result.num_occurrences;
  matching_ms_ += result.MatchingMs();
  enumerate_ms_ += result.EnumerateMs();
}

std::string EvalContext::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%llu query(ies), %llu occurrence(s), %.2f ms matching / "
                "%.2f ms enumeration",
                static_cast<unsigned long long>(queries_evaluated_),
                static_cast<unsigned long long>(occurrences_emitted_),
                matching_ms_, enumerate_ms_);
  return buf;
}

}  // namespace rigpm
