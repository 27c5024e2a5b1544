#include "llm/query_rewriter.h"

#include <unordered_set>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace mqa {

namespace {

/// Conversational filler that never identifies the subject of a search.
const std::unordered_set<std::string>& StopWords() {
  // Intentionally leaked function-local singleton (never destroyed).
  static const auto* kStopWords =  // NOLINT(mqa-naked-new)
      new std::unordered_set<std::string>{
      "i",      "a",      "an",     "the",    "of",      "to",     "in",
      "on",     "for",    "with",   "and",    "or",      "would",  "could",
      "should", "can",    "you",    "me",     "my",      "we",     "us",
      "it",     "its",    "this",   "that",   "these",   "those",  "one",
      "ones",   "some",   "any",    "more",   "most",    "like",   "want",
      "wanted", "need",   "show",   "find",   "locate",  "search", "looking",
      "look",   "images", "image",  "photos", "photo",   "pictures",
      "picture", "please", "kindly", "hello",  "hi",     "is",     "are",
      "was",    "be",     "have",   "has",    "do",      "does",   "not",
      "no",     "yes",    "so",     "but",    "if",      "then",   "them",
      "there",  "here",   "similar", "same",  "different", "other",
      "else",   "again",  "now",    "just",   "really",  "very",   "thanks",
      "thank",  "am",     "make",   "made",   "get",     "give",   "provide",
      "provided",
  };
  return *kStopWords;
}

}  // namespace

std::vector<std::string> ContextualQueryRewriter::ContentWords(
    const std::string& text) {
  std::vector<std::string> out;
  for (const std::string& token : Tokenize(text)) {
    if (StopWords().count(token) > 0) continue;
    bool seen = false;
    for (const std::string& w : out) seen = seen || w == token;
    if (!seen) out.push_back(token);
  }
  return out;
}

void ContextualQueryRewriter::ObserveTurn(const std::string& user_text) {
  history_.push_back(user_text);
  while (history_.size() > history_window_) history_.pop_front();
}

Result<std::string> ContextualQueryRewriter::RewriteChecked(
    const std::string& text) const {
  Span span("llm/rewrite");
  static Counter* const calls =
      MetricsRegistry::Global().GetCounter("rewriter/calls");
  calls->Increment();
  MQA_RETURN_NOT_OK(FaultInjector::Global().Check("llm/rewrite"));
  std::string out = Rewrite(text);
  if (out != text) {
    static Counter* const rewrites =
        MetricsRegistry::Global().GetCounter("rewriter/rewrites");
    rewrites->Increment();
  }
  return out;
}

std::string ContextualQueryRewriter::Rewrite(const std::string& text) const {
  if (ContentWords(text).size() >= 2) return text;
  // Pull up to three topical words, most recent turns first.
  std::vector<std::string> topical;
  for (auto it = history_.rbegin();
       it != history_.rend() && topical.size() < 3; ++it) {
    for (const std::string& w : ContentWords(*it)) {
      if (topical.size() >= 3) break;
      bool seen = false;
      for (const std::string& t : topical) seen = seen || t == w;
      if (!seen) topical.push_back(w);
    }
  }
  if (topical.empty()) return text;
  std::string out = text;
  for (const std::string& w : topical) {
    out += " " + w;
  }
  return out;
}

}  // namespace mqa
