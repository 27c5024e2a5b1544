#ifndef MQA_CORE_SESSION_H_
#define MQA_CORE_SESSION_H_

#include <optional>
#include <string>
#include <vector>

#include "core/coordinator.h"

namespace mqa {

/// An interactive multi-round dialogue over a Coordinator — the QA panel's
/// behaviour: ask in text, click a result, refine, repeat. The clicked
/// result's image augments every subsequent query until a new selection or
/// Reset() (the paper's iterative refinement feedback loop). Each session
/// keeps its own dialogue state, so sessions over one coordinator never
/// see each other's history.
class Session {
 public:
  /// `coordinator` is borrowed and must outlive the session.
  explicit Session(Coordinator* coordinator) : coordinator_(coordinator) {}

  /// One text round (uses the current selection, if any, as image context).
  Result<AnswerTurn> Ask(const std::string& text);

  /// One image-assisted round with a user-provided image payload.
  Result<AnswerTurn> AskWithImage(const std::string& text, Payload image);

  /// Selects result `rank` (0-based) from the last round as feedback.
  Status Select(size_t rank);

  /// Id of the currently selected object, if any.
  std::optional<uint64_t> selection() const { return selected_; }

  const std::vector<RetrievedItem>& last_results() const {
    return last_results_;
  }
  size_t rounds() const { return rounds_; }

  /// Clears the selection, results, and this session's dialogue history.
  void Reset();

 private:
  Result<AnswerTurn> Run(UserQuery query);

  Coordinator* coordinator_;
  Coordinator::DialogueState dialogue_;  ///< this session's conversation
  std::vector<RetrievedItem> last_results_;
  std::optional<uint64_t> selected_;
  size_t rounds_ = 0;
};

}  // namespace mqa

#endif  // MQA_CORE_SESSION_H_
