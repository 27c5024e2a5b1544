#include "core/session.h"

namespace mqa {

Result<AnswerTurn> Session::Ask(const std::string& text) {
  UserQuery query;
  query.text = text;
  query.selected_object = selected_;
  return Run(std::move(query));
}

Result<AnswerTurn> Session::AskWithImage(const std::string& text,
                                         Payload image) {
  UserQuery query;
  query.text = text;
  query.uploaded_image = std::move(image);
  return Run(std::move(query));
}

Result<AnswerTurn> Session::Run(UserQuery query) {
  MQA_ASSIGN_OR_RETURN(AnswerTurn turn,
                       coordinator_->AskWithState(query, &dialogue_));
  last_results_ = turn.items;
  ++rounds_;
  return turn;
}

Status Session::Select(size_t rank) {
  if (rank >= last_results_.size()) {
    return Status::OutOfRange("no result at rank " + std::to_string(rank));
  }
  selected_ = last_results_[rank].id;
  return Status::OK();
}

void Session::Reset() {
  last_results_.clear();
  selected_.reset();
  rounds_ = 0;
  dialogue_.Clear();
}

}  // namespace mqa
