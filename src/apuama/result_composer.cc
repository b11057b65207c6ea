#include "apuama/result_composer.h"

#include <chrono>
#include <iterator>
#include <utility>

#include "common/string_util.h"
#include "engine/executor.h"
#include "sql/analyzer.h"
#include "sql/parser.h"

namespace apuama {

namespace {

uint64_t MicrosSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

Result<engine::QueryResult> ResultComposer::Compose(
    const std::vector<const engine::QueryResult*>& partials,
    const std::string& composition_sql, CompositionStats* stats) {
  if (partials.empty()) {
    return Status::InvalidArgument("no partial results to compose");
  }
  APUAMA_ASSIGN_OR_RETURN(std::unique_ptr<sql::SelectStmt> comp,
                          sql::ParseSelect(composition_sql));
  sql::FoldConstants(comp.get());
  StreamingComposition sink(std::move(comp));
  for (const auto* p : partials) APUAMA_RETURN_NOT_OK(sink.Add(*p));
  return sink.Finish(stats);
}

StreamingComposition::StreamingComposition(
    std::shared_ptr<const sql::SelectStmt> composition)
    : composition_(std::move(composition)) {}

Status StreamingComposition::Add(engine::QueryResult partial) {
  const auto t0 = std::chrono::steady_clock::now();
  const size_t width = partial.column_names.size();
  if (num_partials_ > 0 && width != partials_.columns.size()) {
    return Status::InvalidArgument("partial results disagree on column count");
  }
  for (const Row& r : partial.rows) {
    if (r.size() < width) {
      return Status::InvalidArgument("short row in partial result");
    }
  }
  if (num_partials_ == 0) {
    // The executor rejects a statement without exactly one FROM entry;
    // the binding only has to exist when there is one.
    const std::string binding = composition_->from.size() == 1
                                    ? ToLower(composition_->from[0].binding())
                                    : std::string();
    for (const auto& name : partial.column_names) {
      partials_.columns.push_back(
          engine::ColumnBinding{binding, ToLower(name)});
    }
  }
  ++num_partials_;
  combined_ += partial.stats;
  partials_.rows.insert(partials_.rows.end(),
                        std::make_move_iterator(partial.rows.begin()),
                        std::make_move_iterator(partial.rows.end()));
  compose_micros_ += MicrosSince(t0);
  return Status::OK();
}

Result<engine::QueryResult> StreamingComposition::Finish(
    CompositionStats* stats) {
  if (num_partials_ == 0) {
    return Status::InvalidArgument("no partial results to compose");
  }
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t partial_rows = partials_.rows.size();
  engine::ExecStats exec;
  Result<engine::QueryResult> result = engine::Executor::ExecuteOverRelation(
      *composition_, std::move(partials_), &exec);
  compose_micros_ += MicrosSince(t0);
  if (!result.ok()) return result;
  if (stats != nullptr) {
    stats->partial_rows = partial_rows;
    stats->output_rows = result->rows.size();
    stats->compose_exec = exec;
  }
  engine::ExecStats out = combined_;
  out.cpu_ops += exec.cpu_ops;
  out.tuples_output = result->rows.size();
  result->stats = out;
  return result;
}

}  // namespace apuama
