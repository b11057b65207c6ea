#include "sql/settings.h"

#include <cstdlib>
#include <optional>
#include <string>

#include "common/string_util.h"

namespace apuama::sql {

namespace {

enum class ValueKind { kBool, kInt, kFraction, kLogLevel };

struct KnobDef {
  const char* name;
  Knob knob;
  ValueKind kind;
  int64_t lo = 0;  // kInt: inclusive bounds
  int64_t hi = 0;
};

constexpr KnobDef kKnobs[] = {
    {"enable_seqscan", Knob::kEnableSeqscan, ValueKind::kBool},
    {"exec_threads", Knob::kExecThreads, ValueKind::kInt, 1, 128},
    {"share_scans", Knob::kShareScans, ValueKind::kBool},
    {"result_cache", Knob::kResultCache, ValueKind::kBool},
    {"admission", Knob::kAdmission, ValueKind::kBool},
    {"slo_target_us", Knob::kSloTargetUs, ValueKind::kInt, 1,
     1'000'000'000},
    {"priority", Knob::kPriority, ValueKind::kInt, 0, 7},
    // Any signed 63-bit value.
    {"sample_seed", Knob::kSampleSeed, ValueKind::kInt, INT64_MIN / 2,
     INT64_MAX / 2},
    {"approx_error_target", Knob::kApproxErrorTarget, ValueKind::kFraction},
    {"trace", Knob::kTrace, ValueKind::kBool},
    {"log_level", Knob::kLogLevel, ValueKind::kLogLevel},
};

}  // namespace

Result<Setting> ParseSetting(const SetStmt& stmt) {
  const std::string name = ToLower(stmt.name);
  const KnobDef* def = nullptr;
  for (const KnobDef& d : kKnobs) {
    if (name == d.name) def = &d;
  }
  if (def == nullptr) return Status::NotFound("unknown setting: " + stmt.name);
  const std::string value = ToLower(stmt.value);
  // Every rejection names the accepted values — a mistyped knob value
  // should teach its own spelling.
  auto reject = [&](const std::string& accepted) -> Status {
    return Status::InvalidArgument("bad value for " + name + ": " +
                                   stmt.value + " (expected " + accepted +
                                   ")");
  };
  Setting s;
  s.knob = def->knob;
  switch (def->kind) {
    case ValueKind::kBool:
      if (value == "on" || value == "true" || value == "1") {
        s.on = true;
      } else if (value != "off" && value != "false" && value != "0") {
        return reject("one of: on, off, true, false, 1, 0");
      }
      return s;
    case ValueKind::kInt: {
      char* end = nullptr;
      const long long v = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || v < def->lo ||
          v > def->hi) {
        return reject("an integer in [" + std::to_string(def->lo) + ", " +
                      std::to_string(def->hi) + "]");
      }
      s.integer = v;
      return s;
    }
    case ValueKind::kFraction: {
      char* end = nullptr;
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(v >= 0.0) || v >= 1.0) {
        return reject("a relative half-width in [0, 1), 0 = no early exit");
      }
      s.real = v;
      return s;
    }
    case ValueKind::kLogLevel: {
      std::optional<LogLevel> level = ParseLogLevel(value);
      if (!level.has_value()) {
        return reject("one of: debug, info, warn, error, off");
      }
      s.level = *level;
      return s;
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace apuama::sql
