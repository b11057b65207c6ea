// The one SET grammar: every session knob's name, the values it
// accepts and the error a bad value gets. The controller, the Apuama
// connection and the node each parse a SET here and act only on the
// knobs they own (docs/sql_dialect.md lists which layer acts on which).
#ifndef APUAMA_SQL_SETTINGS_H_
#define APUAMA_SQL_SETTINGS_H_

#include <cstdint>

#include "common/logging.h"
#include "common/status.h"
#include "sql/ast.h"

namespace apuama::sql {

enum class Knob {
  kEnableSeqscan,      // node: forced-index sub-queries (paper §3)
  kExecThreads,        // node: intra-node morsel threads
  kShareScans,         // controller: coalesces identical concurrent reads
  kResultCache,        // engine: versioned result cache
  kAdmission,          // controller: SLO admission ladder on/off
  kSloTargetUs,        // controller: default SLO deadline
  kPriority,           // controller: default priority class
  kSampleSeed,         // engine: seed of the next scramble build
  kApproxErrorTarget,  // engine: APPROX early-exit half-width
  kTrace,              // process: the global tracer
  kLogLevel,           // process: the global log threshold
};

/// One validated SET: the knob plus its typed value. Only the field
/// matching the knob's value type is meaningful.
struct Setting {
  Knob knob = Knob::kEnableSeqscan;
  bool on = false;                   // boolean knobs
  int64_t integer = 0;               // integer knobs
  double real = 0.0;                 // approx_error_target
  LogLevel level = LogLevel::kInfo;  // log_level
};

/// Validates `SET name = value`. An unknown name is NotFound
/// ("unknown setting: ..."); a bad value is InvalidArgument naming
/// the knob and the values it accepts.
Result<Setting> ParseSetting(const SetStmt& stmt);

}  // namespace apuama::sql

#endif  // APUAMA_SQL_SETTINGS_H_
