/// \file ledger.h
/// The per-layer cost ledger of a traced run.
///
/// While a Ledger is alive it installs an obs::TraceSession as the
/// process-wide session. The benchmark opens its own spans (Ledger::Span)
/// around every call it makes into a layer's public entry point; each
/// carries a per-instance id. The calls that a public entry point makes
/// internally (sched.dls, dvfs.stretch, dvfs.enumerate, sim.instance,
/// adaptive.reschedule, pool.job) are recorded by the program's existing
/// spans into the same session. Both kinds are B/E events on one clock,
/// so Build() recovers the span tree per thread: a span's parent is the
/// innermost span open on its thread, a program span inherits the
/// instance id of its nearest benchmark ancestor, and self time is
/// duration minus the children's durations.
///
/// The layer of a span is its name up to the first '.', except that
/// benchmark glue spans are named "perfbench.*" and count as
/// unattributed.

#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

namespace obs = actg::obs;

/// Instance id of spans that belong to no single instance.
inline constexpr std::int64_t kNoInstance = -1;

struct SpanRecord {
  std::string name;
  std::string layer;
  std::int64_t begin_us = 0;
  std::int64_t end_us = 0;
  int tid = 0;
  std::int64_t parent = -1;  ///< index into the span vector, -1 = root
  std::int64_t instance = kNoInstance;
  std::int64_t paths = -1;  ///< dvfs.enumerate: paths enumerated
  std::int64_t self_us = 0;
  double duration_us() const {
    return static_cast<double>(end_us - begin_us);
  }
};

struct SpanTree {
  std::vector<SpanRecord> spans;
  /// Spans whose interval leaves their parent's, or whose instance id
  /// differs from their parent's (both must be 0).
  std::size_t nesting_violations = 0;
  std::size_t instance_violations = 0;
  /// Spans still open when the session was read (must be 0).
  std::size_t unclosed = 0;

  /// Sum of self time per layer, ms.
  std::map<std::string, double> SelfMsByLayer() const;
  /// Sum of root-span durations over all threads, ms: the busy time
  /// every layer share is relative to.
  double BusyMs() const;
  /// Self time of spans named \p name, ms.
  double SelfMs(const std::string& name) const;
  /// Durations of spans named \p name, us.
  std::vector<double> Durations(const std::string& name) const;
  std::size_t CountOf(const std::string& name) const;
};

class Ledger {
 public:
  Ledger();
  ~Ledger();
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  /// A benchmark span: opened on construction, closed on destruction,
  /// on the calling thread.
  class Span {
   public:
    Span(const char* name, std::int64_t instance = kNoInstance);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    obs::TraceSession* session_;
    const char* name_;
  };

  /// Uninstalls the session and returns the span tree (valid once).
  SpanTree Finish();

 private:
  std::unique_ptr<obs::TraceSession> session_;
  std::unique_ptr<obs::SessionGuard> guard_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H
