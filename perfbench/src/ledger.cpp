#include "ledger.h"

#include <stdexcept>

namespace perfbench {

namespace {

constexpr const char* kOwnCategory = "perfbench";

/// Layer of a span name: the prefix before the first '.', with the
/// pool's job spans filed under the runtime module that owns the pool.
std::string LayerOf(const std::string& name) {
  const std::string prefix = name.substr(0, name.find('.'));
  return prefix == "pool" ? "runtime" : prefix;
}

std::int64_t IntArgOf(const obs::TraceEvent& event, const char* key) {
  for (const obs::TraceArg& arg : event.args) {
    if (arg.key == key) return std::stoll(arg.value);
  }
  return -1;
}

}  // namespace

std::map<std::string, double> SpanTree::SelfMsByLayer() const {
  std::map<std::string, double> out;
  for (const SpanRecord& span : spans) {
    out[span.layer] += static_cast<double>(span.self_us) / 1000.0;
  }
  return out;
}

double SpanTree::BusyMs() const {
  double us = 0.0;
  for (const SpanRecord& span : spans) {
    if (span.parent < 0) us += span.duration_us();
  }
  return us / 1000.0;
}

double SpanTree::SelfMs(const std::string& name) const {
  double us = 0.0;
  for (const SpanRecord& span : spans) {
    if (span.name == name) us += static_cast<double>(span.self_us);
  }
  return us / 1000.0;
}

std::vector<double> SpanTree::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans) {
    if (span.name == name) out.push_back(span.duration_us());
  }
  return out;
}

std::size_t SpanTree::CountOf(const std::string& name) const {
  std::size_t n = 0;
  for (const SpanRecord& span : spans) n += span.name == name ? 1 : 0;
  return n;
}

Ledger::Ledger()
    : session_(std::make_unique<obs::TraceSession>()),
      guard_(std::make_unique<obs::SessionGuard>(session_.get())) {}

Ledger::~Ledger() = default;

Ledger::Span::Span(const char* name, std::int64_t instance)
    : session_(obs::TraceSession::Current()), name_(name) {
  if (session_ != nullptr) {
    session_->BeginSpan(name_, kOwnCategory,
                        {obs::IntArg("instance", instance)});
  }
}

Ledger::Span::~Span() {
  if (session_ != nullptr) session_->EndSpan(name_, kOwnCategory);
}

SpanTree Ledger::Finish() {
  if (guard_ == nullptr) throw std::logic_error("Ledger::Finish twice");
  guard_.reset();
  SpanTree tree;
  std::map<int, std::vector<std::int64_t>> open;  // per-thread stacks
  for (const obs::TraceEvent& event : session_->Events()) {
    if (event.phase == obs::EventPhase::kBegin) {
      std::vector<std::int64_t>& stack = open[event.tid];
      SpanRecord span;
      span.name = event.name;
      span.layer = LayerOf(event.name);
      span.begin_us = static_cast<std::int64_t>(event.ts);
      span.tid = event.tid;
      span.parent = stack.empty() ? -1 : stack.back();
      const bool own = event.category == kOwnCategory;
      const std::int64_t inherited =
          span.parent < 0 ? kNoInstance
                          : tree.spans[static_cast<std::size_t>(span.parent)]
                                .instance;
      span.instance = own ? IntArgOf(event, "instance") : inherited;
      // A span of one instance may sit inside a span of no instance
      // (a shard, a round), never inside another instance's span.
      if (own && inherited != kNoInstance &&
          span.instance != inherited) {
        ++tree.instance_violations;
      }
      stack.push_back(static_cast<std::int64_t>(tree.spans.size()));
      tree.spans.push_back(std::move(span));
    } else if (event.phase == obs::EventPhase::kEnd) {
      std::vector<std::int64_t>& stack = open[event.tid];
      if (stack.empty() ||
          tree.spans[static_cast<std::size_t>(stack.back())].name !=
              event.name) {
        ++tree.nesting_violations;
        continue;
      }
      SpanRecord& span = tree.spans[static_cast<std::size_t>(stack.back())];
      stack.pop_back();
      span.end_us = static_cast<std::int64_t>(event.ts);
      span.paths = IntArgOf(event, "paths");
    }
  }
  for (const auto& [tid, stack] : open) tree.unclosed += stack.size();

  for (SpanRecord& span : tree.spans) {
    span.self_us = span.end_us - span.begin_us;
  }
  for (const SpanRecord& span : tree.spans) {
    if (span.parent < 0) continue;
    SpanRecord& parent = tree.spans[static_cast<std::size_t>(span.parent)];
    if (span.begin_us < parent.begin_us ||
        (parent.end_us != 0 && span.end_us > parent.end_us)) {
      ++tree.nesting_violations;
    }
    parent.self_us -= span.end_us - span.begin_us;
  }
  session_.reset();
  return tree;
}

}  // namespace perfbench
