#include "check/checker.hpp"

#include <sstream>
#include <utility>

#include "obs/trace.hpp"
#include "sim/memsys.hpp"

namespace capmem::check {

Checker::Checker(const sim::MachineConfig& cfg)
    : Checker(cfg, Options{}) {}

Checker::Checker(const sim::MachineConfig& cfg, Options opt)
    : opt_(opt),
      invariants_(cfg.active_tiles, cfg.cores(),
                  sim::rules_of(cfg.protocol)) {}

void Checker::absorb(std::vector<Violation>&& fresh) {
  for (Violation& v : fresh) {
    ++total_;
    if (trace_ != nullptr) {
      obs::TraceEvent e;
      e.kind = obs::EventKind::kCheckViolation;
      e.t = v.t;
      e.tid = v.tid;
      e.line = v.line;
      trace_->on_event(e);
    }
    if (stored_.size() < opt_.max_stored) stored_.push_back(std::move(v));
  }
}

void Checker::on_access(const sim::AccessRecord& rec) {
  std::vector<Violation> v;
  oracle_.observe(rec, v);
  if (!v.empty()) absorb(std::move(v));
}

void Checker::on_transition(sim::Line line, const sim::LineEntry& entry,
                            const sim::MemSystem& mem) {
  std::vector<Violation> v;
  invariants_.check_entry(line, entry, mem, v);
  ++transitions_;
  if (opt_.sweep_period > 0 &&
      transitions_ % static_cast<std::uint64_t>(opt_.sweep_period) == 0) {
    invariants_.sweep(mem, v);
  }
  if (!v.empty()) absorb(std::move(v));
}

void Checker::on_dir_lookup(int /*tid*/, sim::Line line, int home_tile,
                            Nanos /*t*/, Nanos /*start*/,
                            Nanos /*service*/) {
  std::vector<Violation> v;
  invariants_.note_home(line, home_tile, v);
  if (!v.empty()) absorb(std::move(v));
}

void Checker::on_flush(sim::Line line) { oracle_.on_flush(line); }

void Checker::on_drop(sim::Line line) { oracle_.on_drop(line); }

void Checker::final_sweep(const sim::MemSystem& mem) {
  std::vector<Violation> v;
  invariants_.sweep(mem, v);
  if (!v.empty()) absorb(std::move(v));
}

std::string Checker::report() const {
  if (ok()) return {};
  std::ostringstream os;
  os << total_ << " violation(s) over " << oracle_.accesses()
     << " accesses / " << transitions_ << " transitions:\n"
     << format_violations(stored_, opt_.max_stored);
  return os.str();
}

}  // namespace capmem::check
