#include "obs/attr.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"

namespace capmem::obs::attr {

const char* to_string(TimeCat c) {
  switch (c) {
    case TimeCat::kCompute: return "compute";
    case TimeCat::kTimerWait: return "timer_wait";
    case TimeCat::kBarrierWait: return "barrier_wait";
    case TimeCat::kParkWait: return "park_wait";
    case TimeCat::kL1: return "access.l1";
    case TimeCat::kL2Tile: return "access.l2_tile";
    case TimeCat::kRemoteL2: return "access.remote_l2";
    case TimeCat::kDram: return "access.dram";
    case TimeCat::kMcdram: return "access.mcdram";
    case TimeCat::kMcCacheHit: return "access.mc_cache_hit";
    case TimeCat::kMcCacheMiss: return "access.mc_cache_miss";
    case TimeCat::kEndSlack: return "end_slack";
    case TimeCat::kUnattributed: return "unattributed";
    case TimeCat::kCount: break;
  }
  return "?";
}

const char* to_string(TransLabel l) {
  switch (l) {
    case TransLabel::kInvalidate: return "invalidate";
    case TransLabel::kUpgrade: return "upgrade";
    case TransLabel::kDowngrade: return "downgrade";
    case TransLabel::kShare: return "share";
    case TransLabel::kCount: break;
  }
  return "?";
}

namespace {

// Mirrors sim::TileState's enumerator order (coherence.hpp); attr is an
// obs-layer component and must not include sim headers, so the coupling is
// by position only and unknown values degrade to "?".
const char* state_name(int s) {
  static const char* kNames[Ledger::kTransStates] = {
      "I", "S", "E", "M", "F", "O", "?", "?"};
  return (s >= 0 && s < Ledger::kTransStates) ? kNames[s] : "?";
}

TransLabel label_of(const char* label) {
  if (label == nullptr) return TransLabel::kCount;
  switch (label[0]) {
    case 'i': return TransLabel::kInvalidate;
    case 'u': return TransLabel::kUpgrade;
    case 'd': return TransLabel::kDowngrade;
    case 's': return TransLabel::kShare;
    default: return TransLabel::kCount;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Ledger

Ledger::Ledger(int tiles) : tiles_(std::max(tiles, 1)) {
  const std::size_t ncells =
      static_cast<std::size_t>(TimeCat::kCount) *
      static_cast<std::size_t>(tiles_);
  cells_.assign(ncells, 0);
  counts_.assign(ncells, 0);
  hop_v_tile_.assign(static_cast<std::size_t>(tiles_), 0);
  hop_h_tile_.assign(static_cast<std::size_t>(tiles_), 0);
  dir_lookups_.assign(static_cast<std::size_t>(tiles_), 0);
}

void Ledger::ensure_task(int tid) {
  CAPMEM_DCHECK(tid >= 0);
  const std::size_t need = static_cast<std::size_t>(tid) + 1;
  if (mirror_.size() < need) {
    mirror_.resize(need, 0);
    spawn_.resize(need, 0);
    final_.resize(need, 0);
    task_tile_.resize(need, 0);
    edges_.resize(need);
  }
}

void Ledger::on_spawn(int tid, int tile, double clock) {
  ensure_task(tid);
  const Ticks t = to_ticks(clock);
  mirror_[static_cast<std::size_t>(tid)] = t;
  spawn_[static_cast<std::size_t>(tid)] = t;
  task_tile_[static_cast<std::size_t>(tid)] =
      tile < 0 || tile >= tiles_ ? 0 : tile;
}

void Ledger::on_wake_edge(int woken, int writer, std::uint64_t key,
                          double t) {
  if (writer < 0 || writer == woken) return;
  ensure_task(woken);
  ensure_task(writer);
  edges_[static_cast<std::size_t>(woken)].push_back(
      Edge{writer, t, key, /*kind=*/0});
}

void Ledger::on_sync_edge(int tid, int releaser, double t) {
  if (releaser < 0 || releaser == tid) return;
  ensure_task(tid);
  ensure_task(releaser);
  edges_[static_cast<std::size_t>(tid)].push_back(
      Edge{releaser, t, 0, /*kind=*/1});
}

void Ledger::count_access(int tile, TimeCat level_cat) {
  if (tile < 0 || tile >= tiles_) tile = 0;
  ++counts_[cell_idx(level_cat, tile)];
}

void Ledger::add_hops(int tile, int vertical, int horizontal) {
  if (tile < 0 || tile >= tiles_) tile = 0;
  hops_v_ += static_cast<std::uint64_t>(vertical);
  hops_h_ += static_cast<std::uint64_t>(horizontal);
  hop_v_tile_[static_cast<std::size_t>(tile)] +=
      static_cast<std::uint64_t>(vertical);
  hop_h_tile_[static_cast<std::size_t>(tile)] +=
      static_cast<std::uint64_t>(horizontal);
}

void Ledger::add_dir_lookup(int home_tile, double queue_ns,
                            double service_ns) {
  if (home_tile < 0 || home_tile >= tiles_) home_tile = 0;
  ++dir_lookups_[static_cast<std::size_t>(home_tile)];
  cha_queue_ns_ += queue_ns;
  cha_service_ns_ += service_ns;
}

void Ledger::add_transition(int from_state, int to_state,
                            const char* label) {
  const TransLabel l = label_of(label);
  if (l == TransLabel::kCount) return;
  from_state = std::clamp(from_state, 0, kTransStates - 1);
  to_state = std::clamp(to_state, 0, kTransStates - 1);
  ++trans_[static_cast<int>(l)][from_state][to_state];
}

void Ledger::set_channel_busy(double ddr_ns, double mcdram_ns) {
  ddr_busy_ns_ = ddr_ns;
  mcdram_busy_ns_ = mcdram_ns;
}

void Ledger::finalize(double end_time_ns) {
  CAPMEM_CHECK_MSG(!finalized_, "attr::Ledger finalized twice");
  end_time_ns_ = end_time_ns;
  // Snapshot final clocks (the critical-path anchor) before the end-slack
  // charge moves every mirror to the engine end time.
  final_ = mirror_;
  for (int tid = 0; tid < tasks(); ++tid) {
    charge(tid, TimeCat::kEndSlack,
           to_ns(mirror_[static_cast<std::size_t>(tid)]), end_time_ns);
  }
  finalized_ = true;
}

Ticks Ledger::total(TimeCat c) const {
  Ticks sum = 0;
  for (int t = 0; t < tiles_; ++t) sum += cells_[cell_idx(c, t)];
  return sum;
}

Ticks Ledger::total_all() const {
  Ticks sum = 0;
  for (Ticks v : cells_) sum += v;
  return sum;
}

Ticks Ledger::expected_total() const {
  const Ticks end = to_ticks(end_time_ns_);
  Ticks sum = 0;
  for (Ticks s : spawn_) sum += end - s;
  return sum;
}

std::uint64_t Ledger::access_count_total(TimeCat c) const {
  std::uint64_t sum = 0;
  for (int t = 0; t < tiles_; ++t) sum += counts_[cell_idx(c, t)];
  return sum;
}

std::uint64_t Ledger::dir_lookups_total() const {
  std::uint64_t sum = 0;
  for (std::uint64_t v : dir_lookups_) sum += v;
  return sum;
}

std::uint64_t Ledger::transition(TransLabel l, int from, int to) const {
  if (l == TransLabel::kCount) return 0;
  if (from < 0 || from >= kTransStates || to < 0 || to >= kTransStates) {
    return 0;
  }
  return trans_[static_cast<int>(l)][from][to];
}

std::vector<PathLink> Ledger::critical_path(std::size_t max_links) const {
  std::vector<PathLink> links;
  if (!finalized_ || tasks() == 0) return links;
  // Anchor: the task whose own work ends last (ties: smallest tid, so the
  // walk is deterministic).
  int cur = 0;
  for (int tid = 1; tid < tasks(); ++tid) {
    if (final_[static_cast<std::size_t>(tid)] >
        final_[static_cast<std::size_t>(cur)]) {
      cur = tid;
    }
  }
  double t_cur = to_ns(final_[static_cast<std::size_t>(cur)]);
  while (links.size() < max_links) {
    // Latest dependency resolved at or before the current frontier. Edges
    // are appended in nondecreasing time per task, so scan from the back.
    const std::vector<Edge>& es = edges_[static_cast<std::size_t>(cur)];
    const Edge* best = nullptr;
    for (auto it = es.rbegin(); it != es.rend(); ++it) {
      if (it->t <= t_cur) {
        best = &*it;
        break;
      }
    }
    if (best == nullptr) break;
    PathLink link;
    link.tid = cur;
    link.pred = best->pred;
    link.tile = task_tile_[static_cast<std::size_t>(cur)];
    link.pred_tile = task_tile_[static_cast<std::size_t>(best->pred)];
    link.t = best->t;
    link.dur = t_cur - best->t;
    link.kind = best->kind == 0 ? "wake" : "sync";
    link.key = best->key;
    links.push_back(link);
    // Strictly-decreasing frontier bounds the walk even if a zero-length
    // dependency chain loops back through the same task.
    const double next_t =
        best->t < t_cur ? best->t
                        : std::nextafter(best->t, -1.0);
    cur = best->pred;
    t_cur = next_t;
    if (t_cur < 0) break;
  }
  std::reverse(links.begin(), links.end());
  return links;
}

// ---------------------------------------------------------------------------
// Sink

void Sink::merge(const Ledger& l, const std::string& label) {
  CAPMEM_CHECK_MSG(l.finalized(),
                   "attr::Sink::merge on a ledger that was not finalized");
  CAPMEM_CHECK_MSG(
      l.conserved(),
      "attribution conservation violated for '"
          << label << "': sum of category cells = " << l.total_all()
          << " ticks, expected sum of task lifetimes = "
          << l.expected_total() << " ticks (end = " << l.end_time_ns()
          << " ns, " << l.tasks() << " task(s))");
  std::lock_guard<std::mutex> lk(mu_);
  ++machines_;
  tasks_ += static_cast<std::uint64_t>(l.tasks());
  total_ += l.total_all();
  expected_ += l.expected_total();
  if (l.tiles() > tiles_) {
    // Re-layout [cat][tile] with the wider tile count.
    std::vector<Ticks> wider(
        static_cast<std::size_t>(TimeCat::kCount) *
            static_cast<std::size_t>(l.tiles()),
        0);
    for (int c = 0; c < static_cast<int>(TimeCat::kCount); ++c) {
      for (int t = 0; t < tiles_; ++t) {
        wider[static_cast<std::size_t>(c) *
                  static_cast<std::size_t>(l.tiles()) +
              static_cast<std::size_t>(t)] =
            tile_time_[static_cast<std::size_t>(c) *
                           static_cast<std::size_t>(tiles_) +
                       static_cast<std::size_t>(t)];
      }
    }
    tile_time_ = std::move(wider);
    tiles_ = l.tiles();
  }
  LabelAgg& agg = by_label_[label];
  ++agg.machines;
  for (int c = 0; c < static_cast<int>(TimeCat::kCount); ++c) {
    const TimeCat cat = static_cast<TimeCat>(c);
    const Ticks tt = l.total(cat);
    time_[c] += tt;
    agg.time[c] += tt;
    const std::uint64_t cc = l.access_count_total(cat);
    counts_[c] += cc;
    agg.counts[c] += cc;
    for (int t = 0; t < l.tiles(); ++t) {
      tile_time_[static_cast<std::size_t>(c) *
                     static_cast<std::size_t>(tiles_) +
                 static_cast<std::size_t>(t)] += l.cell(cat, t);
    }
  }
  hops_v_ += l.hops_vertical();
  hops_h_ += l.hops_horizontal();
  dir_lookups_ += l.dir_lookups_total();
  cha_queue_ns_ += l.cha_queue_ns();
  cha_service_ns_ += l.cha_service_ns();
  ddr_busy_ns_ += l.ddr_busy_ns();
  mcdram_busy_ns_ += l.mcdram_busy_ns();
  for (int li = 0; li < static_cast<int>(TransLabel::kCount); ++li) {
    for (int f = 0; f < Ledger::kTransStates; ++f) {
      for (int t = 0; t < Ledger::kTransStates; ++t) {
        const std::uint64_t n =
            l.transition(static_cast<TransLabel>(li), f, t);
        if (n == 0) continue;
        std::string key = state_name(f);
        key += "->";
        key += state_name(t);
        key += ' ';
        key += to_string(static_cast<TransLabel>(li));
        transitions_[key] += n;
      }
    }
  }
  // Keep the critical path of the longest-running machine: it is the one a
  // collective figure's bound comes from. Ties keep the first merged (the
  // merge order under --jobs is nondeterministic, but ties across distinct
  // machines are vanishingly rare and the report labels its source).
  if (l.end_time_ns() > crit_end_ns_) {
    std::vector<PathLink> p = l.critical_path();
    if (!p.empty()) {
      crit_path_ = std::move(p);
      crit_end_ns_ = l.end_time_ns();
      crit_label_ = label;
    }
  }
}

std::uint64_t Sink::machines() const {
  std::lock_guard<std::mutex> lk(mu_);
  return machines_;
}

std::uint64_t Sink::tasks() const {
  std::lock_guard<std::mutex> lk(mu_);
  return tasks_;
}

Ticks Sink::total_ticks() const {
  std::lock_guard<std::mutex> lk(mu_);
  return total_;
}

Ticks Sink::expected_ticks() const {
  std::lock_guard<std::mutex> lk(mu_);
  return expected_;
}

Ticks Sink::unattributed_ticks() const {
  std::lock_guard<std::mutex> lk(mu_);
  return time_[static_cast<int>(TimeCat::kUnattributed)];
}

Ticks Sink::time(TimeCat c) const {
  std::lock_guard<std::mutex> lk(mu_);
  return time_[static_cast<int>(c)];
}

std::uint64_t Sink::access_count(TimeCat c) const {
  std::lock_guard<std::mutex> lk(mu_);
  return counts_[static_cast<int>(c)];
}

double Sink::mean_access_ns(TimeCat c) const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t n = counts_[static_cast<int>(c)];
  if (n == 0) return 0;
  return to_ns(time_[static_cast<int>(c)]) / static_cast<double>(n);
}

std::uint64_t Sink::hops_vertical() const {
  std::lock_guard<std::mutex> lk(mu_);
  return hops_v_;
}

std::uint64_t Sink::hops_horizontal() const {
  std::lock_guard<std::mutex> lk(mu_);
  return hops_h_;
}

std::vector<PathLink> Sink::critical_path() const {
  std::lock_guard<std::mutex> lk(mu_);
  return crit_path_;
}

void Sink::add_crossval(const std::string& term, double fitted_ns,
                        TimeCat cat) {
  std::lock_guard<std::mutex> lk(mu_);
  crossval_.push_back(CrossRow{term, fitted_ns, cat, 0, 0});
}

std::vector<Sink::CrossRow> Sink::crossval() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<CrossRow> rows = crossval_;
  for (CrossRow& r : rows) {
    const int c = static_cast<int>(r.cat);
    r.samples = counts_[c];
    r.measured_ns = r.samples == 0
                        ? 0
                        : to_ns(time_[c]) / static_cast<double>(r.samples);
  }
  return rows;
}

void Sink::dump_json(std::ostream& os, double band) const {
  // crossval() takes the lock itself; compute before locking.
  const std::vector<CrossRow> xval = crossval();
  std::lock_guard<std::mutex> lk(mu_);
  os << "{\n  \"schema\": \"capmem.attr.v1\",\n";
  os << "  \"machines\": " << machines_ << ",\n";
  os << "  \"tasks\": " << tasks_ << ",\n";
  os << "  \"conservation\": {\n";
  os << "    \"total_ticks\": " << total_ << ",\n";
  os << "    \"expected_ticks\": " << expected_ << ",\n";
  os << "    \"unattributed_ticks\": "
     << time_[static_cast<int>(TimeCat::kUnattributed)] << ",\n";
  os << "    \"exact\": " << (total_ == expected_ ? "true" : "false")
     << "\n  },\n";
  os << "  \"time_ns\": {\n";
  for (int c = 0; c < static_cast<int>(TimeCat::kCount); ++c) {
    os << "    \"" << to_string(static_cast<TimeCat>(c))
       << "\": " << to_ns(time_[c])
       << (c + 1 < static_cast<int>(TimeCat::kCount) ? ",\n" : "\n");
  }
  os << "  },\n";
  os << "  \"time_by_tile_ns\": {\n";
  for (int c = 0; c < static_cast<int>(TimeCat::kCount); ++c) {
    os << "    \"" << to_string(static_cast<TimeCat>(c)) << "\": [";
    for (int t = 0; t < tiles_; ++t) {
      os << (t == 0 ? "" : ", ")
         << to_ns(tile_time_[static_cast<std::size_t>(c) *
                                 static_cast<std::size_t>(tiles_) +
                             static_cast<std::size_t>(t)]);
    }
    os << "]" << (c + 1 < static_cast<int>(TimeCat::kCount) ? ",\n" : "\n");
  }
  os << "  },\n";
  os << "  \"access_counts\": {\n";
  bool first = true;
  for (int c = 0; c < static_cast<int>(TimeCat::kCount); ++c) {
    if (counts_[c] == 0) continue;
    os << (first ? "" : ",\n") << "    \""
       << to_string(static_cast<TimeCat>(c)) << "\": " << counts_[c];
    first = false;
  }
  os << "\n  },\n";
  os << "  \"access_mean_ns\": {\n";
  first = true;
  for (int c = 0; c < static_cast<int>(TimeCat::kCount); ++c) {
    if (counts_[c] == 0) continue;
    os << (first ? "" : ",\n") << "    \""
       << to_string(static_cast<TimeCat>(c))
       << "\": " << to_ns(time_[c]) / static_cast<double>(counts_[c]);
    first = false;
  }
  os << "\n  },\n";
  os << "  \"traffic\": {\n";
  os << "    \"mesh_hops_vertical\": " << hops_v_ << ",\n";
  os << "    \"mesh_hops_horizontal\": " << hops_h_ << ",\n";
  os << "    \"dir_lookups\": " << dir_lookups_ << ",\n";
  os << "    \"cha_queue_ns\": " << cha_queue_ns_ << ",\n";
  os << "    \"cha_service_ns\": " << cha_service_ns_ << ",\n";
  os << "    \"channel_busy_ns\": {\"ddr\": " << ddr_busy_ns_
     << ", \"mcdram\": " << mcdram_busy_ns_ << "},\n";
  os << "    \"coherence_transitions\": {";
  first = true;
  for (const auto& [key, n] : transitions_) {
    os << (first ? "" : ", ") << "\"" << key << "\": " << n;
    first = false;
  }
  os << "}\n  },\n";
  os << "  \"by_config\": {\n";
  first = true;
  for (const auto& [label, agg] : by_label_) {
    os << (first ? "" : ",\n") << "    \"" << label
       << "\": {\"machines\": " << agg.machines << ", \"time_ns\": {";
    bool f2 = true;
    for (int c = 0; c < static_cast<int>(TimeCat::kCount); ++c) {
      if (agg.time[c] == 0) continue;
      os << (f2 ? "" : ", ") << "\"" << to_string(static_cast<TimeCat>(c))
         << "\": " << to_ns(agg.time[c]);
      f2 = false;
    }
    os << "}}";
    first = false;
  }
  os << "\n  },\n";
  os << "  \"crossval\": {\n    \"band\": " << band << ",\n    \"rows\": [";
  first = true;
  for (const CrossRow& r : xval) {
    const double ratio =
        r.measured_ns > 0 ? r.fitted_ns / r.measured_ns : 0;
    const bool within =
        r.samples > 0 && ratio >= 1 - band && ratio <= 1 + band;
    os << (first ? "\n" : ",\n") << "      {\"term\": \"" << r.term
       << "\", \"category\": \"" << to_string(r.cat)
       << "\", \"fitted_ns\": " << r.fitted_ns
       << ", \"measured_ns\": " << r.measured_ns
       << ", \"samples\": " << r.samples << ", \"ratio\": " << ratio
       << ", \"within_band\": " << (within ? "true" : "false") << "}";
    first = false;
  }
  os << (first ? "" : "\n    ") << "]\n  },\n";
  os << "  \"critical_path\": {\n";
  os << "    \"machine\": \"" << crit_label_ << "\",\n";
  os << "    \"virt_ns\": " << (crit_end_ns_ < 0 ? 0.0 : crit_end_ns_)
     << ",\n";
  os << "    \"links\": [";
  first = true;
  for (const PathLink& l : crit_path_) {
    os << (first ? "\n" : ",\n") << "      {\"tid\": " << l.tid
       << ", \"tile\": " << l.tile << ", \"pred\": " << l.pred
       << ", \"pred_tile\": " << l.pred_tile << ", \"kind\": \"" << l.kind
       << "\", \"t_ns\": " << l.t << ", \"dur_ns\": " << l.dur
       << ", \"line\": " << l.key << "}";
    first = false;
  }
  os << (first ? "" : "\n    ") << "]\n  }\n}\n";
}

}  // namespace capmem::obs::attr
