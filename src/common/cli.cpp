#include "common/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <thread>

namespace capmem {

namespace {

/// Runs a strtoll/strtod-style `parse` over all of `v`: nullopt unless it
/// consumed every character and stayed in range.
template <class T, class Parse>
std::optional<T> parse_whole(const std::string& v, Parse parse) {
  char* end = nullptr;
  errno = 0;
  const T x = parse(v.c_str(), &end);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE) return std::nullopt;
  return x;
}

}  // namespace

const std::string* Cli::value_of(const std::string& name) {
  const auto it = values_.find(name);
  if (it == values_.end()) return nullptr;
  if (bare_.count(name) != 0) {
    errors_.push_back("--" + name + " expects a value");
    return nullptr;
  }
  return &it->second;
}

Cli::Cli(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "prog";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      errors_.push_back("unexpected argument '" + arg +
                        "' (options start with --)");
      continue;
    }
    arg = arg.substr(2);
    if (arg == "help") {
      help_requested_ = true;
      continue;
    }
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      bare_.erase(arg.substr(0, eq));
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
      bare_.erase(arg);
    } else {
      values_[arg] = "true";  // bare flag
      bare_.insert(arg);
    }
  }
}

std::string Cli::get_string(const std::string& name, std::string def,
                            const std::string& help) {
  declared_[name] = {help, def};
  const std::string* v = value_of(name);
  return v == nullptr ? def : *v;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def,
                          const std::string& help) {
  declared_[name] = {help, std::to_string(def)};
  const std::string* raw = value_of(name);
  if (raw == nullptr) return def;
  const auto v = parse_whole<long long>(
      *raw,
      [](const char* s, char** end) { return std::strtoll(s, end, 10); });
  if (!v) {
    errors_.push_back("--" + name + " expects an integer, got '" + *raw + "'");
    return def;
  }
  return *v;
}

double Cli::get_double(const std::string& name, double def,
                       const std::string& help) {
  declared_[name] = {help, std::to_string(def)};
  const std::string* raw = value_of(name);
  if (raw == nullptr) return def;
  const auto v = parse_whole<double>(
      *raw, [](const char* s, char** end) { return std::strtod(s, end); });
  if (!v) {
    errors_.push_back("--" + name + " expects a number, got '" + *raw + "'");
    return def;
  }
  return *v;
}

bool Cli::get_flag(const std::string& name, bool def,
                   const std::string& help) {
  declared_[name] = {help, def ? "true" : "false"};
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second != "false" && it->second != "0";
}

int Cli::get_jobs(int def) {
  const std::int64_t v = get_int(
      "jobs", def,
      "parallel experiment jobs (0 = all hardware threads); results are "
      "identical for every value");
  if (v <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  if (v > std::numeric_limits<int>::max()) {
    errors_.push_back("--jobs " + std::to_string(v) + " exceeds " +
                      std::to_string(std::numeric_limits<int>::max()));
    return def;
  }
  return static_cast<int>(v);
}

LogLevel Cli::get_log_level() {
  const std::string s = get_string(
      "log-level", "",
      "stderr log verbosity: error, warn, info, debug (default: $CAPMEM_LOG "
      "or info)");
  if (s.empty()) return log_level();
  const LogLevel level = log_level_from_string(s);
  set_log_level(level);
  return level;
}

void Cli::print_usage(std::ostream& os) const {
  os << "usage: " << program_ << " [options]\n";
  for (const auto& [name, decl] : declared_) {
    os << "  --" << name << " (default: " << decl.def << ")";
    if (!decl.help.empty()) os << "  " << decl.help;
    os << '\n';
  }
}

void Cli::finish() {
  if (help_requested_) {
    print_usage(std::cout);
    std::exit(0);
  }
  for (const auto& [name, value] : values_) {
    (void)value;
    if (declared_.count(name) == 0) {
      errors_.push_back("unknown option --" + name);
    }
  }
  if (errors_.empty()) return;
  for (const std::string& e : errors_) {
    std::cerr << program_ << ": " << e << '\n';
  }
  print_usage(std::cerr);
  std::exit(2);
}

}  // namespace capmem
