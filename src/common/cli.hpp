// Minimal command-line option parsing for the bench and example binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--flag`. Usage
// errors (unknown options, positional arguments, malformed numbers, a value
// option given bare: last in argv or followed by another `--x`) make
// finish() print them with the full usage and exit(2), so typos in sweep
// scripts fail loudly without a crash.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/log.hpp"

namespace capmem {

class Cli {
 public:
  /// Parses argv. Malformed arguments are recorded and reported by
  /// finish() (options are declared by the get_* calls between
  /// construction and finish()).
  Cli(int argc, const char* const* argv);

  /// Declares and reads a string option with a default. The string, int
  /// and double readers reject a bare `--name` ("expects a value").
  std::string get_string(const std::string& name, std::string def,
                         const std::string& help = {});
  /// Declares and reads an integer option with a default. A value that is
  /// not entirely an integer is a usage error; the default is returned.
  std::int64_t get_int(const std::string& name, std::int64_t def,
                       const std::string& help = {});
  /// Declares and reads a floating-point option with a default (malformed
  /// values as for get_int).
  double get_double(const std::string& name, double def,
                    const std::string& help = {});
  /// Declares and reads a boolean flag (present => true, or --x=false).
  bool get_flag(const std::string& name, bool def = false,
                const std::string& help = {});
  /// Declares and reads the shared `--jobs` option: host worker threads for
  /// parallel experiment execution (exec::Pool). 0 resolves to the host's
  /// hardware concurrency; the default 1 is the serial reference path.
  /// Results are bit-identical for every value.
  int get_jobs(int def = 1);
  /// Declares and reads the shared `--log-level {error,warn,info,debug}`
  /// option. The flag overrides $CAPMEM_LOG; when absent the environment
  /// (default info) stands. Applies the level process-wide via
  /// set_log_level() and returns it.
  LogLevel get_log_level();

  /// Prints usage and exits(0) when --help was given. Otherwise checks that
  /// every supplied option was declared; on any usage error prints the
  /// errors and the usage to stderr and exits(2). Call once after all get_*
  /// calls.
  void finish();

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  struct Decl {
    std::string help;
    std::string def;
  };
  void print_usage(std::ostream& os) const;
  /// Value of a string/number option: null when absent, and null plus a
  /// usage error when it was given bare (only get_flag accepts that).
  const std::string* value_of(const std::string& name);

  std::string program_;
  std::map<std::string, std::string> values_;
  std::set<std::string> bare_;  ///< options given without a value
  std::map<std::string, Decl> declared_;
  std::vector<std::string> errors_;
  bool help_requested_ = false;
};

}  // namespace capmem
