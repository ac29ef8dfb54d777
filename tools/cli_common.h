// Flag-parsing helpers shared by the command-line tools.
//
// All parse errors throw UsageError; each tool catches it in run_main and
// routes the message through its own usage() printer (usage text + exit
// 2). Count-valued flags go through parse_count, which rejects negatives
// instead of letting them wrap through a size_t cast.
#pragma once

#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace staleflow::cli {

/// A bad command line: the message is shown above the usage text.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parses "--key value" pairs from args[from..]; flags listed in
/// `booleans` take no value and map to "1".
inline std::map<std::string, std::string> parse_flags(
    const std::vector<std::string>& args, std::size_t from,
    const std::set<std::string>& booleans) {
  std::map<std::string, std::string> flags;
  for (std::size_t i = from; i < args.size(); ++i) {
    if (args[i].rfind("--", 0) != 0) {
      throw UsageError("unexpected argument " + args[i]);
    }
    const std::string key = args[i].substr(2);
    if (booleans.contains(key)) {
      flags[key] = "1";
    } else {
      if (i + 1 >= args.size()) throw UsageError("--" + key + " needs a value");
      flags[key] = args[++i];
    }
  }
  return flags;
}

/// Splits "a,b,c" into {"a","b","c"}, dropping empty items. The
/// delimiter is configurable ("a;b" with ';' — e.g. --tenants specs whose
/// items themselves contain commas).
inline std::vector<std::string> split_list(const std::string& text,
                                           char delimiter = ',') {
  std::vector<std::string> out;
  std::istringstream stream(text);
  std::string item;
  while (std::getline(stream, item, delimiter)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// True when std::stod/std::stoll would silently skip leading space
/// (" 5", "\t5"): a flag value with embedded whitespace is a quoting
/// accident, not a number — reject it instead of guessing.
inline bool has_leading_space(const std::string& text) {
  return !text.empty() && std::isspace(static_cast<unsigned char>(text[0]));
}

/// Finite double. Rejects partial parses ("1.5x"), leading whitespace,
/// out-of-range values, and the inf/nan spellings std::stod accepts —
/// no flag in these tools means anything sane at infinity.
inline double parse_number(const std::string& text, const std::string& what) {
  try {
    if (has_leading_space(text)) throw std::invalid_argument(text);
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    if (!std::isfinite(value)) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    throw UsageError("bad number for " + what + ": " + text);
  }
}

inline long long parse_integer(const std::string& text,
                               const std::string& what) {
  try {
    if (has_leading_space(text)) throw std::invalid_argument(text);
    std::size_t used = 0;
    const long long value = std::stoll(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    throw UsageError("bad integer for " + what + ": " + text);
  }
}

/// Non-negative integer; "--epochs -1" is an error, not a 2^64 wrap.
inline std::size_t parse_count(const std::string& text,
                               const std::string& what) {
  const long long value = parse_integer(text, what);
  if (value < 0) throw UsageError(what + " must be >= 0, got " + text);
  return static_cast<std::size_t>(value);
}

/// count / seconds without the div-by-zero / inf hazards of a first
/// progress tick landing inside the clock's resolution: any elapsed
/// interval under a microsecond (or a non-finite quotient) reports 0.0
/// — "no rate yet" — instead of inf.
inline double safe_rate(double count, double seconds) {
  if (!(seconds > 1e-6)) return 0.0;
  const double rate = count / seconds;
  return std::isfinite(rate) ? rate : 0.0;
}

/// The recovery flags a serving tool accepts: `--wal <path>` starts a
/// fresh write-ahead epoch log, `--resume <path>` continues a crashed run
/// from one. Mutually exclusive — a resumed run appends to the SAME WAL.
struct RecoveryFlags {
  std::string wal;
  std::string resume;
  bool fresh_wal() const noexcept { return !wal.empty(); }
  bool resuming() const noexcept { return !resume.empty(); }
};

/// `--resume <path>` must name an existing, readable file.
inline void require_readable(const std::string& path,
                             const std::string& what) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) {
    throw UsageError("cannot read " + what + " file '" + path + "'");
  }
}

/// `--wal <path>` must be creatable/appendable NOW — failing at epoch 0
/// beats failing at the first cut, minutes into a run. The append-mode
/// probe creates a missing file but never touches existing bytes.
inline void require_writable(const std::string& path,
                             const std::string& what) {
  std::ofstream probe(path, std::ios::binary | std::ios::app);
  if (!probe) {
    throw UsageError("cannot write " + what + " path '" + path + "'");
  }
}

/// Validates a parsed RecoveryFlags pair against the rest of the command
/// line. `config_keys` lists the tool's run-configuration flags
/// (scenario, seed, epochs, ...): `--resume` takes the ENTIRE
/// configuration from the WAL header, so passing any of them alongside it
/// is a conflict, not an override — silently ignoring a `--seed` that
/// disagrees with the WAL would misreport what the run did. Runtime knobs
/// (threads, csv, report-every, quiet) stay legal; they are not dynamics
/// configuration.
inline void validate_recovery_flags(
    const RecoveryFlags& recovery,
    const std::map<std::string, std::string>& flags,
    const std::set<std::string>& config_keys) {
  if (recovery.fresh_wal() && recovery.resuming()) {
    throw UsageError(
        "--wal and --resume are mutually exclusive (a resumed run appends "
        "to the WAL it resumes from)");
  }
  if (recovery.resuming()) {
    for (const auto& [key, value] : flags) {
      if (config_keys.contains(key)) {
        throw UsageError("--" + key +
                         " conflicts with --resume: the run configuration "
                         "comes from the WAL header");
      }
    }
    require_readable(recovery.resume, "--resume");
  }
  if (recovery.fresh_wal()) {
    require_writable(recovery.wal, "--wal");
  }
}

/// Rejects a value not present in `valid`, listing the catalogue.
inline void require_known(const std::string& value,
                          const std::vector<std::string>& valid,
                          const std::string& what) {
  for (const std::string& have : valid) {
    if (have == value) return;
  }
  std::string message = "unknown " + what + " '" + value + "'; valid:";
  for (const std::string& have : valid) message += ' ' + have;
  throw UsageError(message);
}

}  // namespace staleflow::cli
