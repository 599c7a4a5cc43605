// GARLI-style configuration parsing. GARLI reads an INI-like "garli.conf"
// with [sections], key = value pairs, # / ; comments. The portal's
// validation mode and the phylo engine's job specs both round-trip through
// this format, mirroring how the real system shipped a garli.conf to every
// compute node.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lattice::util {

class IniFile {
 public:
  /// Parse from text. Throws std::runtime_error with a line number on
  /// malformed input (a key=value line outside any section, or a line that
  /// is neither a section header, a pair, a comment, nor blank). `source`
  /// names the text in every error message (parse, getters, check_all_read).
  static IniFile parse(std::string_view text, std::string source = "ini");
  /// Read and parse the file at `path`; errors name the path. Throws
  /// std::runtime_error when the file cannot be read or parsed.
  static IniFile load(const std::string& path);

  bool has_section(const std::string& section) const;
  bool has_key(const std::string& section, const std::string& key) const;

  std::optional<std::string> get(const std::string& section,
                                 const std::string& key) const;
  std::string get_or(const std::string& section, const std::string& key,
                     std::string fallback) const;
  /// Typed getters; throw std::runtime_error naming the source and line on
  /// a present-but-unparsable value (for get_double, also NaN or inf),
  /// return fallback when absent.
  double get_double(const std::string& section, const std::string& key,
                    double fallback) const;
  long long get_int(const std::string& section, const std::string& key,
                    long long fallback) const;
  bool get_bool(const std::string& section, const std::string& key,
                bool fallback) const;

  void set(const std::string& section, const std::string& key,
           std::string value);

  /// Throw std::runtime_error "<source>: line <n>: [section] key: message"
  /// for a value the caller rejects (an unknown enum word, say).
  [[noreturn]] void fail(const std::string& section, const std::string& key,
                         std::string_view message) const;

  /// The typo guard for schemas spread over several parsers: every lookup
  /// (get, the typed getters, has_key, has_section) marks what it touched,
  /// and this throws naming the line of the first section never looked up
  /// or key never read. Call after every parser has run. Because lookups
  /// write those marks, one IniFile must not be read from two threads.
  void check_all_read() const;

  /// Section names in insertion order (for schemas with repeatable,
  /// dotted section families like `[outage.<resource>]`).
  std::vector<std::string> section_names() const;

  /// Serialize back to INI text (sections and keys in insertion order).
  std::string to_string() const;

 private:
  struct Entry {
    std::string key;
    std::string value;
    std::size_t line = 0;  // 0 for entries added by set()
    mutable bool read = false;
  };
  struct Section {
    std::vector<Entry> pairs;
    std::size_t line = 0;
    mutable bool read = false;
  };
  // Insertion-ordered storage so round-trips are stable.
  std::vector<std::pair<std::string, Section>> sections_;
  std::string source_ = "ini";

  const Entry* find_entry(const std::string& section,
                          const std::string& key) const;
  /// The entry for (section, key), appended (with its section) if absent.
  Entry& entry_for(const std::string& section, const std::string& key);

  Section* find_section(const std::string& name);
  const Section* find_section(const std::string& name) const;
};

/// Trim ASCII whitespace from both ends.
std::string trim(std::string_view text);

}  // namespace lattice::util
