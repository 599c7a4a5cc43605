#include "util/ini.hpp"

#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/fmt.hpp"

namespace lattice::util {

std::string trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return std::string(text.substr(begin, end - begin));
}

IniFile IniFile::parse(std::string_view text, std::string source) {
  IniFile file;
  file.source_ = std::move(source);
  std::string current_section;
  bool in_section = false;
  std::size_t line_number = 0;
  std::istringstream stream{std::string(text)};
  std::string raw;
  const auto error = [&](std::string_view what) {
    return std::runtime_error(
        format("{}: line {}: {}", file.source_, line_number, what));
  };
  while (std::getline(stream, raw)) {
    ++line_number;
    std::string line = trim(raw);
    if (line.empty() || line[0] == '#' || line[0] == ';') continue;
    if (line.front() == '[') {
      if (line.back() != ']') throw error("unterminated section header");
      current_section = trim(std::string_view(line).substr(1, line.size() - 2));
      in_section = true;
      if (file.find_section(current_section) == nullptr) {
        file.sections_.emplace_back(current_section, Section{});
        file.sections_.back().second.line = line_number;
      }
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) throw error("expected 'key = value'");
    if (!in_section) throw error("key outside any [section]");
    std::string key = trim(std::string_view(line).substr(0, eq));
    std::string value = trim(std::string_view(line).substr(eq + 1));
    if (key.empty()) throw error("empty key");
    Entry& entry = file.entry_for(current_section, key);
    entry.value = std::move(value);
    entry.line = line_number;
  }
  return file;
}

IniFile IniFile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(format("ini: cannot read {}", path));
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str(), path);
}

IniFile::Section* IniFile::find_section(const std::string& name) {
  for (auto& [section_name, section] : sections_) {
    if (section_name == name) return &section;
  }
  return nullptr;
}

const IniFile::Section* IniFile::find_section(const std::string& name) const {
  for (const auto& [section_name, section] : sections_) {
    if (section_name == name) return &section;
  }
  return nullptr;
}

bool IniFile::has_section(const std::string& section) const {
  const Section* s = find_section(section);
  if (s != nullptr) s->read = true;
  return s != nullptr;
}

bool IniFile::has_key(const std::string& section,
                      const std::string& key) const {
  return get(section, key).has_value();
}

const IniFile::Entry* IniFile::find_entry(const std::string& section,
                                          const std::string& key) const {
  const Section* s = find_section(section);
  if (s == nullptr) return nullptr;
  s->read = true;
  for (const Entry& entry : s->pairs) {
    if (entry.key == key) {
      entry.read = true;
      return &entry;
    }
  }
  return nullptr;
}

std::optional<std::string> IniFile::get(const std::string& section,
                                        const std::string& key) const {
  const Entry* entry = find_entry(section, key);
  if (entry == nullptr) return std::nullopt;
  return entry->value;
}

std::string IniFile::get_or(const std::string& section, const std::string& key,
                            std::string fallback) const {
  auto value = get(section, key);
  return value ? *value : std::move(fallback);
}

double IniFile::get_double(const std::string& section, const std::string& key,
                           double fallback) const {
  auto value = get(section, key);
  if (!value) return fallback;
  try {
    std::size_t used = 0;
    const double parsed = std::stod(*value, &used);
    // stod also accepts "nan" and "inf", which no setting means.
    if (trim(std::string_view(*value).substr(used)).empty() &&
        std::isfinite(parsed)) {
      return parsed;
    }
  } catch (const std::exception&) {
  }
  fail(section, key, format("'{}' is not a finite number", *value));
}

long long IniFile::get_int(const std::string& section, const std::string& key,
                           long long fallback) const {
  auto value = get(section, key);
  if (!value) return fallback;
  try {
    std::size_t used = 0;
    const long long parsed = std::stoll(*value, &used);
    if (trim(std::string_view(*value).substr(used)).empty()) return parsed;
  } catch (const std::exception&) {
  }
  fail(section, key, format("'{}' is not an integer", *value));
}

bool IniFile::get_bool(const std::string& section, const std::string& key,
                       bool fallback) const {
  auto value = get(section, key);
  if (!value) return fallback;
  std::string v = *value;
  for (char& ch : v) ch = static_cast<char>(std::tolower(
      static_cast<unsigned char>(ch)));
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  fail(section, key, format("'{}' is not a boolean", *value));
}

IniFile::Entry& IniFile::entry_for(const std::string& section,
                                  const std::string& key) {
  Section* s = find_section(section);
  if (s == nullptr) {
    sections_.emplace_back(section, Section{});
    s = &sections_.back().second;
  }
  for (Entry& entry : s->pairs) {
    if (entry.key == key) return entry;
  }
  Entry& entry = s->pairs.emplace_back();
  entry.key = key;
  return entry;
}

void IniFile::set(const std::string& section, const std::string& key,
                  std::string value) {
  entry_for(section, key).value = std::move(value);
}

void IniFile::fail(const std::string& section, const std::string& key,
                   std::string_view message) const {
  // An absent key is blamed on its section's header line.
  const Entry* entry = find_entry(section, key);
  const Section* s = find_section(section);
  const std::size_t line =
      entry != nullptr ? entry->line : (s != nullptr ? s->line : 0);
  throw std::runtime_error(format("{}: line {}: [{}] {}: {}", source_, line,
                                  section, key, message));
}

void IniFile::check_all_read() const {
  for (const auto& [name, section] : sections_) {
    if (!section.read) {
      throw std::runtime_error(format("{}: line {}: unknown section [{}]",
                                      source_, section.line, name));
    }
    for (const Entry& entry : section.pairs) {
      if (!entry.read) {
        throw std::runtime_error(
            format("{}: line {}: unknown key '{}' in [{}]", source_,
                   entry.line, entry.key, name));
      }
    }
  }
}

std::vector<std::string> IniFile::section_names() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& [name, section] : sections_) names.push_back(name);
  return names;
}

std::string IniFile::to_string() const {
  std::ostringstream out;
  bool first = true;
  for (const auto& [name, section] : sections_) {
    if (!first) out << '\n';
    first = false;
    out << '[' << name << "]\n";
    for (const Entry& entry : section.pairs) {
      out << entry.key << " = " << entry.value << '\n';
    }
  }
  return out.str();
}

}  // namespace lattice::util
