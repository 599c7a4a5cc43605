#include "grid/rsl.hpp"

#include <cctype>
#include <stdexcept>

#include "util/fmt.hpp"

namespace lattice::grid {

namespace {

class RslParser {
 public:
  explicit RslParser(std::string_view text) : text_(text) {}

  RslDocument parse() {
    skip_space();
    expect('&');
    RslDocument doc;
    skip_space();
    while (pos_ < text_.size()) {
      parse_relation(doc);
      skip_space();
    }
    return doc;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error(
        util::format("rsl: {} at position {}", message, pos_));
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  void expect(char ch) {
    if (pos_ >= text_.size() || text_[pos_] != ch) {
      fail(util::format("expected '{}'", std::string(1, ch)));
    }
    ++pos_;
  }

  std::string parse_word() {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == '"') {
      ++pos_;
      std::string word;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        word += text_[pos_++];
      }
      expect('"');
      return word;
    }
    std::string word;
    while (pos_ < text_.size()) {
      const char ch = text_[pos_];
      if (ch == ')' || ch == '(' || ch == '=' || ch == '>' ||
          std::isspace(static_cast<unsigned char>(ch))) {
        break;
      }
      word += ch;
      ++pos_;
    }
    if (word.empty()) fail("expected a value");
    return word;
  }

  void parse_relation(RslDocument& doc) {
    expect('(');
    const std::string attribute = parse_word();
    skip_space();
    bool greater_equal = false;
    if (pos_ < text_.size() && text_[pos_] == '>') {
      ++pos_;
      expect('=');
      greater_equal = true;
    } else {
      expect('=');
    }
    const std::string value = parse_word();
    skip_space();
    expect(')');

    auto as_double = [&]() {
      try {
        return std::stod(value);
      } catch (const std::exception&) {
        fail(util::format("attribute '{}' needs a number", attribute));
      }
    };

    if (attribute == "executable" || attribute == "application") {
      doc.executable = value;
    } else if (attribute == "count") {
      doc.count = static_cast<std::size_t>(as_double());
    } else if (attribute == "memory") {
      if (!greater_equal) fail("memory uses '>='");
      doc.requirements.min_memory_gb = as_double();
    } else if (attribute == "platform") {
      const auto platform = parse_platform(value);
      if (!platform) fail(util::format("unknown platform '{}'", value));
      doc.requirements.platforms.push_back(*platform);
    } else if (attribute == "mpi") {
      doc.requirements.needs_mpi = value == "yes" || value == "true";
    } else if (attribute == "software") {
      doc.requirements.software.push_back(value);
    } else if (attribute == "runtime_estimate") {
      doc.runtime_estimate = as_double();
    } else {
      fail(util::format("unknown attribute '{}'", attribute));
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

RslDocument parse_rsl(std::string_view text) {
  return RslParser(text).parse();
}

std::string to_rsl(const GridJob& job) {
  std::string out = "&";
  out += util::format("(executable=\"{}\")", kApplication);
  for (const auto& platform : job.requirements->platforms) {
    out += util::format("(platform={})", platform_name(platform));
  }
  if (job.requirements->min_memory_gb > 0.0) {
    out += util::format("(memory>={:.3f})", job.requirements->min_memory_gb);
  }
  if (job.requirements->needs_mpi) out += "(mpi=yes)";
  for (const auto& software : job.requirements->software) {
    out += util::format("(software={})", software);
  }
  if (job.estimated_reference_runtime) {
    out += util::format("(runtime_estimate={:.3f})",
                        *job.estimated_reference_runtime);
  }
  return out;
}

}  // namespace lattice::grid
