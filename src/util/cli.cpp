#include "util/cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace taps::util {

void Cli::add_flag(const std::string& name, const std::string& help) {
  opts_.emplace_back(name, Opt{help, "false", /*is_flag=*/true, /*set=*/false});
}

void Cli::add_option(const std::string& name, const std::string& help,
                     const std::string& default_value) {
  opts_.emplace_back(name, Opt{help, default_value, /*is_flag=*/false, /*set=*/false});
}

Cli::Opt* Cli::find(const std::string& name) {
  for (auto& [n, o] : opts_) {
    if (n == name) return &o;
  }
  return nullptr;
}

const Cli::Opt* Cli::find(const std::string& name) const {
  for (const auto& [n, o] : opts_) {
    if (n == name) return &o;
  }
  return nullptr;
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help_text().c_str(), stdout);
      exit_code_ = 0;
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "%s: unexpected positional argument '%s'\n", program_.c_str(),
                   arg.c_str());
      exit_code_ = 2;
      return false;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inline_value;
    if (auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    Opt* opt = find(name);
    if (opt == nullptr) {
      std::fprintf(stderr, "%s: unknown option '--%s' (try --help)\n", program_.c_str(),
                   name.c_str());
      exit_code_ = 2;
      return false;
    }
    if (opt->is_flag) {
      if (inline_value) {
        opt->value = *inline_value;
      } else {
        opt->value = "true";
      }
    } else if (inline_value) {
      opt->value = *inline_value;
    } else {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: option '--%s' requires a value\n", program_.c_str(),
                     name.c_str());
        exit_code_ = 2;
        return false;
      }
      opt->value = argv[++i];
    }
    opt->set = true;
  }
  return true;
}

bool Cli::flag(const std::string& name) const {
  const Opt* o = find(name);
  if (o == nullptr) throw std::logic_error("unknown flag queried: " + name);
  return o->value == "true" || o->value == "1" || o->value == "yes";
}

std::string Cli::str(const std::string& name) const {
  const Opt* o = find(name);
  if (o == nullptr) throw std::logic_error("unknown option queried: " + name);
  return o->value;
}

namespace {

/// Parse all of `v` as a T (no leading space or sign, no trailing text),
/// or return false.
template <typename T>
bool parse_whole(const std::string& v, T& out) {
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  return !v.empty() && ec == std::errc{} && ptr == end;
}

}  // namespace

double Cli::num(const std::string& name) const {
  const std::string v = str(name);
  double out = 0.0;
  if (!parse_whole(v, out) || !std::isfinite(out)) {
    throw std::runtime_error("option --" + name + " expects a number, got '" + v + "'");
  }
  return out;
}

std::int64_t Cli::integer(const std::string& name) const {
  const std::string v = str(name);
  std::int64_t out = 0;
  if (!parse_whole(v, out)) {
    throw std::runtime_error("option --" + name + " expects an integer, got '" + v + "'");
  }
  return out;
}

std::string Cli::help_text() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nOptions:\n";
  for (const auto& [name, o] : opts_) {
    os << "  --" << name;
    if (!o.is_flag) os << " <value>";
    os << "\n      " << o.help;
    if (!o.is_flag) os << " (default: " << o.value << ")";
    os << "\n";
  }
  os << "  --help\n      show this message\n";
  return os.str();
}

}  // namespace taps::util
