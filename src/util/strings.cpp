#include "util/strings.hpp"

#include <cstdarg>
#include <cstdio>

namespace wavm3::util {

std::string format(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return {};
  }
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string fmt_fixed(double v, int digits) { return format("%.*f", digits, v); }

std::string fmt_sci(double v, int digits) { return format("%.*e", digits, v); }

std::string fmt_percent(double fraction, int digits) {
  return format("%.*f%%", digits, fraction * 100.0);
}

}  // namespace wavm3::util
