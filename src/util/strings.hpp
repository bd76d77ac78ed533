// Small string formatting helpers (GCC 12 lacks <format>).
#pragma once

#include <string>

namespace wavm3::util {

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Fixed-point decimal rendering with `digits` decimals, e.g. fmt_fixed(3.14159, 2) == "3.14".
std::string fmt_fixed(double v, int digits);

/// Scientific rendering, e.g. fmt_sci(1.52e-6, 2) == "1.52e-06".
std::string fmt_sci(double v, int digits);

/// Percentage rendering from a fraction, e.g. fmt_percent(0.118, 1) == "11.8%".
std::string fmt_percent(double fraction, int digits);

}  // namespace wavm3::util
