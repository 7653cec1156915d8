// Small text-formatting helpers used by printers, reports and emitters.
#pragma once

#include <string>
#include <vector>

namespace slpwlo {

/// Join `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Format a double with `digits` significant decimal digits, trimming
/// trailing zeros (used for stable golden-test output).
std::string format_double(double value, int digits = 6);

/// True if `text` contains `needle`.
bool contains(const std::string& text, const std::string& needle);

}  // namespace slpwlo
