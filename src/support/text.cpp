#include "support/text.hpp"

#include <cstdio>

namespace slpwlo {

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) out += sep;
        out += parts[i];
    }
    return out;
}

std::string format_double(double value, int digits) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", digits, value);
    return buf;
}

bool contains(const std::string& text, const std::string& needle) {
    return text.find(needle) != std::string::npos;
}

}  // namespace slpwlo
