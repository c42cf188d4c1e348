#include "common/stats.hh"

#include <cmath>
#include <cstdio>

namespace hmg
{

void
StatRecorder::record(const std::string &name, double value)
{
    stats_[name] += value;
}

double
StatRecorder::get(const std::string &name) const
{
    auto it = stats_.find(name);
    return it == stats_.end() ? 0.0 : it->second;
}

double
StatRecorder::sumPrefix(const std::string &prefix) const
{
    double sum = 0;
    for (auto it = stats_.lower_bound(prefix); it != stats_.end(); ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        sum += it->second;
    }
    return sum;
}

std::string
StatRecorder::toString() const
{
    std::string out;
    char buf[32];
    for (const auto &[name, value] : stats_) {
        // Exact: integers as integers, anything else with enough digits
        // to round-trip, so two dumps are equal iff the stats are.
        if (std::isfinite(value) && value == std::trunc(value) &&
            std::fabs(value) < 0x1p63)
            std::snprintf(buf, sizeof buf, "%lld",
                          static_cast<long long>(value));
        else
            std::snprintf(buf, sizeof buf, "%.17g", value);
        out += name;
        out += ' ';
        out += buf;
        out += '\n';
    }
    return out;
}

} // namespace hmg
