#include "sim/stats.hpp"

#include <cmath>
#include <cstdint>

namespace photon {

void
StatRegistry::add(const std::string &name, double delta)
{
    values_[name] += delta;
}

void
StatRegistry::set(const std::string &name, double value)
{
    values_[name] = value;
}

double
StatRegistry::get(const std::string &name) const
{
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

bool
StatRegistry::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

void
StatRegistry::clear()
{
    values_.clear();
}

void
StatRegistry::merge(const StatRegistry &other)
{
    for (const auto &[name, value] : other.values_)
        values_[name] += value;
}

void
StatRegistry::print(std::ostream &os, const std::string &prefix) const
{
    // Pad by hand rather than with std::left/std::setw, which would
    // leave the caller's stream left-aligned. Integral values (every
    // counter) print exactly: the default six significant digits would
    // round 5729050 to 5.72905e+06 and hide differences when diffing
    // runs. Doubles are exact integers up to 2^53; the bound keeps the
    // cast in range.
    for (const auto &[name, value] : values_) {
        os << prefix << name;
        if (name.size() < 40)
            os << std::string(40 - name.size(), ' ');
        os << ' ';
        if (std::trunc(value) == value && std::fabs(value) < 9.0e18)
            os << static_cast<std::int64_t>(value);
        else
            os << value;
        os << '\n';
    }
}

} // namespace photon
