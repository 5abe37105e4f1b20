/**
 * @file
 * A minimal statistics registry. Components register named counters; the
 * registry can render all of them as an aligned table or CSV.
 */

#ifndef PHOTON_SIM_STATS_HPP
#define PHOTON_SIM_STATS_HPP

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace photon {

/**
 * Flat map of stat name -> value with helpers for accumulation and
 * rendering. Intentionally simple: the simulator is single-threaded.
 */
class StatRegistry
{
  public:
    /** Add delta to (creating if needed) the named counter. */
    void add(const std::string &name, double delta);

    /** Overwrite the named value. */
    void set(const std::string &name, double value);

    /** Fetch a value; returns 0 for unknown names. */
    double get(const std::string &name) const;

    /** True when the stat exists. */
    bool has(const std::string &name) const;

    /** Remove all stats. */
    void clear();

    /** Merge another registry into this one (summing values). */
    void merge(const StatRegistry &other);

    /** Render "name value" lines, sorted by name; integral values
     *  print exactly and @p os keeps its formatting flags. */
    void print(std::ostream &os, const std::string &prefix = "") const;

    const std::map<std::string, double> &values() const { return values_; }

  private:
    std::map<std::string, double> values_;
};

} // namespace photon

#endif // PHOTON_SIM_STATS_HPP
