#include "sampling/telemetry.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>

#include "sim/json.hpp"

namespace photon::sampling {

const char *
sampleLevelName(SampleLevel level)
{
    switch (level) {
      case SampleLevel::Full: return "full";
      case SampleLevel::Kernel: return "kernel";
      case SampleLevel::Warp: return "warp";
      case SampleLevel::BasicBlock: return "bb";
    }
    return "?";
}

namespace {

bool
parseLevelName(std::string_view name, SampleLevel &out)
{
    if (name == "full") out = SampleLevel::Full;
    else if (name == "kernel") out = SampleLevel::Kernel;
    else if (name == "warp") out = SampleLevel::Warp;
    else if (name == "bb") out = SampleLevel::BasicBlock;
    else return false;
    return true;
}

/** Shortest representation that round-trips through strtod. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
writeRecord(const KernelTelemetry &t, std::ostream &os)
{
    os << "    {\"kernel\": \"" << jsonEscape(t.kernel) << "\", \"job\": \""
       << jsonEscape(t.job) << "\",\n"
       << "     \"workgroups\": " << t.numWorkgroups
       << ", \"waves_per_wg\": " << t.wavesPerWorkgroup
       << ", \"level\": \"" << t.levelName() << "\""
       << ", \"switch_cycle\": " << t.switchCycle
       << ", \"resident_at_switch\": " << t.residentAtSwitch << ",\n"
       << "     \"det_points\": " << t.warpDetector.points
       << ", \"det_slope\": " << num(t.warpDetector.slope)
       << ", \"det_slope_valid\": "
       << (t.warpDetector.slopeValid ? "true" : "false")
       << ", \"det_drift\": " << num(t.warpDetector.drift) << ",\n"
       << "     \"det_mean_recent\": " << num(t.warpDetector.meanRecent)
       << ", \"det_mean_prev\": " << num(t.warpDetector.meanPrev)
       << ", \"det_stable\": "
       << (t.warpDetector.stable ? "true" : "false")
       << ", \"bb_stable_rate\": " << num(t.bbStableRate) << ",\n"
       << "     \"predicted_cycles\": " << t.predictedCycles
       << ", \"predicted_insts\": " << t.predictedInsts
       << ", \"detailed_cycles\": " << t.detailedCycles
       << ", \"detailed_insts\": " << t.detailedInsts << ",\n"
       << "     \"detailed_warps\": " << t.detailedWarps
       << ", \"total_warps\": " << t.totalWarps
       << ", \"analysis_insts\": " << t.analysisInsts
       << ", \"analysis_reused\": "
       << (t.analysisReused ? "true" : "false")
       << ", \"detailed_fraction\": " << num(t.detailedFraction()) << ",\n"
       << "     \"wall_seconds\": " << num(t.wallSeconds)
       << ",\n     \"backend\": \"" << jsonEscape(t.backend) << "\""
       << ", \"backend_detailed_cycles\": " << t.backendDetailedCycles
       << ", \"backend_interval_cycles\": " << t.backendIntervalCycles
       << ",\n     \"no_switch_reason\": \"" << jsonEscape(t.noSwitchReason)
       << "\", \"hooks_released_cycle\": ";
    if (t.hooksReleasedCycle == kNoCycle)
        os << "null";
    else
        os << t.hooksReleasedCycle;
    os << "}";
}

/**
 * Tiny recursive-descent reader for the documents writeTelemetryJson
 * emits (objects, arrays, strings with \"/\\ escapes, numbers, bools).
 * Not a general JSON parser; unknown keys are skipped so older readers
 * tolerate future additive schema changes and this reader discards the
 * fields older versions carried (v2/v3 epoch statistics).
 */
class Reader
{
  public:
    explicit Reader(std::string_view text) : s_(text) {}

    bool
    fail(std::string why)
    {
        if (error_.empty())
            error_ = why + " (near offset " + std::to_string(pos_) + ")";
        return false;
    }

    const std::string &error() const { return error_; }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r' || s_[pos_] == ','))
            ++pos_;
    }

    bool
    expect(char c)
    {
        skipWs();
        if (pos_ >= s_.size() || s_[pos_] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos_;
        return true;
    }

    bool
    peek(char c)
    {
        skipWs();
        return pos_ < s_.size() && s_[pos_] == c;
    }

    bool
    readString(std::string &out)
    {
        if (!expect('"'))
            return false;
        out.clear();
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\' && pos_ < s_.size()) {
                const char *p = s_.data() + pos_;
                if (!jsonUnescape(p, s_.data() + s_.size(), c))
                    return fail("truncated escape");
                pos_ = static_cast<std::size_t>(p - s_.data());
            }
            out.push_back(c);
        }
        if (pos_ >= s_.size())
            return fail("unterminated string");
        ++pos_; // closing quote
        return true;
    }

    bool
    readNumber(double &out)
    {
        skipWs();
        const char *begin = s_.data() + pos_;
        char *end = nullptr;
        out = std::strtod(begin, &end);
        if (end == begin)
            return fail("expected number");
        pos_ += static_cast<std::size_t>(end - begin);
        return true;
    }

    bool
    readBool(bool &out)
    {
        skipWs();
        if (s_.compare(pos_, 4, "true") == 0) {
            out = true;
            pos_ += 4;
            return true;
        }
        if (s_.compare(pos_, 5, "false") == 0) {
            out = false;
            pos_ += 5;
            return true;
        }
        return fail("expected bool");
    }

    /** Consume a literal null if present. */
    bool
    tryNull()
    {
        skipWs();
        if (s_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            return true;
        }
        return false;
    }

    /** Skip any value (for unknown keys). */
    bool
    skipValue()
    {
        skipWs();
        if (pos_ >= s_.size())
            return fail("expected value");
        char c = s_[pos_];
        if (c == '"') {
            std::string ignored;
            return readString(ignored);
        }
        if (c == '{' || c == '[') {
            char close = c == '{' ? '}' : ']';
            ++pos_;
            int depth = 1;
            while (pos_ < s_.size() && depth > 0) {
                char d = s_[pos_];
                if (d == '"') {
                    std::string ignored;
                    if (!readString(ignored))
                        return false;
                    continue;
                }
                if (d == c)
                    ++depth;
                else if (d == close)
                    --depth;
                ++pos_;
            }
            return depth == 0 || fail("unterminated container");
        }
        if (c == 't' || c == 'f') {
            bool ignored;
            return readBool(ignored);
        }
        if (c == 'n')
            return tryNull() || fail("expected value");
        double ignored;
        return readNumber(ignored);
    }

  private:
    std::string_view s_;
    std::size_t pos_ = 0;
    std::string error_;
};

bool
readRecord(Reader &r, KernelTelemetry &t)
{
    if (!r.expect('{'))
        return false;
    while (!r.peek('}')) {
        std::string key;
        if (!r.readString(key) || !r.expect(':'))
            return false;
        double d = 0.0;
        bool b = false;
        std::string s;
        if (key == "kernel") {
            if (!r.readString(t.kernel))
                return false;
        } else if (key == "job") {
            if (!r.readString(t.job))
                return false;
        } else if (key == "level") {
            if (!r.readString(s))
                return false;
            if (!parseLevelName(s, t.level))
                return r.fail("unknown level '" + s + "'");
        } else if (key == "workgroups") {
            if (!r.readNumber(d))
                return false;
            t.numWorkgroups = static_cast<std::uint32_t>(d);
        } else if (key == "waves_per_wg") {
            if (!r.readNumber(d))
                return false;
            t.wavesPerWorkgroup = static_cast<std::uint32_t>(d);
        } else if (key == "switch_cycle") {
            if (!r.readNumber(d))
                return false;
            t.switchCycle = static_cast<Cycle>(d);
        } else if (key == "resident_at_switch") {
            if (!r.readNumber(d))
                return false;
            t.residentAtSwitch = static_cast<std::uint32_t>(d);
        } else if (key == "det_points") {
            if (!r.readNumber(d))
                return false;
            t.warpDetector.points = static_cast<std::uint64_t>(d);
        } else if (key == "det_slope") {
            if (!r.readNumber(t.warpDetector.slope))
                return false;
        } else if (key == "det_slope_valid") {
            if (!r.readBool(t.warpDetector.slopeValid))
                return false;
        } else if (key == "det_drift") {
            if (!r.readNumber(t.warpDetector.drift))
                return false;
        } else if (key == "det_mean_recent") {
            if (!r.readNumber(t.warpDetector.meanRecent))
                return false;
        } else if (key == "det_mean_prev") {
            if (!r.readNumber(t.warpDetector.meanPrev))
                return false;
        } else if (key == "det_stable") {
            if (!r.readBool(t.warpDetector.stable))
                return false;
        } else if (key == "bb_stable_rate") {
            if (!r.readNumber(t.bbStableRate))
                return false;
        } else if (key == "predicted_cycles") {
            if (!r.readNumber(d))
                return false;
            t.predictedCycles = static_cast<Cycle>(d);
        } else if (key == "predicted_insts") {
            if (!r.readNumber(d))
                return false;
            t.predictedInsts = static_cast<std::uint64_t>(d);
        } else if (key == "detailed_cycles") {
            if (!r.readNumber(d))
                return false;
            t.detailedCycles = static_cast<Cycle>(d);
        } else if (key == "detailed_insts") {
            if (!r.readNumber(d))
                return false;
            t.detailedInsts = static_cast<std::uint64_t>(d);
        } else if (key == "detailed_warps") {
            if (!r.readNumber(d))
                return false;
            t.detailedWarps = static_cast<std::uint32_t>(d);
        } else if (key == "total_warps") {
            if (!r.readNumber(d))
                return false;
            t.totalWarps = static_cast<std::uint32_t>(d);
        } else if (key == "analysis_insts") {
            if (!r.readNumber(d))
                return false;
            t.analysisInsts = static_cast<std::uint64_t>(d);
        } else if (key == "analysis_reused") {
            if (!r.readBool(t.analysisReused))
                return false;
        } else if (key == "wall_seconds") {
            if (!r.readNumber(t.wallSeconds))
                return false;
        } else if (key == "backend") {
            if (!r.readString(t.backend))
                return false;
        } else if (key == "backend_detailed_cycles") {
            if (!r.readNumber(d))
                return false;
            t.backendDetailedCycles = static_cast<Cycle>(d);
        } else if (key == "backend_interval_cycles") {
            if (!r.readNumber(d))
                return false;
            t.backendIntervalCycles = static_cast<Cycle>(d);
        } else if (key == "no_switch_reason") {
            if (!r.readString(t.noSwitchReason))
                return false;
        } else if (key == "hooks_released_cycle") {
            if (r.tryNull()) {
                t.hooksReleasedCycle = kNoCycle;
            } else {
                if (!r.readNumber(d))
                    return false;
                t.hooksReleasedCycle = static_cast<Cycle>(d);
            }
        } else {
            if (!r.skipValue())
                return false;
            (void)b;
        }
    }
    return r.expect('}');
}

} // namespace

void
writeTelemetryJson(const std::vector<KernelTelemetry> &records,
                   std::ostream &os)
{
    os << "{\n  \"schema_version\": " << kTelemetrySchemaVersion
       << ",\n  \"kernels\": [\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        writeRecord(records[i], os);
        os << (i + 1 < records.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
}

void
writeTelemetryCsv(const std::vector<KernelTelemetry> &records,
                  std::ostream &os)
{
    os << "# telemetry_schema_version=" << kTelemetrySchemaVersion << "\n"
       << "kernel,job,workgroups,waves_per_wg,level,switch_cycle,"
          "resident_at_switch,det_points,det_slope,det_slope_valid,"
          "det_drift,det_mean_recent,det_mean_prev,det_stable,"
          "bb_stable_rate,predicted_cycles,predicted_insts,"
          "detailed_cycles,detailed_insts,detailed_warps,total_warps,"
          "analysis_insts,analysis_reused,detailed_fraction,"
          "wall_seconds,backend,backend_detailed_cycles,"
          "backend_interval_cycles,no_switch_reason,"
          "hooks_released_cycle\n";
    for (const KernelTelemetry &t : records) {
        os << t.kernel << ',' << t.job << ',' << t.numWorkgroups << ','
           << t.wavesPerWorkgroup << ',' << t.levelName() << ','
           << t.switchCycle << ',' << t.residentAtSwitch << ','
           << t.warpDetector.points << ',' << num(t.warpDetector.slope)
           << ',' << (t.warpDetector.slopeValid ? 1 : 0) << ','
           << num(t.warpDetector.drift) << ','
           << num(t.warpDetector.meanRecent) << ','
           << num(t.warpDetector.meanPrev) << ','
           << (t.warpDetector.stable ? 1 : 0) << ','
           << num(t.bbStableRate) << ',' << t.predictedCycles << ','
           << t.predictedInsts << ',' << t.detailedCycles << ','
           << t.detailedInsts << ',' << t.detailedWarps << ','
           << t.totalWarps << ',' << t.analysisInsts << ','
           << (t.analysisReused ? 1 : 0) << ','
           << num(t.detailedFraction()) << ',' << num(t.wallSeconds)
           << ',' << t.backend << ',' << t.backendDetailedCycles << ','
           << t.backendIntervalCycles << ',' << t.noSwitchReason << ',';
        if (t.hooksReleasedCycle != kNoCycle)
            os << t.hooksReleasedCycle;
        os << "\n";
    }
}

bool
readTelemetryJson(std::string_view text, std::vector<KernelTelemetry> &out,
                  std::string *error)
{
    Reader r(text);
    std::vector<KernelTelemetry> records;
    bool saw_version = false;

    auto fail = [&](const std::string &why) {
        if (error)
            *error = why.empty() ? r.error() : why;
        return false;
    };

    if (!r.expect('{'))
        return fail("");
    while (!r.peek('}')) {
        std::string key;
        if (!r.readString(key) || !r.expect(':'))
            return fail("");
        if (key == "schema_version") {
            double v = 0.0;
            if (!r.readNumber(v))
                return fail("");
            // Additive schema evolution: any version from 1 up to the
            // writer's loads — missing fields keep their defaults.
            std::uint32_t ver = static_cast<std::uint32_t>(v);
            if (ver < 1 || ver > kTelemetrySchemaVersion)
                return fail("telemetry schema version mismatch: file has " +
                            std::to_string(ver) +
                            ", reader supports 1.." +
                            std::to_string(kTelemetrySchemaVersion));
            saw_version = true;
        } else if (key == "kernels") {
            if (!r.expect('['))
                return fail("");
            while (!r.peek(']')) {
                KernelTelemetry t;
                if (!readRecord(r, t))
                    return fail("");
                records.push_back(std::move(t));
            }
            if (!r.expect(']'))
                return fail("");
        } else {
            if (!r.skipValue())
                return fail("");
        }
    }
    if (!saw_version)
        return fail("telemetry document has no schema_version");
    out = std::move(records);
    return true;
}

bool
saveTelemetry(const std::vector<KernelTelemetry> &records,
              const std::string &path, std::string *error)
{
    std::ofstream f(path);
    if (!f) {
        if (error)
            *error = "cannot open telemetry file '" + path + "'";
        return false;
    }
    bool csv = path.size() >= 4 &&
               path.compare(path.size() - 4, 4, ".csv") == 0;
    if (csv)
        writeTelemetryCsv(records, f);
    else
        writeTelemetryJson(records, f);
    if (!f) {
        if (error)
            *error = "write to telemetry file '" + path + "' failed";
        return false;
    }
    return true;
}

} // namespace photon::sampling
