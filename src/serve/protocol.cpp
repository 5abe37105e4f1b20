#include "serve/protocol.hpp"

#include <cctype>
#include <cstdlib>
#include <map>
#include <sstream>

#include "sim/json.hpp"

namespace photon::serve {

const char *
opName(Op op)
{
    switch (op) {
      case Op::Submit: return "submit";
      case Op::Status: return "status";
      case Op::Cache: return "cache";
      case Op::Ping: return "ping";
      case Op::Shutdown: return "shutdown";
    }
    return "?";
}

namespace {

bool
parseOp(const std::string &name, Op &out)
{
    for (Op op : {Op::Submit, Op::Status, Op::Cache, Op::Ping,
                  Op::Shutdown}) {
        if (name == opName(op)) {
            out = op;
            return true;
        }
    }
    return false;
}

/**
 * Minimal parser for the flat JSON objects this protocol exchanges:
 * one object of string / integer / floating / bool / null values.
 * Values are kept as raw text plus a string/literal tag; typed getters
 * convert on demand and report absent keys through their default.
 */
class FlatJson
{
  public:
    bool
    parse(const std::string &text, std::string *error)
    {
        p_ = text.c_str();
        end_ = p_ + text.size();
        skipWs();
        if (!eat('{'))
            return fail(error, "expected '{'");
        skipWs();
        if (eat('}'))
            return finish(error);
        for (;;) {
            std::string key;
            if (!parseString(key))
                return fail(error, "expected string key");
            skipWs();
            if (!eat(':'))
                return fail(error, "expected ':'");
            skipWs();
            Value v;
            if (*p_ == '"') {
                v.isString = true;
                if (!parseString(v.text))
                    return fail(error, "bad string value");
            } else {
                const char *start = p_;
                while (p_ < end_ && *p_ != ',' && *p_ != '}' &&
                       !std::isspace(static_cast<unsigned char>(*p_)))
                    ++p_;
                if (p_ == start)
                    return fail(error, "empty value");
                v.text.assign(start, p_);
            }
            values_[key] = std::move(v);
            skipWs();
            if (eat(',')) {
                skipWs();
                continue;
            }
            if (eat('}'))
                return finish(error);
            return fail(error, "expected ',' or '}'");
        }
    }

    bool has(const std::string &key) const { return values_.count(key); }

    std::string
    getString(const std::string &key, const std::string &def = "") const
    {
        auto it = values_.find(key);
        return it == values_.end() || !it->second.isString
                   ? def
                   : it->second.text;
    }

    std::uint64_t
    getU64(const std::string &key, std::uint64_t def = 0) const
    {
        auto it = values_.find(key);
        if (it == values_.end() || it->second.isString)
            return def;
        return std::strtoull(it->second.text.c_str(), nullptr, 10);
    }

    double
    getDouble(const std::string &key, double def = 0.0) const
    {
        auto it = values_.find(key);
        if (it == values_.end() || it->second.isString)
            return def;
        return std::strtod(it->second.text.c_str(), nullptr);
    }

    bool
    getBool(const std::string &key, bool def = false) const
    {
        auto it = values_.find(key);
        if (it == values_.end() || it->second.isString)
            return def;
        return it->second.text == "true";
    }

  private:
    struct Value
    {
        std::string text;
        bool isString = false;
    };

    void
    skipWs()
    {
        while (p_ < end_ && std::isspace(static_cast<unsigned char>(*p_)))
            ++p_;
    }

    bool
    eat(char c)
    {
        if (p_ < end_ && *p_ == c) {
            ++p_;
            return true;
        }
        return false;
    }

    bool
    parseString(std::string &out)
    {
        if (!eat('"'))
            return false;
        out.clear();
        while (p_ < end_ && *p_ != '"') {
            char c = *p_++;
            if (c == '\\' && p_ < end_ && !jsonUnescape(p_, end_, c))
                return false;
            out.push_back(c);
        }
        return eat('"');
    }

    bool
    finish(std::string *error)
    {
        skipWs();
        if (p_ != end_)
            return fail(error, "trailing bytes after object");
        return true;
    }

    static bool
    fail(std::string *error, const char *why)
    {
        if (error)
            *error = why;
        return false;
    }

    const char *p_ = nullptr;
    const char *end_ = nullptr;
    std::map<std::string, Value> values_;
};

/** Shared version check: absent or future versions are rejected. */
bool
checkVersion(const FlatJson &json, std::string *error)
{
    if (!json.has("v")) {
        if (error)
            *error = "missing protocol version field 'v'";
        return false;
    }
    std::uint64_t v = json.getU64("v");
    if (v == 0 || v > kProtocolVersion) {
        if (error)
            *error = "unsupported protocol version " + std::to_string(v) +
                     " (this build speaks " +
                     std::to_string(kProtocolVersion) + ")";
        return false;
    }
    return true;
}

void
appendStatus(std::ostringstream &os, const ServerStatus &s)
{
    os << ", \"workers\": " << s.workers
       << ", \"queued\": " << s.queued << ", \"running\": " << s.running
       << ", \"submitted\": " << s.submitted
       << ", \"completed\": " << s.completed
       << ", \"draining\": " << (s.draining ? "true" : "false")
       << ", \"cache_hits\": " << s.store.cacheHits
       << ", \"cache_misses\": " << s.store.cacheMisses
       << ", \"cache_inserts\": " << s.store.cacheInserts
       << ", \"analyses_reused\": " << s.store.analysesReused
       << ", \"jobs_executed\": " << s.store.jobsExecuted
       << ", \"dedup_collapsed\": " << s.store.dedupCollapsed
       << ", \"checkpoints\": " << s.store.checkpoints
       << ", \"interval_hits\": " << s.store.intervalHits
       << ", \"interval_misses\": " << s.store.intervalMisses
       << ", \"store_records\": " << s.storeKernelRecords
       << ", \"store_analyses\": " << s.storeAnalyses
       << ", \"store_interval_entries\": " << s.storeIntervalEntries
       << ", \"trace_hits\": " << s.store.traceHits
       << ", \"trace_misses\": " << s.store.traceMisses
       << ", \"trace_captures\": " << s.store.traceCaptures
       << ", \"store_traces\": " << s.storeTraces;
}

void
readStatus(const FlatJson &json, ServerStatus &s)
{
    s.workers = static_cast<std::uint32_t>(json.getU64("workers"));
    s.queued = json.getU64("queued");
    s.running = json.getU64("running");
    s.submitted = json.getU64("submitted");
    s.completed = json.getU64("completed");
    s.draining = json.getBool("draining");
    s.store.cacheHits = json.getU64("cache_hits");
    s.store.cacheMisses = json.getU64("cache_misses");
    s.store.cacheInserts = json.getU64("cache_inserts");
    s.store.analysesReused = json.getU64("analyses_reused");
    s.store.jobsExecuted = json.getU64("jobs_executed");
    s.store.dedupCollapsed = json.getU64("dedup_collapsed");
    s.store.checkpoints = json.getU64("checkpoints");
    s.store.intervalHits = json.getU64("interval_hits");
    s.store.intervalMisses = json.getU64("interval_misses");
    s.storeKernelRecords = json.getU64("store_records");
    s.storeAnalyses = json.getU64("store_analyses");
    s.storeIntervalEntries = json.getU64("store_interval_entries");
    s.store.traceHits = json.getU64("trace_hits");
    s.store.traceMisses = json.getU64("trace_misses");
    s.store.traceCaptures = json.getU64("trace_captures");
    s.storeTraces = json.getU64("store_traces");
}

} // namespace

std::string
encodeRequest(const Request &request)
{
    std::ostringstream os;
    os << "{\"v\": " << request.v << ", \"op\": \""
       << opName(request.op) << "\", \"id\": \""
       << jsonEscape(request.id) << "\"";
    if (request.op == Op::Submit) {
        os << ", \"workload\": \"" << jsonEscape(request.spec.workload)
           << "\", \"size\": " << request.spec.size << ", \"mode\": \""
           << jsonEscape(request.spec.mode) << "\", \"gpu\": \""
           << jsonEscape(request.spec.gpu) << "\"";
        // Only non-default backends go on the wire: a default-backend
        // request line is byte-identical to what pre-backend clients
        // send, and absent means "detailed" on decode.
        if (request.spec.backend != "detailed")
            os << ", \"backend\": \"" << jsonEscape(request.spec.backend)
               << "\"";
    }
    os << "}";
    return os.str();
}

std::string
encodeResponse(const Response &response)
{
    std::ostringstream os;
    os << "{\"v\": " << response.v << ", \"id\": \""
       << jsonEscape(response.id) << "\", \"ok\": "
       << (response.ok ? "true" : "false");
    if (!response.ok)
        os << ", \"error\": \"" << jsonEscape(response.error) << "\"";
    if (response.hasResult) {
        const ServeResult &r = response.result;
        os << ", \"workload\": \"" << jsonEscape(r.spec.workload)
           << "\", \"size\": " << r.spec.size << ", \"mode\": \""
           << jsonEscape(r.spec.mode) << "\", \"gpu\": \""
           << jsonEscape(r.spec.gpu) << "\", \"backend\": \""
           << jsonEscape(r.spec.backend) << "\""
           << ", \"cycles\": " << r.cycles << ", \"insts\": " << r.insts
           << ", \"kernels\": " << r.kernels
           << ", \"kernel_hits\": " << r.kernelHits
           << ", \"cache_hit\": " << (r.cacheHit ? "true" : "false")
           << ", \"dedup_collapsed\": "
           << (r.dedupCollapsed ? "true" : "false")
           << ", \"analysis_reused\": "
           << (r.analysisReused ? "true" : "false")
           << ", \"wall_seconds\": " << r.wallSeconds
           << ", \"fingerprint\": " << r.fingerprint;
    }
    if (response.hasStatus)
        appendStatus(os, response.status);
    os << "}";
    return os.str();
}

bool
decodeRequest(const std::string &line, Request &out, std::string *error)
{
    FlatJson json;
    if (!json.parse(line, error))
        return false;
    if (!checkVersion(json, error))
        return false;
    Request r;
    r.v = static_cast<std::uint32_t>(json.getU64("v"));
    if (!parseOp(json.getString("op"), r.op)) {
        if (error)
            *error = "unknown op '" + json.getString("op") +
                     "' (submit status cache ping shutdown)";
        return false;
    }
    r.id = json.getString("id");
    if (r.op == Op::Submit) {
        r.spec.workload = json.getString("workload", r.spec.workload);
        r.spec.size = static_cast<std::uint32_t>(json.getU64("size"));
        r.spec.mode = json.getString("mode", r.spec.mode);
        r.spec.gpu = json.getString("gpu", r.spec.gpu);
        // Optional: absent (old clients) keeps the "detailed" default.
        r.spec.backend = json.getString("backend", r.spec.backend);
    }
    out = std::move(r);
    return true;
}

bool
decodeResponse(const std::string &line, Response &out, std::string *error)
{
    FlatJson json;
    if (!json.parse(line, error))
        return false;
    if (!checkVersion(json, error))
        return false;
    Response r;
    r.v = static_cast<std::uint32_t>(json.getU64("v"));
    r.id = json.getString("id");
    r.ok = json.getBool("ok");
    r.error = json.getString("error");
    if (json.has("cycles")) {
        r.hasResult = true;
        r.result.spec.workload = json.getString("workload");
        r.result.spec.size =
            static_cast<std::uint32_t>(json.getU64("size"));
        r.result.spec.mode = json.getString("mode");
        r.result.spec.gpu = json.getString("gpu");
        r.result.spec.backend =
            json.getString("backend", r.result.spec.backend);
        r.result.ok = r.ok;
        r.result.error = r.error;
        r.result.cycles = json.getU64("cycles");
        r.result.insts = json.getU64("insts");
        r.result.kernels =
            static_cast<std::uint32_t>(json.getU64("kernels"));
        r.result.kernelHits =
            static_cast<std::uint32_t>(json.getU64("kernel_hits"));
        r.result.cacheHit = json.getBool("cache_hit");
        r.result.dedupCollapsed = json.getBool("dedup_collapsed");
        r.result.analysisReused = json.getBool("analysis_reused");
        r.result.wallSeconds = json.getDouble("wall_seconds");
        r.result.fingerprint = json.getU64("fingerprint");
    }
    if (json.has("workers")) {
        r.hasStatus = true;
        readStatus(json, r.status);
    }
    out = std::move(r);
    return true;
}

} // namespace photon::serve
