#include "func/warp_trace.hpp"

#include <bit>
#include <cstdio>
#include <cstring>

#include "sim/log.hpp"

namespace photon::func {

using isa::Opcode;

namespace {

// ---- Varint / zigzag primitives (LEB128, little-endian groups) ------

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
getVarint(const std::uint8_t *bytes, std::uint64_t end,
          std::uint64_t &pos)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    for (;;) {
        PHOTON_ASSERT(pos < end, "trace varint runs past its slice");
        std::uint8_t b = bytes[pos++];
        v |= std::uint64_t{b & 0x7Fu} << shift;
        if (!(b & 0x80u))
            return v;
        shift += 7;
        PHOTON_ASSERT(shift < 64, "trace varint overlong");
    }
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Shared varint walk of one store-log entry's header; returns the
 *  decoded line and leaves @p pos at the snapshot bytes. Used by both
 *  the replay path and the deserializer's structural validation. */
bool
storeEntry(const std::vector<std::uint8_t> &bytes, std::uint64_t end,
           std::uint64_t &pos, Addr &prev_line, Addr &line)
{
    if (pos >= end)
        return false;
    std::uint64_t d = getVarint(bytes.data(), end, pos);
    line = static_cast<Addr>(static_cast<std::int64_t>(prev_line) +
                             unzigzag(d));
    prev_line = line;
    return pos + kLineBytes <= end;
}

/** True for the opcodes whose taken/not-taken outcome is dynamic. */
constexpr bool
isConditionalBranch(Opcode op)
{
    switch (op) {
      case Opcode::S_CBRANCH_SCC0:
      case Opcode::S_CBRANCH_SCC1:
      case Opcode::S_CBRANCH_VCCZ:
      case Opcode::S_CBRANCH_VCCNZ:
      case Opcode::S_CBRANCH_EXECZ:
      case Opcode::S_CBRANCH_EXECNZ:
        return true;
      default:
        return false;
    }
}

/** True for the mask ops that can retarget EXEC. */
constexpr bool
isMaskOp(Opcode op)
{
    switch (op) {
      case Opcode::S_MOV_MASK:
      case Opcode::S_AND_MASK:
      case Opcode::S_OR_MASK:
      case Opcode::S_ANDN2_MASK:
        return true;
      default:
        return false;
    }
}

/** Encode one memory op's coalesced line set (sorted, distinct).
 *  Header varint: (numLines << 1) | contiguous. Contiguous runs —
 *  every shape the emulator's uniform/stride fast paths produce —
 *  need only the first line's zigzag delta against @p prev_line. */
void
encodeLines(std::vector<std::uint8_t> &out, const StepResult &res,
            Addr &prev_line)
{
    const std::uint32_t n = res.numLines;
    bool contig =
        n > 0 && res.lines[n - 1] - res.lines[0] == n - 1;
    putVarint(out, (std::uint64_t{n} << 1) | (contig ? 1u : 0u));
    if (n == 0)
        return;
    putVarint(out, zigzag(static_cast<std::int64_t>(res.lines[0]) -
                          static_cast<std::int64_t>(prev_line)));
    if (!contig) {
        for (std::uint32_t i = 1; i < n; ++i)
            putVarint(out, res.lines[i] - res.lines[i - 1]);
    }
    prev_line = res.lines[0];
}

/** Empty @p trace down to @p slices blank slices, keeping the arenas'
 *  capacity. */
void
resetTrace(LaunchTrace &trace, std::size_t slices)
{
    trace.totalInsts = 0;
    trace.warps.assign(slices, {});
    trace.branchWords.clear();
    trace.execWords.clear();
    trace.memBytes.clear();
    trace.storeBytes.clear();
}

/** Appends one warp's side streams to slice @p index of a trace as the
 *  warp executes. The slice's streams start where slice index-1's
 *  ended, so slices are written in index order, one at a time. */
class SliceWriter
{
  public:
    SliceWriter(LaunchTrace &trace, std::size_t index)
        : t_(trace), s_(trace.warps[index])
    {
        s_ = {};
        // The branch arena packs every slice's bits back to back.
        if (index > 0) {
            const LaunchTrace::WarpSlice &prev = trace.warps[index - 1];
            bit_ = prev.branchBase + prev.branchBits;
        }
        s_.branchBase = bit_;
        s_.execBase = trace.execWords.size();
        s_.memBase = trace.memBytes.size();
        s_.storeBase = trace.storeBytes.size();
    }

    LaunchTrace::WarpSlice &slice() { return s_; }

    void
    appendBit(bool bit)
    {
        if ((bit_ & 63) == 0)
            t_.branchWords.push_back(0);
        t_.branchWords.back() |= std::uint64_t{bit ? 1u : 0u} << (bit_ & 63);
        ++bit_;
    }

    /** Record one executed instruction's side streams; @p exec is the
     *  wave's EXEC after it. */
    void
    record(const isa::Instruction &inst, const StepResult &res,
           std::uint64_t exec)
    {
        ++s_.instCount;
        if (isConditionalBranch(inst.op)) {
            appendBit(res.branchTaken);
        } else if (isMaskOp(inst.op)) {
            if (inst.dst.value == isa::kMaskExec)
                t_.execWords.push_back(exec);
        } else if (res.numLines > 0 || inst.op == Opcode::S_LOAD_DWORD ||
                   inst.op == Opcode::FLAT_LOAD_DWORD ||
                   inst.op == Opcode::FLAT_STORE_DWORD) {
            encodeLines(t_.memBytes, res, prevLine_);
        }
    }

    /** Append a store-log entry: @p line's current bytes in @p mem. */
    void
    logStore(Addr line, const GlobalMemory &mem)
    {
        putVarint(t_.storeBytes,
                  zigzag(static_cast<std::int64_t>(line) -
                         static_cast<std::int64_t>(prevStoreLine_)));
        prevStoreLine_ = line;
        const std::uint8_t *src = mem.span(line * kLineBytes, kLineBytes);
        t_.storeBytes.insert(t_.storeBytes.end(), src, src + kLineBytes);
    }

    /** Fix the slice's extents once the warp is done. */
    void
    close()
    {
        s_.branchBits = static_cast<std::uint32_t>(bit_ - s_.branchBase);
        s_.execCount =
            static_cast<std::uint32_t>(t_.execWords.size() - s_.execBase);
        s_.memLen =
            static_cast<std::uint32_t>(t_.memBytes.size() - s_.memBase);
        s_.storeLen =
            static_cast<std::uint32_t>(t_.storeBytes.size() - s_.storeBase);
        t_.totalInsts += s_.instCount;
    }

  private:
    LaunchTrace &t_;
    LaunchTrace::WarpSlice &s_;
    std::uint64_t bit_ = 0;
    Addr prevLine_ = 0;
    Addr prevStoreLine_ = 0;
};

// ---- Little-endian blob primitives (mirrors the artifact store) -----

constexpr std::uint32_t kTraceMagic = 0x52544850u; // "PHTR"

void
put32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
put64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/** Bounds-checked reader over a trace blob. */
struct BlobReader
{
    const std::uint8_t *data = nullptr;
    std::size_t len = 0;
    std::size_t pos = 0;
    bool ok = true;
    std::string error;

    bool
    need(std::size_t n, const char *what)
    {
        if (!ok)
            return false;
        if (pos + n > len) {
            ok = false;
            error = std::string("truncated trace blob reading ") + what;
            return false;
        }
        return true;
    }

    std::uint32_t
    get32(const char *what)
    {
        if (!need(4, what))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t{data[pos + i]} << (8 * i);
        pos += 4;
        return v;
    }

    std::uint64_t
    get64(const char *what)
    {
        if (!need(8, what))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t{data[pos + i]} << (8 * i);
        pos += 8;
        return v;
    }

    void
    fail(std::string msg)
    {
        if (ok) {
            ok = false;
            error = std::move(msg);
        }
    }
};

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

std::uint64_t
LaunchTrace::byteSize() const
{
    return warps.size() * sizeof(WarpSlice) +
           branchWords.size() * 8 + execWords.size() * 8 +
           memBytes.size() + storeBytes.size() + programName.size() +
           sizeof(LaunchTrace);
}

std::string
traceKey(const isa::Program &program, const LaunchDims &dims,
         const GlobalMemory &mem)
{
    std::string key = program.name();
    key += '@';
    key += hex64(program.codeHash());
    key += '@';
    key += std::to_string(dims.numWorkgroups);
    key += 'x';
    key += std::to_string(dims.wavesPerWorkgroup);
    key += '@';
    key += hex64(dims.kernargBase);
    key += '@';
    key += hex64(mem.contentHash());
    return key;
}

void
WarpCapturer::captureWorkgroup(const isa::Program &program,
                               const LaunchDims &dims, GlobalMemory &mem,
                               WorkgroupId wg, LaunchTrace &trace,
                               std::size_t first, bool log_stores)
{
    if (program.usesLds()) {
        capturePhases(program, dims, mem, wg, trace, first, log_stores);
        return;
    }
    // Waves run one at a time, straight into their slices. The store
    // log takes post-write line snapshots: replaying them in the same
    // order reproduces the memory evolution without executing register
    // semantics. With no LDS ops, the LDS stand-in is never read.
    const std::uint32_t n = dims.wavesPerWorkgroup;
    for (std::uint32_t i = 0; i < n; ++i) {
        SliceWriter out(trace, first + i);
        ws_.init(program, dims, wg * n + i);
        while (!ws_.done) {
            const isa::Instruction &inst = program.at(ws_.pc);
            emu_.step(program, ws_, mem, lds_, res_);
            out.record(inst, res_, ws_.exec);
            if (log_stores && inst.op == Opcode::FLAT_STORE_DWORD) {
                for (std::uint32_t l = 0; l < res_.numLines; ++l)
                    out.logStore(res_.lines[l], mem);
            }
        }
        out.close();
    }
}

void
WarpCapturer::capturePhases(const isa::Program &program,
                            const LaunchDims &dims, GlobalMemory &mem,
                            WorkgroupId wg, LaunchTrace &trace,
                            std::size_t first, bool log_stores)
{
    const std::uint32_t n = dims.wavesPerWorkgroup;
    if (waves_.size() < n)
        waves_.resize(n);
    std::vector<SliceWriter> outs;
    outs.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        PhaseWave &w = waves_[i];
        w.ws.init(program, dims, wg * n + i);
        resetTrace(w.buf, 1);
        w.storeLines.clear();
        outs.emplace_back(w.buf, 0);
    }
    lds_.assign(program.ldsBytes(), 0);

    // Each wave runs to its next s_barrier or s_endpgm, in wave order,
    // until every wave is done. A wave's streams go to its own buffer,
    // since slices must be contiguous.
    for (std::uint32_t left = n; left > 0;) {
        for (std::uint32_t i = 0; i < n; ++i) {
            PhaseWave &w = waves_[i];
            if (w.ws.done)
                continue;
            do {
                const isa::Instruction &inst = program.at(w.ws.pc);
                emu_.step(program, w.ws, mem, lds_, res_);
                outs[i].record(inst, res_, w.ws.exec);
                if (log_stores && inst.op == Opcode::FLAT_STORE_DWORD)
                    w.storeLines.insert(w.storeLines.end(),
                                        res_.lines.begin(),
                                        res_.lines.begin() + res_.numLines);
            } while (!w.ws.done && !res_.barrier);
            if (w.ws.done)
                --left;
        }
    }

    // Append the slices in warp order. The store snapshots are taken
    // now that the whole workgroup has finished, so every wave's log
    // carries the workgroup's final bytes of each line it wrote.
    for (std::uint32_t i = 0; i < n; ++i) {
        outs[i].close();
        const LaunchTrace &src = waves_[i].buf;
        const LaunchTrace::WarpSlice &s = src.warps[0];
        SliceWriter out(trace, first + i);
        for (std::uint64_t b = 0; b < s.branchBits; ++b)
            out.appendBit((src.branchWords[b >> 6] >> (b & 63)) & 1);
        trace.execWords.insert(trace.execWords.end(),
                               src.execWords.begin(), src.execWords.end());
        trace.memBytes.insert(trace.memBytes.end(), src.memBytes.begin(),
                              src.memBytes.end());
        for (Addr line : waves_[i].storeLines)
            out.logStore(line, mem);
        out.slice().instCount = s.instCount;
        out.close();
    }
}

void
WarpCapturer::captureAlone(const isa::Program &program,
                           const LaunchDims &dims, GlobalMemory &mem,
                           WorkgroupId wg, LaunchTrace &buf)
{
    resetTrace(buf, dims.wavesPerWorkgroup);
    captureWorkgroup(program, dims, mem, wg, buf, 0, false);
}

LaunchTracePtr
captureLaunchTrace(const isa::Program &program, const LaunchDims &dims,
                   GlobalMemory &mem)
{
    auto trace = std::make_shared<LaunchTrace>();
    trace->programName = program.name();
    trace->programHash = program.codeHash();
    trace->numWorkgroups = dims.numWorkgroups;
    trace->wavesPerWorkgroup = dims.wavesPerWorkgroup;
    trace->kernargBase = dims.kernargBase;
    trace->memFingerprint = mem.contentHash();

    trace->warps.resize(dims.totalWaves());
    WarpCapturer capturer;
    for (WorkgroupId wg = 0; wg < dims.numWorkgroups; ++wg)
        capturer.captureWorkgroup(program, dims, mem, wg, *trace,
                                  std::size_t{wg} * dims.wavesPerWorkgroup,
                                  true);
    return trace;
}

void
applyWarpStores(const LaunchTrace &trace, WarpId warp, GlobalMemory &mem)
{
    const LaunchTrace::WarpSlice &s = trace.warps[warp];
    std::uint64_t pos = s.storeBase;
    const std::uint64_t end = s.storeBase + s.storeLen;
    Addr prev_line = 0;
    Addr line = 0;
    while (pos < end) {
        bool have =
            storeEntry(trace.storeBytes, end, pos, prev_line, line);
        PHOTON_ASSERT(have, "trace store log truncated");
        mem.writeBlock(line * kLineBytes, trace.storeBytes.data() + pos,
                       kLineBytes);
        pos += kLineBytes;
    }
}

void
applyAllStores(const LaunchTrace &trace, GlobalMemory &mem)
{
    for (WarpId w = 0; w < trace.warps.size(); ++w)
        applyWarpStores(trace, w, mem);
}

void
WarpReplayCursor::step(const isa::Program &program, WaveState &ws,
                       StepResult &out)
{
    PHOTON_ASSERT(!ws.done, "stepping a finished wavefront");
    const isa::DecodedInst &dec = program.decodedAt(ws.pc);
    const isa::Instruction &inst = dec.inst;

    out.op = inst.op;
    out.unit = dec.unit;
    out.done = false;
    out.barrier = false;
    out.branchTaken = false;
    out.ldsAccesses = 0;
    out.linesWrite = false;
    out.numLines = 0;
    out.activeLanes = static_cast<std::uint32_t>(std::popcount(ws.exec));

    std::uint32_t next_pc = ws.pc + 1;

    auto take_bit = [&] {
        bool bit = (branchWords_[branchBit_ >> 6] >>
                    (branchBit_ & 63)) &
                   1;
        ++branchBit_;
        return bit;
    };
    auto decode_lines = [&] {
        std::uint64_t header = getVarint(memBytes_, memSize_, memPos_);
        std::uint32_t n = static_cast<std::uint32_t>(header >> 1);
        out.numLines = n;
        if (n == 0)
            return;
        std::uint64_t d = getVarint(memBytes_, memSize_, memPos_);
        Addr first = static_cast<Addr>(
            static_cast<std::int64_t>(prevLine_) + unzigzag(d));
        out.lines[0] = first;
        if (header & 1) {
            for (std::uint32_t i = 1; i < n; ++i)
                out.lines[i] = first + i;
        } else {
            for (std::uint32_t i = 1; i < n; ++i)
                out.lines[i] =
                    out.lines[i - 1] +
                    getVarint(memBytes_, memSize_, memPos_);
        }
        prevLine_ = first;
    };

    switch (inst.op) {
      case Opcode::S_BRANCH:
        out.branchTaken = true;
        next_pc = inst.target;
        break;
      case Opcode::S_CBRANCH_SCC0:
      case Opcode::S_CBRANCH_SCC1:
      case Opcode::S_CBRANCH_VCCZ:
      case Opcode::S_CBRANCH_VCCNZ:
      case Opcode::S_CBRANCH_EXECZ:
      case Opcode::S_CBRANCH_EXECNZ:
        if (take_bit()) {
            out.branchTaken = true;
            next_pc = inst.target;
        }
        break;
      case Opcode::S_MOV_MASK:
      case Opcode::S_AND_MASK:
      case Opcode::S_OR_MASK:
      case Opcode::S_ANDN2_MASK:
        if (inst.dst.value == isa::kMaskExec)
            ws.exec = execWords_[execIdx_++];
        break;
      case Opcode::S_BARRIER:
        out.barrier = true;
        break;
      case Opcode::S_ENDPGM:
        ws.done = true;
        out.done = true;
        break;
      case Opcode::S_LOAD_DWORD:
      case Opcode::FLAT_LOAD_DWORD:
        decode_lines();
        break;
      case Opcode::FLAT_STORE_DWORD:
        decode_lines();
        out.linesWrite = true;
        break;
      case Opcode::DS_READ_B32:
      case Opcode::DS_WRITE_B32:
        // Registers are not replayed, so LDS values never matter:
        // only the access count reaches the timing model.
        out.ldsAccesses = out.activeLanes;
        break;
      default:
        break;
    }

    ws.pc = next_pc;
}

void
serializeLaunchTrace(const LaunchTrace &trace,
                     std::vector<std::uint8_t> &out)
{
    put32(out, kTraceMagic);
    put32(out, kTraceFormatVersion);
    put32(out, static_cast<std::uint32_t>(trace.programName.size()));
    out.insert(out.end(), trace.programName.begin(),
               trace.programName.end());
    put64(out, trace.programHash);
    put32(out, trace.numWorkgroups);
    put32(out, trace.wavesPerWorkgroup);
    put64(out, trace.kernargBase);
    put64(out, trace.memFingerprint);
    put64(out, trace.totalInsts);
    put32(out, static_cast<std::uint32_t>(trace.warps.size()));
    for (const LaunchTrace::WarpSlice &s : trace.warps) {
        put64(out, s.branchBase);
        put64(out, s.execBase);
        put64(out, s.memBase);
        put64(out, s.storeBase);
        put64(out, s.instCount);
        put32(out, s.branchBits);
        put32(out, s.execCount);
        put32(out, s.memLen);
        put32(out, s.storeLen);
    }
    put64(out, trace.branchWords.size());
    for (std::uint64_t w : trace.branchWords)
        put64(out, w);
    put64(out, trace.execWords.size());
    for (std::uint64_t w : trace.execWords)
        put64(out, w);
    put64(out, trace.memBytes.size());
    out.insert(out.end(), trace.memBytes.begin(), trace.memBytes.end());
    put64(out, trace.storeBytes.size());
    out.insert(out.end(), trace.storeBytes.begin(),
               trace.storeBytes.end());
}

bool
deserializeLaunchTrace(const std::uint8_t *data, std::size_t len,
                       LaunchTrace &out, std::string *err)
{
    BlobReader r{data, len, 0, true, {}};
    auto bail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };

    if (r.get32("magic") != kTraceMagic)
        return bail(r.ok ? "bad trace magic" : r.error);
    std::uint32_t version = r.get32("version");
    if (r.ok && version != kTraceFormatVersion)
        return bail("unsupported trace format version " +
                    std::to_string(version));

    std::uint32_t name_len = r.get32("name length");
    if (!r.need(name_len, "program name"))
        return bail(r.error);
    out.programName.assign(reinterpret_cast<const char *>(data) + r.pos,
                           name_len);
    r.pos += name_len;

    out.programHash = r.get64("program hash");
    out.numWorkgroups = r.get32("workgroups");
    out.wavesPerWorkgroup = r.get32("waves per workgroup");
    out.kernargBase = r.get64("kernarg base");
    out.memFingerprint = r.get64("memory fingerprint");
    out.totalInsts = r.get64("instruction count");

    std::uint32_t warp_count = r.get32("warp count");
    if (!r.ok)
        return bail(r.error);
    if (warp_count !=
        std::uint64_t{out.numWorkgroups} * out.wavesPerWorkgroup)
        return bail("trace warp count does not match its geometry");
    if (!r.need(std::size_t{warp_count} * 56, "warp slices"))
        return bail(r.error);
    out.warps.resize(warp_count);
    for (LaunchTrace::WarpSlice &s : out.warps) {
        s.branchBase = r.get64("branch base");
        s.execBase = r.get64("exec base");
        s.memBase = r.get64("mem base");
        s.storeBase = r.get64("store base");
        s.instCount = r.get64("inst count");
        s.branchBits = r.get32("branch bits");
        s.execCount = r.get32("exec count");
        s.memLen = r.get32("mem length");
        s.storeLen = r.get32("store length");
    }

    auto read_words = [&](std::vector<std::uint64_t> &v,
                          const char *what) {
        std::uint64_t n = r.get64(what);
        if (!r.need(n * 8, what))
            return;
        v.resize(n);
        for (std::uint64_t i = 0; i < n; ++i)
            v[i] = r.get64(what);
    };
    auto read_bytes = [&](std::vector<std::uint8_t> &v,
                          const char *what) {
        std::uint64_t n = r.get64(what);
        if (!r.need(n, what))
            return;
        v.assign(data + r.pos, data + r.pos + n);
        r.pos += n;
    };
    read_words(out.branchWords, "branch words");
    read_words(out.execWords, "exec words");
    read_bytes(out.memBytes, "memory stream");
    read_bytes(out.storeBytes, "store stream");
    if (!r.ok)
        return bail(r.error);
    if (r.pos != len)
        return bail("trailing bytes after trace blob");

    // Structural validation: every slice must point inside its arena,
    // and the store log must decode cleanly (it is replayed straight
    // into simulated memory, so a corrupt log must be rejected here).
    for (WarpId w = 0; w < out.warps.size(); ++w) {
        const LaunchTrace::WarpSlice &s = out.warps[w];
        if (s.branchBase + s.branchBits > out.branchWords.size() * 64 ||
            s.execBase + s.execCount > out.execWords.size() ||
            s.memBase + s.memLen > out.memBytes.size() ||
            s.storeBase + s.storeLen > out.storeBytes.size())
            return bail("trace warp slice exceeds its arena");
        std::uint64_t pos = s.storeBase;
        const std::uint64_t end = s.storeBase + s.storeLen;
        Addr prev_line = 0;
        Addr line = 0;
        while (pos < end) {
            if (!storeEntry(out.storeBytes, end, pos, prev_line, line))
                return bail("trace store log truncated");
            pos += kLineBytes;
        }
        if (pos != end)
            return bail("trace store log misaligned");
    }
    return true;
}

} // namespace photon::func
