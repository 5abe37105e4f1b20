#include "serve/daemon.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "sim/log.hpp"

namespace photon::serve {

namespace {

namespace fs = std::filesystem;

/** Set from the SIGINT/SIGTERM handler; polled by the accept loop. */
volatile std::sig_atomic_t g_signal_stop = 0;

extern "C" void
onStopSignal(int)
{
    g_signal_stop = 1;
}

/** Dispatch one decoded request against the server. */
Response
handleRequest(SimServer &server, const Request &request,
              std::atomic<bool> &shutdown_requested)
{
    Response resp;
    resp.id = request.id;
    switch (request.op) {
      case Op::Ping:
        resp.ok = true;
        break;
      case Op::Shutdown:
        shutdown_requested.store(true);
        resp.ok = true;
        break;
      case Op::Status:
      case Op::Cache:
        resp.ok = true;
        resp.hasStatus = true;
        resp.status = server.status();
        break;
      case Op::Submit: {
        ServeResult result = server.runSync(request.spec);
        resp.ok = result.ok;
        resp.error = result.error;
        resp.hasResult = true;
        resp.result = std::move(result);
        break;
      }
    }
    return resp;
}

/** Decode a line, dispatch, encode — shared by both transports. */
std::string
handleLine(SimServer &server, const std::string &line,
           std::atomic<bool> &shutdown_requested)
{
    Request request;
    std::string err;
    if (!decodeRequest(line, request, &err)) {
        Response resp;
        resp.ok = false;
        resp.error = err;
        return encodeResponse(resp);
    }
    return encodeResponse(
        handleRequest(server, request, shutdown_requested));
}

/** Handler threads plus the shared stop flag they poll. */
struct Workers
{
    SimServer &server;
    std::atomic<bool> &shutdownRequested;
    std::atomic<bool> &stopping;
    std::mutex mu;
    std::vector<std::thread> threads;

    void
    spawn(std::thread t)
    {
        std::lock_guard<std::mutex> lock(mu);
        threads.push_back(std::move(t));
    }

    void
    joinAll()
    {
        std::lock_guard<std::mutex> lock(mu);
        for (std::thread &t : threads)
            t.join();
        threads.clear();
    }
};

/** One socket connection: serve request lines until EOF or stop. */
void
connectionLoop(Workers &workers, int fd)
{
    std::string line;
    // Bytes of a request line that straddles timeout slices: recvLine
    // restarts its line on every call, so the caller keeps the prefix.
    std::string partial;
    for (;;) {
        int n = net::recvLine(fd, line, 0.4);
        if (n < 0) {
            partial += line;
            // Timeout slice: keep reading unless the daemon is
            // draining — a drained daemon abandons idle connections.
            if (workers.stopping.load())
                break;
            continue;
        }
        if (n == 0 && partial.empty())
            break; // client closed
        line.insert(0, partial);
        partial.clear();
        if (line.empty())
            continue;
        std::string resp = handleLine(workers.server, line,
                                      workers.shutdownRequested);
        if (!net::sendLine(fd, resp))
            break;
    }
    net::closeFd(fd);
}

/** Scan the file-drop inbox and dispatch any complete request files. */
void
scanDropInbox(Workers &workers, const std::string &drop_dir)
{
    fs::path inbox = fs::path(drop_dir) / "inbox";
    std::error_code ec;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(inbox, ec)) {
        if (!entry.is_regular_file() ||
            entry.path().extension() != ".json")
            continue;
        fs::path claimed = entry.path();
        claimed += ".claimed";
        // Atomic claim: whichever scan renames first owns the request.
        std::error_code rename_ec;
        fs::rename(entry.path(), claimed, rename_ec);
        if (rename_ec)
            continue;
        std::string name = entry.path().filename().string();
        workers.spawn(std::thread([&workers, drop_dir, claimed, name] {
            std::ifstream in(claimed);
            std::stringstream buf;
            buf << in.rdbuf();
            in.close();
            std::error_code rm_ec;
            fs::remove(claimed, rm_ec);
            std::string line = buf.str();
            if (std::size_t nl = line.find('\n');
                nl != std::string::npos)
                line.erase(nl);
            std::string resp = handleLine(workers.server, line,
                                          workers.shutdownRequested);
            fs::path outbox = fs::path(drop_dir) / "outbox";
            fs::path tmp = outbox / (name + ".tmp");
            {
                std::ofstream out(tmp);
                out << resp << "\n";
            }
            std::error_code out_ec;
            fs::rename(tmp, outbox / name, out_ec);
        }));
    }
}

} // namespace

int
runDaemon(const DaemonOptions &options)
{
    if (options.socketPath.empty() && options.dropDir.empty()) {
        warn("serve: no transport configured (need --socket and/or "
             "--drop)");
        return 1;
    }

    int listener = -1;
    if (!options.socketPath.empty()) {
        std::string err;
        listener = net::listenUnix(options.socketPath, &err);
        if (listener < 0) {
            warn("serve: ", err);
            return 1;
        }
    }
    if (!options.dropDir.empty()) {
        std::error_code ec;
        fs::create_directories(fs::path(options.dropDir) / "inbox", ec);
        fs::create_directories(fs::path(options.dropDir) / "outbox", ec);
        if (ec) {
            warn("serve: cannot create drop directories under '",
                 options.dropDir, "': ", ec.message());
            net::closeFd(listener);
            return 1;
        }
    }

    if (options.installSignalHandlers) {
        g_signal_stop = 0;
        std::signal(SIGINT, onStopSignal);
        std::signal(SIGTERM, onStopSignal);
    }

    SimServer server(options.server);
    std::atomic<bool> shutdown_requested{false};
    std::atomic<bool> stopping{false};
    Workers workers{server, shutdown_requested, stopping, {}, {}};

    if (options.verbose) {
        std::printf(
            "photond: serving on %s%s%s (workers=%u, store=%s, "
            "protocol v%u)\n",
            options.socketPath.empty() ? "" : options.socketPath.c_str(),
            !options.socketPath.empty() && !options.dropDir.empty()
                ? " + "
                : "",
            options.dropDir.empty() ? "" : options.dropDir.c_str(),
            options.server.workers ? options.server.workers : 1,
            options.server.store.path.empty()
                ? "<none>"
                : options.server.store.path.c_str(),
            kProtocolVersion);
        std::fflush(stdout);
    }

    while (!g_signal_stop && !shutdown_requested.load() &&
           !(options.externalStop && options.externalStop->load())) {
        if (listener >= 0) {
            int fd = net::acceptClient(listener, options.pollMs);
            if (fd >= 0) {
                workers.spawn(std::thread(
                    [&workers, fd] { connectionLoop(workers, fd); }));
            } else if (fd == -2) {
                warn("serve: accept failed; shutting down");
                break;
            }
        } else {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(options.pollMs));
        }
        if (!options.dropDir.empty())
            scanDropInbox(workers, options.dropDir);
    }

    // Graceful drain: stop accepting, finish all admitted work, flush
    // the checkpoint, answer every connected client, then exit.
    if (options.verbose) {
        std::printf("photond: draining (finishing in-flight jobs, "
                    "flushing checkpoint)\n");
        std::fflush(stdout);
    }
    if (listener >= 0)
        net::closeFd(listener);
    server.drain();
    stopping.store(true);
    workers.joinAll();
    if (!options.socketPath.empty())
        net::unlinkPath(options.socketPath);

    if (options.verbose) {
        ServerStatus s = server.status();
        std::printf("photond: drained cleanly — %llu requests "
                    "(%llu executed, %llu dedup-collapsed), "
                    "%llu cache hits / %llu misses, "
                    "%llu interval-memo hits, %zu records in "
                    "store, %llu checkpoints\n",
                    static_cast<unsigned long long>(s.completed),
                    static_cast<unsigned long long>(s.store.jobsExecuted),
                    static_cast<unsigned long long>(
                        s.store.dedupCollapsed),
                    static_cast<unsigned long long>(s.store.cacheHits),
                    static_cast<unsigned long long>(s.store.cacheMisses),
                    static_cast<unsigned long long>(
                        s.store.intervalHits),
                    s.storeKernelRecords,
                    static_cast<unsigned long long>(
                        s.store.checkpoints));
        std::fflush(stdout);
    }
    return 0;
}

} // namespace photon::serve
