/**
 * @file
 * The `photon_sim serve` front end: binds the SimServer to a
 * Unix-domain socket, its one transport, speaks the newline-delimited
 * JSON protocol over it, and implements graceful drain — on
 * SIGINT/SIGTERM (or a `shutdown` request) the daemon stops admitting,
 * finishes every in-flight and queued job, flushes the store
 * checkpoint, and exits 0.
 */

#ifndef PHOTON_SERVE_DAEMON_HPP
#define PHOTON_SERVE_DAEMON_HPP

#include <atomic>
#include <string>

#include "serve/server.hpp"

namespace photon::serve {

/** Daemon configuration. */
struct DaemonOptions
{
    std::string socketPath; ///< required: the listening socket's path
    ServerOptions server{};
    /** Install SIGINT/SIGTERM handlers that trigger graceful drain.
     *  Off for in-process tests, which stop via @ref externalStop. */
    bool installSignalHandlers = true;
    /** Optional external stop flag polled by the accept loop. */
    std::atomic<bool> *externalStop = nullptr;
    /** Accept-loop poll granularity in milliseconds. */
    int pollMs = 100;
    bool verbose = true;
};

/**
 * Run the daemon until a stop condition, then drain. Returns the
 * process exit code (0 on clean drain, 1 on a startup failure: no
 * socket path, or an unbindable one).
 */
int runDaemon(const DaemonOptions &options);

} // namespace photon::serve

#endif // PHOTON_SERVE_DAEMON_HPP
