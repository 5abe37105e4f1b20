/**
 * @file
 * Minimal line-oriented Unix-domain-socket helpers shared by the
 * daemon front end (serve/daemon.cpp) and the client (serve/client.cpp).
 * Everything returns -1 / false + an error string instead of throwing;
 * callers decide whether a failure is fatal.
 */

#ifndef PHOTON_SERVE_NET_HPP
#define PHOTON_SERVE_NET_HPP

#include <cstddef>
#include <string>

namespace photon::serve::net {

/** Always true: every supported platform has Unix-domain sockets.
 *  Kept because the benchmark driver (perfbench/photond.cpp) asks. */
bool available();

/** Create + bind + listen on @p path (an existing socket file is
 *  replaced). Returns the listener fd or -1 + @p error. */
int listenUnix(const std::string &path, std::string *error);

/** Accept with a poll timeout; returns the connection fd, -1 on
 *  timeout, -2 on a real error. Accepted sockets get a short receive
 *  timeout so reader loops can observe shutdown flags. */
int acceptClient(int listener_fd, int timeout_ms);

/** Connect to @p path; fd or -1 + @p error. */
int connectUnix(const std::string &path, std::string *error);

/** Send all of @p data (+ '\n'); false on error. */
bool sendLine(int fd, const std::string &data);

/** Longest line recvLine accepts, terminator excluded. The protocol's
 *  largest line, a `status` reply, is well under 2 KiB. */
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

/**
 * Read one '\n'-terminated line (the terminator is stripped). Returns
 * 1 on a line, 0 on orderly EOF before any byte, -1 on error/timeout
 * or once the line exceeds kMaxLineBytes. @p deadline_seconds bounds
 * the total wait. @p line is cleared on entry; on -1 it holds the bytes
 * consumed so far, which a caller polling in short slices must keep and
 * prepend to the next read (and hold to kMaxLineBytes itself). Bytes
 * after the terminator stay in the socket for the next call, so a
 * pipelined request is never swallowed.
 */
int recvLine(int fd, std::string &line, double deadline_seconds);

/** Close an fd (no-op for negatives). */
void closeFd(int fd);

/** Remove a socket file (best effort). */
void unlinkPath(const std::string &path);

} // namespace photon::serve::net

#endif // PHOTON_SERVE_NET_HPP
