/**
 * @file
 * Client helpers for `photon_sim submit` / `status` / `cache` /
 * `shutdown`: send one request to a running photond over its Unix
 * socket and decode the response.
 */

#ifndef PHOTON_SERVE_CLIENT_HPP
#define PHOTON_SERVE_CLIENT_HPP

#include <string>

#include "serve/protocol.hpp"

namespace photon::serve {

/** One request/response exchange outcome. */
struct ClientResult
{
    bool ok = false;       ///< transport + protocol decode succeeded
    std::string error;     ///< transport/decode failure description
    std::string rawLine;   ///< raw response line (for --json passthrough)
    Response response{};   ///< decoded response (valid when ok)
};

/**
 * Send @p request over the Unix-domain socket at @p socket_path and
 * wait up to @p timeout_seconds for the response line.
 */
ClientResult requestOverSocket(const std::string &socket_path,
                               const Request &request,
                               double timeout_seconds = 300.0);

} // namespace photon::serve

#endif // PHOTON_SERVE_CLIENT_HPP
