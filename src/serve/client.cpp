#include "serve/client.hpp"

#include "serve/net.hpp"

namespace photon::serve {

namespace {

ClientResult
failResult(std::string why)
{
    ClientResult r;
    r.ok = false;
    r.error = std::move(why);
    return r;
}

} // namespace

ClientResult
requestOverSocket(const std::string &socket_path, const Request &request,
                  double timeout_seconds)
{
    std::string err;
    int fd = net::connectUnix(socket_path, &err);
    if (fd < 0)
        return failResult(err);
    if (!net::sendLine(fd, encodeRequest(request))) {
        net::closeFd(fd);
        return failResult("send failed on " + socket_path);
    }
    ClientResult r;
    int n = net::recvLine(fd, r.rawLine, timeout_seconds);
    net::closeFd(fd);
    if (n <= 0)
        return failResult(n == 0 ? "daemon closed the connection"
                                 : "timed out waiting for response");
    if (!decodeResponse(r.rawLine, r.response, &err))
        return failResult("bad response from daemon: " + err);
    r.ok = true;
    return r;
}

} // namespace photon::serve
