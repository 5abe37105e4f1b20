#include "serve/net.hpp"

#include <cerrno>
#include <cstring>

#if !defined(_WIN32)
#define PHOTON_HAVE_UNIX_SOCKETS 1
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define PHOTON_HAVE_UNIX_SOCKETS 0
#endif

namespace photon::serve::net {

bool
available()
{
    return PHOTON_HAVE_UNIX_SOCKETS != 0;
}

#if PHOTON_HAVE_UNIX_SOCKETS

namespace {

bool
fillAddr(const std::string &path, sockaddr_un &addr, std::string *error)
{
    if (path.size() >= sizeof(addr.sun_path)) {
        if (error)
            *error = "socket path too long (" +
                     std::to_string(path.size()) + " bytes, max " +
                     std::to_string(sizeof(addr.sun_path) - 1) + "): " +
                     path;
        return false;
    }
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return true;
}

void
setRecvTimeout(int fd, int ms)
{
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    (void)setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

} // namespace

int
listenUnix(const std::string &path, std::string *error)
{
    sockaddr_un addr;
    if (!fillAddr(path, addr, error))
        return -1;
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = std::string("socket(): ") + std::strerror(errno);
        return -1;
    }
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
        0) {
        if (error)
            *error = "bind(" + path + "): " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    if (::listen(fd, 64) < 0) {
        if (error)
            *error = "listen(" + path + "): " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

int
acceptClient(int listener_fd, int timeout_ms)
{
    pollfd pfd{};
    pfd.fd = listener_fd;
    pfd.events = POLLIN;
    int n = ::poll(&pfd, 1, timeout_ms);
    if (n == 0)
        return -1; // timeout
    if (n < 0)
        return errno == EINTR ? -1 : -2;
    int fd = ::accept(listener_fd, nullptr, nullptr);
    if (fd < 0)
        return errno == EINTR || errno == EAGAIN ? -1 : -2;
    // Short receive timeout so connection readers can poll stop flags.
    setRecvTimeout(fd, 200);
    return fd;
}

int
connectUnix(const std::string &path, std::string *error)
{
    sockaddr_un addr;
    if (!fillAddr(path, addr, error))
        return -1;
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = std::string("socket(): ") + std::strerror(errno);
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        if (error)
            *error = "connect(" + path + "): " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    setRecvTimeout(fd, 200);
    return fd;
}

bool
sendLine(int fd, const std::string &data)
{
    std::string out = data;
    out.push_back('\n');
    std::size_t sent = 0;
    while (sent < out.size()) {
        ssize_t n = ::send(fd, out.data() + sent, out.size() - sent,
#ifdef MSG_NOSIGNAL
                           MSG_NOSIGNAL
#else
                           0
#endif
        );
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

int
recvLine(int fd, std::string &line, double deadline_seconds)
{
    line.clear();
    // Peek at what has arrived, then consume exactly through the first
    // '\n': two syscalls per line, and the next line stays queued. The
    // socket's 200 ms receive timeout slices the wait; accumulate
    // slices until the caller's deadline elapses.
    double waited = 0.0;
    char buf[4096];
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_PEEK);
        if (n > 0) {
            const char *nl = static_cast<const char *>(
                std::memchr(buf, '\n', static_cast<std::size_t>(n)));
            const std::size_t take =
                nl ? static_cast<std::size_t>(nl - buf) + 1
                   : static_cast<std::size_t>(n);
            ssize_t got = ::recv(fd, buf, take, 0);
            if (got < 0 && errno == EINTR)
                continue;
            if (got <= 0)
                return -1;
            const bool done =
                nl && static_cast<std::size_t>(got) == take;
            line.append(buf, done ? take - 1
                                  : static_cast<std::size_t>(got));
            if (line.size() > kMaxLineBytes)
                return -1;
            if (done)
                return 1;
            continue;
        }
        if (n == 0)
            return line.empty() ? 0 : 1; // EOF; a partial line counts
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            waited += 0.2;
            if (waited >= deadline_seconds)
                return -1;
            continue;
        }
        return -1;
    }
}

void
closeFd(int fd)
{
    if (fd >= 0)
        ::close(fd);
}

void
unlinkPath(const std::string &path)
{
    ::unlink(path.c_str());
}

#else // !PHOTON_HAVE_UNIX_SOCKETS

namespace {
int
unsupported(std::string *error)
{
    if (error)
        *error = "Unix-domain sockets are not available on this "
                 "platform; use the --drop file-drop transport";
    return -1;
}
} // namespace

int
listenUnix(const std::string &, std::string *error)
{
    return unsupported(error);
}

int
acceptClient(int, int)
{
    return -2;
}

int
connectUnix(const std::string &, std::string *error)
{
    return unsupported(error);
}

bool
sendLine(int, const std::string &)
{
    return false;
}

int
recvLine(int, std::string &, double)
{
    return -1;
}

void
closeFd(int)
{}

void
unlinkPath(const std::string &)
{}

#endif // PHOTON_HAVE_UNIX_SOCKETS

} // namespace photon::serve::net
