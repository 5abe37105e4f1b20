#include "sim/file_io.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace photon {

bool
writeFileAtomic(const std::string &path, std::string_view bytes,
                std::string &error)
{
    // Next to the target, so the rename never crosses a file system.
    std::string tmp = path + ".XXXXXX";
    int fd = ::mkstemp(tmp.data());
    if (fd < 0) {
        error = "cannot open '" + path + "' for writing: " +
                std::strerror(errno);
        return false;
    }
    const char *failed = nullptr;
    int err = 0;
    auto check = [&](bool ok, const char *what) {
        if (!ok && !failed) {
            failed = what;
            err = errno;
        }
    };
    for (std::size_t done = 0; done < bytes.size() && !failed;) {
        ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        check(n > 0, "write");
        done += n > 0 ? static_cast<std::size_t>(n) : 0;
    }
    if (!failed)
        check(::fchmod(fd, 0644) == 0, "chmod");
    if (!failed)
        check(::fsync(fd) == 0, "fsync");
    check(::close(fd) == 0, "close");
    if (!failed)
        check(std::rename(tmp.c_str(), path.c_str()) == 0, "rename");
    if (failed) {
        error = std::string(failed) + " of '" + path + "' failed: " +
                (err ? std::strerror(err) : "short write") +
                "; the previous file is unchanged";
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace photon
