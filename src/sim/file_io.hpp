/**
 * @file
 * Crash-safe whole-file rewrite: the bytes go to a temporary file in
 * the target's directory, which is fsync'ed and then renamed over the
 * target. A failed or interrupted write leaves the previous file
 * byte-identical, and readers see either the old file or the new one.
 */

#ifndef PHOTON_SIM_FILE_IO_HPP
#define PHOTON_SIM_FILE_IO_HPP

#include <string>
#include <string_view>

namespace photon {

/** Replace @p path's contents with @p bytes (see the file comment).
 *  Returns false and sets @p error on failure. */
bool writeFileAtomic(const std::string &path, std::string_view bytes,
                     std::string &error);

} // namespace photon

#endif // PHOTON_SIM_FILE_IO_HPP
