/**
 * @file
 * JSON string escaping shared by every hand-rolled JSON writer and
 * reader (telemetry documents, campaign reports, the photond wire
 * protocol). Writers escape '"' and '\\' with a backslash and control
 * characters as \u00XX; readers decode those plus \n, \t and \r.
 */

#ifndef PHOTON_SIM_JSON_HPP
#define PHOTON_SIM_JSON_HPP

#include <cstdio>
#include <cstdlib>
#include <string>

namespace photon {

/** Escape @p s for use inside a JSON string literal. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
            continue;
        }
        out.push_back(c);
    }
    return out;
}

/**
 * Decode one escape sequence whose backslash is already consumed:
 * @p p points at the escape letter (p < end) and is advanced past the
 * sequence. Only \u00XX code points are supported (the escapes
 * jsonEscape emits). Returns false on a truncated \u escape.
 */
inline bool
jsonUnescape(const char *&p, const char *end, char &out)
{
    char esc = *p++;
    switch (esc) {
      case 'n': out = '\n'; return true;
      case 't': out = '\t'; return true;
      case 'r': out = '\r'; return true;
      case 'u': {
          if (end - p < 4)
              return false;
          char hex[5] = {p[0], p[1], p[2], p[3], 0};
          out = static_cast<char>(std::strtoul(hex, nullptr, 16));
          p += 4;
          return true;
      }
      default: out = esc; return true;
    }
}

} // namespace photon

#endif // PHOTON_SIM_JSON_HPP
