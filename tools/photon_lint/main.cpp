/**
 * @file
 * photon_lint CLI.
 *
 * Usage: photon_lint [--no-determinism] [--no-aos] [--no-lockset]
 *                    [--no-taint] [--json[=PATH]]
 *                    <file-or-dir>...
 *
 * Directories are scanned recursively for .cpp/.cc/.hpp/.h sources.
 * All named sources are analyzed as one program (the call graph and
 * the annotation tags span translation units). Exit status is 1 when
 * any violation is reported, 0 otherwise.
 *
 * `--json` replaces the human-readable report on stdout with a JSON
 * array; `--json=PATH` writes the JSON to PATH while keeping the
 * human-readable lines on stdout (so CI problem matchers still see
 * them).
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace fs = std::filesystem;

namespace {

bool
isSource(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h";
}

void
gather(const fs::path &p, std::vector<std::string> &out)
{
    if (fs::is_directory(p)) {
        for (const auto &e : fs::recursive_directory_iterator(p)) {
            if (e.is_regular_file() && isSource(e.path()))
                out.push_back(e.path().string());
        }
    } else {
        out.push_back(p.string());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    photon::lint::Options options;
    std::vector<std::string> files;
    bool json = false;
    std::string jsonPath;
    for (int k = 1; k < argc; ++k) {
        std::string arg = argv[k];
        if (arg == "--no-determinism") {
            options.determinismCheck = false;
        } else if (arg == "--no-aos") {
            options.aosCheck = false;
        } else if (arg == "--no-lockset") {
            options.locksetCheck = false;
        } else if (arg == "--no-taint") {
            options.taintCheck = false;
        } else if (arg == "--json") {
            json = true;
        } else if (arg.rfind("--json=", 0) == 0) {
            json = true;
            jsonPath = arg.substr(7);
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: photon_lint "
                        "[--no-determinism] [--no-aos] "
                        "[--no-lockset] [--no-taint] "
                        "[--json[=PATH]] <file-or-dir>...\n");
            return 0;
        } else {
            gather(arg, files);
        }
    }
    if (files.empty()) {
        std::fprintf(stderr, "photon_lint: no input files\n");
        return 2;
    }
    std::sort(files.begin(), files.end());

    std::vector<photon::lint::Diagnostic> diags;
    try {
        diags = photon::lint::analyzeFiles(files, options);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "photon_lint: %s\n", e.what());
        return 2;
    }

    if (json) {
        const std::string doc = photon::lint::formatDiagnosticsJson(diags);
        if (jsonPath.empty()) {
            std::fputs(doc.c_str(), stdout);
        } else {
            std::ofstream out(jsonPath);
            if (!out) {
                std::fprintf(stderr,
                             "photon_lint: cannot write '%s'\n",
                             jsonPath.c_str());
                return 2;
            }
            out << doc;
        }
    }
    if (!json || !jsonPath.empty()) {
        for (const auto &d : diags)
            std::printf("%s\n",
                        photon::lint::formatDiagnostic(d).c_str());
    }
    if (!diags.empty()) {
        std::fprintf(stderr,
                     "photon_lint: %zu violation%s in %zu file%s\n",
                     diags.size(), diags.size() == 1 ? "" : "s",
                     files.size(), files.size() == 1 ? "" : "s");
        return 1;
    }
    std::fprintf(json && jsonPath.empty() ? stderr : stdout,
                 "photon_lint: OK (%zu files analyzed)\n",
                 files.size());
    return 0;
}
