/**
 * @file
 * Minimal C++ tokenizer for photon_lint. Produces identifier / number /
 * string / punctuation tokens with line numbers, skips comments and
 * preprocessor directives (honouring line continuations), and records
 * `// photon-lint: <waiver>` comments by line so checks can consult
 * call-site waivers.
 *
 * This is deliberately not a real C++ front end: photon_lint works on
 * token patterns and a name-level call graph (see DESIGN.md §9), which
 * is enough to enforce the annotated contracts without a libclang
 * dependency.
 */

#ifndef PHOTON_LINT_LEXER_HPP
#define PHOTON_LINT_LEXER_HPP

#include <map>
#include <string>
#include <vector>

namespace photon::lint {

struct Token
{
    enum class Kind
    {
        Ident,
        Number,
        String,
        Punct,
        End,
    };

    Kind kind = Kind::End;
    std::string text;
    int line = 0;

    bool is(const char *t) const { return text == t; }
    bool isIdent() const { return kind == Kind::Ident; }
};

/** One tokenized source file. */
struct LexedFile
{
    std::string path;
    std::vector<Token> tokens; ///< terminated by an End token
    /** line -> waiver text following "photon-lint:" in a line comment. */
    std::map<int, std::string> waivers;

    /** True when @p line carries a waiver containing @p word. */
    bool waived(int line, const std::string &word) const
    {
        auto it = waivers.find(line);
        return it != waivers.end() &&
               it->second.find(word) != std::string::npos;
    }
};

/** Tokenize @p source, reporting @p path in diagnostics. */
LexedFile lexSource(const std::string &path, const std::string &source);

/** Read and tokenize @p path; throws std::runtime_error on I/O error. */
LexedFile lexFile(const std::string &path);

} // namespace photon::lint

#endif // PHOTON_LINT_LEXER_HPP
