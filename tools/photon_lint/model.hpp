/**
 * @file
 * Internal program model photon_lint builds from the token streams:
 * functions with their annotation tags, name-level call sites and
 * mutation sites; fields with type and initialization info; type
 * aliases; and constructor-initializer coverage per class.
 */

#ifndef PHOTON_LINT_MODEL_HPP
#define PHOTON_LINT_MODEL_HPP

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cfg.hpp"
#include "lexer.hpp"
#include "lint.hpp"

namespace photon::lint {

struct CallSite
{
    std::string callee; ///< bare name
    std::string file;
    int line = 0;
};

struct MutationSite
{
    std::string target; ///< bare name of the written variable/field
    std::string file;
    int line = 0;
    std::string how; ///< "=", "++", ".push_back", ...
};

struct RangeForSite
{
    std::string base; ///< last identifier of the range expression
    std::string file;
    int line = 0;
    bool waived = false; ///< "// photon-lint: order-insensitive"
};

struct Function
{
    std::string cls;  ///< enclosing/explicit class, "" for free functions
    std::string name;
    std::string file;
    int line = 0;
    bool tagShared = false;
    bool tagExempt = false;
    bool tagDetSink = false;     ///< PHOTON_DET_SINK
    bool tagDetSourceOk = false; ///< PHOTON_DET_SOURCE_OK
    /** PHOTON_REQUIRES_LOCK(mutex): the body is analyzed with the
     *  mutex held, and call sites must actually hold it. */
    std::string requiresLock;
    bool hasBody = false;
    /** Control-flow graph of the body (set when hasBody). */
    std::shared_ptr<const Cfg> cfg;
    std::vector<CallSite> calls;
    std::vector<MutationSite> mutations;
    std::vector<RangeForSite> rangeFors;

    std::string display() const
    {
        return cls.empty() ? name : cls + "::" + name;
    }
};

struct Field
{
    std::string cls;
    std::string name;
    std::string type; ///< space-joined declaration type tokens
    /** Space-joined tokens of the declaration's template argument
     *  lists (the `Wave` of `std::vector<Wave>`); type keeps only a
     *  `<` marker. */
    std::string templateArgs;
    std::string file;
    int line = 0;
    bool tagShared = false;
    bool tagDetSink = false;  ///< PHOTON_DET_SINK (accumulator field)
    /** PHOTON_GUARDED_BY(mutex): writes require the mutex held on
     *  every CFG path (checked by the lock-set pass). */
    std::string guardMutex;
    bool hasInit = false;  ///< default member initializer present
    bool isStatic = false; ///< static / constexpr
    bool isRef = false;    ///< reference type (ctor-init enforced by C++)
    bool waivedUninit = false; ///< "// photon-lint: uninit-ok"
    bool waivedAos = false;    ///< "// photon-lint: aos-ok"
};

/** Whole-program model, merged across translation units. */
struct Model
{
    std::vector<Function> functions;
    /** (cls, name) -> index into functions; declarations and
     *  definitions merge tags into one record. */
    std::map<std::string, std::size_t> functionIndex;
    std::vector<Field> fields;
    /** Alias bare name -> space-joined right-hand-side tokens. */
    std::map<std::string, std::string> aliases;
    /** Variable/field/parameter name -> declared type strings. */
    std::map<std::string, std::vector<std::string>> varTypes;
    /** Class -> member names covered by some constructor init list or
     *  assigned in a constructor body. */
    std::map<std::string, std::set<std::string>> ctorInits;
    /** Files carrying a `// photon-lint: soa-hot-path` marker: their
     *  fields opt into the structure-of-arrays layout check. */
    std::set<std::string> hotPathFiles;
    /** Token-level findings gathered during parsing (determinism). */
    std::vector<Diagnostic> tokenDiags;

    Function &functionFor(const std::string &cls, const std::string &name,
                          const std::string &file, int line);
};

/** Parse one lexed file into the model. */
void parseFile(const LexedFile &file, Model &model, const Options &options);

/** Whole-model determinism checks (unordered iteration, uninitialized
 *  members); token-level findings are already in tokenDiags. */
void checkDeterminism(const Model &model, std::vector<Diagnostic> &out);

/** Data-layout pass: aggregate-element sequence containers declared in
 *  hot-path (soa-hot-path) files. */
void checkAosHotPath(const Model &model, std::vector<Diagnostic> &out);

/** Flow-sensitive lock-set pass: writes to PHOTON_GUARDED_BY /
 *  PHOTON_SHARED_STATE fields must hold the right mutex on every CFG
 *  path, and calls into
 *  PHOTON_REQUIRES_LOCK functions must hold the stated mutex. */
void checkLockset(const Model &model, std::vector<Diagnostic> &out);

/** Flow-sensitive determinism taint pass: nondeterministic sources
 *  propagate through assignments, returns, and call arguments into
 *  PHOTON_DET_SINK functions and fields; reports the full chain. */
void checkTaint(const Model &model, std::vector<Diagnostic> &out);

/** True when @p name is typed (including through aliases) as an
 *  unordered container. Shared by determinism and taint passes. */
bool varIsUnordered(const Model &model, const std::string &name);

} // namespace photon::lint

#endif // PHOTON_LINT_MODEL_HPP
