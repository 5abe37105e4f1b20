/**
 * @file
 * The model-level determinism checks (unordered iteration,
 * uninitialized members) and the data-layout check.
 */

#include <algorithm>
#include <map>
#include <set>

#include "model.hpp"

namespace photon::lint {

namespace {

bool
typeIsUnordered(const Model &model, const std::string &type,
                std::set<std::string> &seen);

bool
wordIsUnordered(const Model &model, const std::string &word,
                std::set<std::string> &seen)
{
    if (word == "unordered_map" || word == "unordered_set")
        return true;
    auto it = model.aliases.find(word);
    if (it == model.aliases.end() || !seen.insert(word).second)
        return false;
    return typeIsUnordered(model, it->second, seen);
}

bool
typeIsUnordered(const Model &model, const std::string &type,
                std::set<std::string> &seen)
{
    std::string word;
    for (std::size_t k = 0; k <= type.size(); ++k) {
        char c = k < type.size() ? type[k] : ' ';
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
            word += c;
            continue;
        }
        if (!word.empty() && wordIsUnordered(model, word, seen))
            return true;
        word.clear();
    }
    return false;
}

} // namespace

bool
varIsUnordered(const Model &model, const std::string &name)
{
    auto it = model.varTypes.find(name);
    if (it == model.varTypes.end())
        return false;
    for (const std::string &type : it->second) {
        std::set<std::string> seen;
        if (typeIsUnordered(model, type, seen))
            return true;
    }
    return false;
}

namespace {

const std::set<std::string> kScalarWords = {
    "bool",     "int",      "char",     "float",    "double",
    "size_t",   "ptrdiff_t", "int8_t",  "int16_t",  "int32_t",
    "int64_t",  "uint8_t",  "uint16_t", "uint32_t", "uint64_t",
    "uintptr_t", "intptr_t", "wchar_t",
};

const std::set<std::string> kTypeQualifiers = {
    "const", "volatile", "mutable",  "typename", "struct", "class",
    "enum",  "std",      "unsigned", "signed",   "long",   "short",
    "inline",
};

/** True when @p type names a scalar (integer/float/pointer) type,
 *  resolving one level of `using` aliases. */
bool
typeIsScalar(const Model &model, const std::string &type, int depth)
{
    if (depth > 4)
        return false;
    if (type.find('<') != std::string::npos ||
        type.find('&') != std::string::npos)
        return false;
    if (type.find('*') != std::string::npos)
        return true;
    std::string last;
    std::string word;
    bool saw_builtin_qualifier = false;
    for (std::size_t k = 0; k <= type.size(); ++k) {
        char c = k < type.size() ? type[k] : ' ';
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
            word += c;
            continue;
        }
        if (!word.empty()) {
            if (word == "unsigned" || word == "signed" ||
                word == "long" || word == "short")
                saw_builtin_qualifier = true;
            if (!kTypeQualifiers.count(word))
                last = word;
            word.clear();
        }
    }
    if (last.empty())
        return saw_builtin_qualifier; // plain `unsigned x;` etc.
    if (kScalarWords.count(last))
        return true;
    auto it = model.aliases.find(last);
    return it != model.aliases.end() &&
           typeIsScalar(model, it->second, depth + 1);
}

} // namespace

void
checkDeterminism(const Model &model, std::vector<Diagnostic> &out)
{
    // Range-for over unordered containers in any analyzed function.
    for (const Function &fn : model.functions) {
        for (const RangeForSite &site : fn.rangeFors) {
            if (site.waived || !varIsUnordered(model, site.base))
                continue;
            Diagnostic d;
            d.kind = Kind::UnorderedIteration;
            d.file = site.file;
            d.line = site.line;
            d.message =
                "range-for over unordered container '" + site.base +
                "' in '" + fn.display() +
                "' iterates in hash order; sort keys first or waive "
                "with `// photon-lint: order-insensitive`";
            out.push_back(std::move(d));
        }
    }

    // Scalar members no constructor initializes.
    std::map<std::string, std::set<std::string>> covered =
        model.ctorInits;
    for (const Function &fn : model.functions) {
        if (fn.cls.empty() || fn.name != fn.cls)
            continue; // not a constructor
        for (const MutationSite &mut : fn.mutations)
            covered[fn.cls].insert(mut.target);
    }
    for (const Field &f : model.fields) {
        if (f.hasInit || f.isStatic || f.isRef || f.waivedUninit)
            continue;
        if (!typeIsScalar(model, f.type, 0))
            continue;
        auto it = covered.find(f.cls);
        if (it != covered.end() && it->second.count(f.name))
            continue;
        Diagnostic d;
        d.kind = Kind::UninitializedMember;
        d.file = f.file;
        d.line = f.line;
        d.message = "scalar member '" +
                    (f.cls.empty() ? f.name : f.cls + "::" + f.name) +
                    "' has no default initializer and no constructor "
                    "initializes it";
        out.push_back(std::move(d));
    }
}

namespace {

/** Append the identifier words of @p text to @p out, expanding type
 *  aliases one level at a time (cycle-guarded via @p seen). */
void
expandWords(const Model &model, const std::string &text,
            std::set<std::string> &seen, std::vector<std::string> &out)
{
    std::string word;
    for (std::size_t k = 0; k <= text.size(); ++k) {
        char c = k < text.size() ? text[k] : ' ';
        if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
            word += c;
            continue;
        }
        if (!word.empty()) {
            auto it = model.aliases.find(word);
            if (it != model.aliases.end() && seen.insert(word).second)
                expandWords(model, it->second, seen, out);
            else
                out.push_back(word);
            word.clear();
        }
    }
}

bool
isSequenceWord(const std::string &word)
{
    return word == "vector" || word == "deque" || word == "array";
}

} // namespace

void
checkAosHotPath(const Model &model, std::vector<Diagnostic> &out)
{
    if (model.hotPathFiles.empty())
        return;

    // An "aggregate" is any class the model knows two or more data
    // members of: storing such elements contiguously is the
    // array-of-structures shape the soa-hot-path contract bans.
    std::map<std::string, int> member_counts;
    for (const Field &f : model.fields) {
        if (!f.isStatic)
            ++member_counts[f.cls];
    }

    for (const Field &f : model.fields) {
        if (!model.hotPathFiles.count(f.file) || f.waivedAos)
            continue;
        std::set<std::string> seen;
        std::vector<std::string> words;
        expandWords(model, f.type, seen, words);
        expandWords(model, f.templateArgs, seen, words);
        std::string container;
        std::string aggregate;
        for (const std::string &w : words) {
            if (container.empty() && isSequenceWord(w))
                container = w;
            else if (aggregate.empty()) {
                auto it = member_counts.find(w);
                if (it != member_counts.end() && it->second >= 2)
                    aggregate = w;
            }
        }
        if (container.empty() || aggregate.empty())
            continue;
        Diagnostic d;
        d.kind = Kind::AosInHotPath;
        d.file = f.file;
        d.line = f.line;
        d.message =
            "field '" +
            (f.cls.empty() ? f.name : f.cls + "::" + f.name) +
            "' stores aggregate '" + aggregate + "' in a '" + container +
            "' inside a soa-hot-path file: array-of-structures defeats "
            "the SoA layout; split into parallel arrays or waive a cold "
            "path with `// photon-lint: aos-ok`";
        out.push_back(std::move(d));
    }
}

} // namespace photon::lint
