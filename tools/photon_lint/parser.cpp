/**
 * @file
 * Token-pattern parser: builds the whole-program model (functions,
 * call/mutation sites, fields, aliases, constructor-init coverage)
 * from lexed sources, plus the token-level determinism findings.
 *
 * It is a heuristic scanner, not a C++ front end: scopes are tracked
 * through brace matching, functions are recognized as
 * `name ( params ) [const ...] {` at namespace/class scope, and calls
 * are recorded by bare name. See DESIGN.md §9 for what this can and
 * cannot catch.
 */

#include <set>

#include "model.hpp"

namespace photon::lint {

Function &
Model::functionFor(const std::string &cls, const std::string &name,
                   const std::string &file, int line)
{
    std::string key = cls + "::" + name;
    auto it = functionIndex.find(key);
    if (it != functionIndex.end())
        return functions[it->second];
    functionIndex.emplace(key, functions.size());
    Function fn;
    fn.cls = cls;
    fn.name = name;
    fn.file = file;
    fn.line = line;
    functions.push_back(fn);
    return functions.back();
}

namespace {

const std::set<std::string> kCallKeywords = {
    "if",     "for",   "while",  "switch", "return", "sizeof",
    "alignof", "catch", "new",    "delete", "throw",  "decltype",
    "static_assert", "defined", "do", "else", "case",
};

const std::set<std::string> kMutatingMethods = {
    "clear",   "push_back", "pop_back",     "insert",  "emplace",
    "emplace_back", "try_emplace", "assign", "resize", "erase",
    "reserve", "store",     "fetch_add",    "fetch_sub", "exchange",
    "push",    "pop",       "swap",
};

const std::set<std::string> kAssignOps = {
    "=",  "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=",
};

const std::set<std::string> kBannedCalls = {
    "rand", "srand", "drand48", "lrand48", "gettimeofday", "time",
    "clock",
};

bool
isTag(const std::string &t)
{
    return t == "PHOTON_SHARED_STATE" || t == "PHOTON_PHASE_EXEMPT" ||
           t == "PHOTON_DET_SINK" || t == "PHOTON_DET_SOURCE_OK";
}

class Parser
{
  public:
    Parser(const LexedFile &file, Model &model, const Options &options)
        : f_(file), m_(model), o_(options)
    {}

    void
    run()
    {
        for (const auto &waiver : f_.waivers) {
            if (waiver.second.find("soa-hot-path") != std::string::npos) {
                m_.hotPathFiles.insert(f_.path);
                break;
            }
        }
        parseScopeBody("", false);
        if (o_.determinismCheck)
            tokenScan();
    }

  private:
    const LexedFile &f_;
    Model &m_;
    const Options &o_;
    std::size_t i_ = 0;

    const Token &
    tok(std::size_t ahead = 0) const
    {
        std::size_t idx = i_ + ahead;
        if (idx >= f_.tokens.size())
            idx = f_.tokens.size() - 1;
        return f_.tokens[idx];
    }

    bool atEnd() const { return tok().kind == Token::Kind::End; }
    void advance()
    {
        if (!atEnd())
            ++i_;
    }

    /** Consume a balanced pair; assumes current token is @p open. */
    void
    skipBalanced(const char *open, const char *close)
    {
        int depth = 0;
        while (!atEnd()) {
            if (tok().is(open))
                ++depth;
            else if (tok().is(close))
                --depth;
            advance();
            if (depth == 0)
                return;
        }
    }

    /** Consume a balanced template-argument list starting at `<`.
     *  Bails (without consuming) on `;`/`{`/`}` so a comparison
     *  operator mistaken for a template bracket cannot run away.
     *  When @p argsOut is given, the consumed tokens (brackets
     *  included) are appended space-joined. */
    void
    skipAngles(std::string *argsOut = nullptr)
    {
        int depth = 0;
        while (!atEnd()) {
            if (tok().is(";") || tok().is("{") || tok().is("}"))
                return;
            if (tok().is("<"))
                ++depth;
            else if (tok().is(">"))
                --depth;
            else if (tok().is(">>"))
                depth -= 2;
            else if (tok().is("(")) {
                skipBalanced("(", ")");
                continue;
            }
            if (argsOut != nullptr) {
                *argsOut += tok().text;
                *argsOut += ' ';
            }
            advance();
            if (depth <= 0)
                return;
        }
    }

    /** Consume up to and including the next top-level `;` (stops
     *  before an unbalanced `}`). */
    void
    skipToSemi()
    {
        while (!atEnd()) {
            if (tok().is(";")) {
                advance();
                return;
            }
            if (tok().is("}"))
                return;
            if (tok().is("{")) {
                skipBalanced("{", "}");
                continue;
            }
            if (tok().is("(")) {
                skipBalanced("(", ")");
                continue;
            }
            advance();
        }
    }

    // ---- scopes ---------------------------------------------------

    void
    parseScopeBody(const std::string &cls, bool isClass)
    {
        while (!atEnd() && !tok().is("}")) {
            std::size_t before = i_;
            if (isClass && tok().isIdent() && tok(1).is(":") &&
                (tok().is("public") || tok().is("private") ||
                 tok().is("protected"))) {
                advance();
                advance();
                continue;
            }
            if (tok().is("inline") && tok(1).is("namespace"))
                advance();
            if (tok().is("namespace")) {
                parseNamespace();
                continue;
            }
            if (tok().is("template")) {
                advance();
                if (tok().is("<"))
                    skipAngles();
                continue;
            }
            if (tok().is("using") || tok().is("typedef")) {
                parseUsing();
                continue;
            }
            if (tok().is("enum")) {
                while (!atEnd() && !tok().is("{") && !tok().is(";"))
                    advance();
                if (tok().is("{"))
                    skipBalanced("{", "}");
                skipToSemi();
                continue;
            }
            if (tok().is("friend")) {
                skipToSemi();
                continue;
            }
            if (tok().is("class") || tok().is("struct")) {
                parseClass();
                continue;
            }
            if (tok().is(";")) {
                advance();
                continue;
            }
            parseDeclaration(cls, isClass);
            if (i_ == before) // safety: never stall
                advance();
        }
    }

    void
    parseNamespace()
    {
        advance(); // namespace
        while (tok().isIdent() || tok().is("::"))
            advance();
        if (tok().is("=")) { // namespace alias
            skipToSemi();
            return;
        }
        if (tok().is("{")) {
            advance();
            parseScopeBody("", false);
            if (tok().is("}"))
                advance();
        }
    }

    void
    parseUsing()
    {
        advance(); // using / typedef
        if (tok().is("namespace")) {
            skipToSemi();
            return;
        }
        std::string name;
        std::string rhs;
        bool after_eq = false;
        while (!atEnd() && !tok().is(";")) {
            if (tok().is("=")) {
                after_eq = true;
            } else if (after_eq) {
                rhs += tok().text;
                rhs += ' ';
            } else if (tok().isIdent()) {
                name = tok().text;
            }
            advance();
        }
        advance(); // ;
        if (after_eq && !name.empty())
            m_.aliases[name] = rhs;
    }

    void
    parseClass()
    {
        advance(); // class / struct
        std::string name;
        while (!atEnd() && !tok().is("{") && !tok().is(";")) {
            if (tok().is(":")) { // base clause
                while (!atEnd() && !tok().is("{") && !tok().is(";"))
                    advance();
                break;
            }
            if (tok().is("<")) {
                skipAngles();
                continue;
            }
            if (tok().isIdent() && !tok().is("final"))
                name = tok().text;
            else if (!tok().isIdent())
                break; // elaborated type in a declaration, not a class
            advance();
        }
        if (tok().is("{")) {
            advance();
            parseScopeBody(name, true);
            if (tok().is("}"))
                advance();
            skipToSemi(); // trailing declarator and/or `;`
        } else if (tok().is(";")) {
            advance();
        }
    }

    // ---- declarations --------------------------------------------

    void
    parseDeclaration(const std::string &cls, bool isClass)
    {
        const int decl_line = tok().line;
        bool tag_shared = false, tag_exempt = false, tag_det_sink = false,
             tag_det_source_ok = false;
        std::string guard_mutex;   ///< PHOTON_GUARDED_BY argument
        std::string requires_lock; ///< PHOTON_REQUIRES_LOCK argument
        bool saw_parens = false, saw_assign = false, has_init = false,
             is_static = false;
        std::string func_name;
        std::string explicit_cls;
        std::string templ_args; ///< tokens inside `<...>` groups
        std::vector<Token> head;  ///< top-level tokens before terminator
        std::vector<Token> params;
        std::set<std::string> ctor_inits;
        bool body_follows = false;

        while (!atEnd()) {
            const Token &t = tok();
            if (t.is("}"))
                break; // unbalanced: let the caller see it
            if (t.isIdent() && isTag(t.text)) {
                tag_shared |= t.is("PHOTON_SHARED_STATE");
                tag_exempt |= t.is("PHOTON_PHASE_EXEMPT");
                tag_det_sink |= t.is("PHOTON_DET_SINK");
                tag_det_source_ok |= t.is("PHOTON_DET_SOURCE_OK");
                advance();
                continue;
            }
            if (t.isIdent() &&
                (t.is("PHOTON_GUARDED_BY") ||
                 t.is("PHOTON_REQUIRES_LOCK")) &&
                tok(1).is("(")) {
                // Argument macro: capture the last identifier inside
                // the parens as the mutex name (handles `mu_`,
                // `this->mu_`, `store.mu`).
                const bool guarded = t.is("PHOTON_GUARDED_BY");
                advance(); // macro name; now at `(`
                int depth = 0;
                std::string arg;
                while (!atEnd()) {
                    if (tok().is("(")) {
                        ++depth;
                    } else if (tok().is(")")) {
                        --depth;
                        if (depth == 0) {
                            advance();
                            break;
                        }
                    } else if (tok().isIdent() && !tok().is("std") &&
                               !tok().is("this")) {
                        arg = tok().text;
                    }
                    advance();
                }
                if (guarded)
                    guard_mutex = arg;
                else
                    requires_lock = arg;
                continue;
            }
            if (t.is("static") || t.is("constexpr")) {
                is_static = true;
                advance();
                continue;
            }
            if (t.is("virtual") || t.is("explicit") || t.is("inline") ||
                t.is("mutable") || t.is("extern")) {
                advance();
                continue;
            }
            if (t.is("[")) { // attribute or array declarator
                skipBalanced("[", "]");
                continue;
            }
            if (t.is("<")) {
                head.push_back(t); // keep a marker: templated type
                skipAngles(&templ_args);
                continue;
            }
            if (t.is("~") && tok(1).isIdent()) { // destructor
                Token merged = tok(1);
                merged.text = "~" + merged.text;
                head.push_back(merged);
                advance();
                advance();
                continue;
            }
            if (t.is("operator")) { // operator=, operator(), ...
                Token merged = t;
                merged.text = "operator";
                advance();
                while (!atEnd() && !tok().is("(") && !tok().is(";")) {
                    merged.text += tok().text;
                    advance();
                }
                if (merged.text == "operator" && tok().is("(")) {
                    // operator(): the call parens follow the name parens
                    merged.text = "operator()";
                    skipBalanced("(", ")");
                }
                head.push_back(merged);
                continue;
            }
            if (t.is("(")) {
                if (!saw_parens && !saw_assign && !head.empty() &&
                    head.back().isIdent()) {
                    func_name = head.back().text;
                    std::size_t n = head.size();
                    if (n >= 3 && head[n - 2].is("::") &&
                        head[n - 3].isIdent())
                        explicit_cls = head[n - 3].text;
                    saw_parens = true;
                    collectBalanced(params);
                } else {
                    skipBalanced("(", ")");
                }
                continue;
            }
            if (t.is("=")) {
                // Initializer (field/var) or `= default/delete/0` on a
                // function: nothing past here changes the model, and
                // initializer expressions may contain comparison `<`
                // that would confuse the template skipper.
                saw_assign = true;
                has_init = true;
                skipToSemi();
                break;
            }
            if (t.is("{")) {
                if (saw_parens && !saw_assign) {
                    body_follows = true;
                } else {
                    has_init = true;
                    skipBalanced("{", "}");
                }
                if (body_follows)
                    break;
                continue;
            }
            if (t.is(":") && saw_parens && !saw_assign) {
                // Constructor initializer list.
                advance();
                parseCtorInits(ctor_inits);
                if (tok().is("{"))
                    body_follows = true;
                break;
            }
            if (t.is(";")) {
                advance();
                break;
            }
            head.push_back(t);
            advance();
        }

        if (saw_parens && !func_name.empty()) {
            std::string owner = !explicit_cls.empty() ? explicit_cls : cls;
            Function &fn = m_.functionFor(owner, func_name, f_.path,
                                          decl_line);
            fn.tagShared |= tag_shared;
            fn.tagExempt |= tag_exempt;
            fn.tagDetSink |= tag_det_sink;
            fn.tagDetSourceOk |= tag_det_source_ok;
            if (fn.requiresLock.empty())
                fn.requiresLock = requires_lock;
            if (body_follows) {
                fn.hasBody = true;
                fn.file = f_.path;
                fn.line = decl_line;
                recordParams(params);
                if (!ctor_inits.empty() && func_name == owner)
                    m_.ctorInits[owner].insert(ctor_inits.begin(),
                                               ctor_inits.end());
                const std::size_t body_begin = i_; // the body `{`
                parseBody(fn);
                fn.cfg = std::make_shared<Cfg>(
                    buildCfg(f_, body_begin, i_));
            }
            return;
        }

        if (isClass && !saw_parens && !head.empty()) {
            // Field declaration: last identifier is the member name.
            std::size_t name_idx = head.size();
            for (std::size_t k = head.size(); k-- > 0;) {
                if (head[k].isIdent()) {
                    name_idx = k;
                    break;
                }
            }
            if (name_idx == head.size())
                return;
            Field field;
            field.cls = cls;
            field.name = head[name_idx].text;
            field.file = f_.path;
            field.line = decl_line;
            field.tagShared = tag_shared;
            field.tagDetSink = tag_det_sink;
            field.guardMutex = guard_mutex;
            field.hasInit = has_init;
            field.isStatic = is_static;
            field.waivedUninit = f_.waived(decl_line, "uninit-ok");
            field.waivedAos = f_.waived(decl_line, "aos-ok");
            field.templateArgs = templ_args;
            std::string type;
            for (std::size_t k = 0; k < name_idx; ++k) {
                if (head[k].is("&"))
                    field.isRef = true;
                type += head[k].text;
                type += ' ';
            }
            field.type = type;
            m_.fields.push_back(field);
            m_.varTypes[field.name].push_back(type);
        }
    }

    /** Collect tokens of a balanced paren group (outer parens
     *  excluded) into @p out, consuming the group. */
    void
    collectBalanced(std::vector<Token> &out)
    {
        int depth = 0;
        while (!atEnd()) {
            if (tok().is("("))
                ++depth;
            else if (tok().is(")"))
                --depth;
            if (depth == 0) {
                advance(); // closing paren
                return;
            }
            if (!(depth == 1 && tok().is("(")))
                out.push_back(tok());
            advance();
        }
    }

    /** Parse `member(args), member{args}, ...` up to the body `{`. */
    void
    parseCtorInits(std::set<std::string> &out)
    {
        std::string last_ident;
        while (!atEnd()) {
            const Token &t = tok();
            if (t.is("{") && last_ident.empty())
                return; // body (defensive)
            if (t.isIdent()) {
                last_ident = t.text;
                advance();
                continue;
            }
            if (t.is("(") || t.is("{")) {
                if (!last_ident.empty())
                    out.insert(last_ident);
                skipBalanced(t.is("(") ? "(" : "{",
                             t.is("(") ? ")" : "}");
                last_ident.clear();
                if (!tok().is(","))
                    return; // next token should be the body `{`
                advance();
                continue;
            }
            if (t.is("<")) {
                skipAngles();
                continue;
            }
            advance();
        }
    }

    /** Record parameter names with their type strings. */
    void
    recordParams(const std::vector<Token> &params)
    {
        std::size_t start = 0;
        int depth = 0;
        for (std::size_t k = 0; k <= params.size(); ++k) {
            bool at_end = k == params.size();
            if (!at_end) {
                const Token &t = params[k];
                if (t.is("(") || t.is("[") || t.is("{") || t.is("<"))
                    ++depth;
                else if (t.is(")") || t.is("]") || t.is("}") ||
                         t.is(">"))
                    --depth;
                else if (t.is(">>"))
                    depth -= 2;
                if (!(t.is(",") && depth == 0))
                    continue;
            }
            // One parameter in [start, k).
            std::size_t name_idx = k;
            for (std::size_t j = start; j < k; ++j) {
                if (params[j].is("="))
                    break;
                if (params[j].isIdent())
                    name_idx = j;
            }
            if (name_idx != k) {
                std::string type;
                for (std::size_t j = start; j < k; ++j) {
                    if (j == name_idx)
                        continue;
                    type += params[j].text;
                    type += ' ';
                }
                m_.varTypes[params[name_idx].text].push_back(type);
            }
            start = k + 1;
        }
    }

    // ---- function bodies -----------------------------------------

    /** Target of a (possibly member-chained) mutation starting at
     *  token index @p j: last identifier of `a.b->c`. Returns the
     *  index one past the chain via @p end. */
    std::string
    chainTarget(std::size_t j, std::size_t &end) const
    {
        std::string target;
        while (j < f_.tokens.size() && f_.tokens[j].isIdent()) {
            target = f_.tokens[j].text;
            if (f_.tokens[j + 1].is(".") || f_.tokens[j + 1].is("->"))
                j += 2;
            else
                break;
        }
        end = j + 1;
        return target;
    }

    void
    noteRangeFor(Function &fn)
    {
        // Lookahead from the `(` after `for`: a top-level `:` marks a
        // range-for; the range expression runs to the closing paren.
        std::size_t j = i_ + 1; // the `(`
        int depth = 0;
        bool range = false;
        const Token *last = nullptr;
        bool last_is_range_end = false;
        for (; j < f_.tokens.size(); ++j) {
            const Token &t = f_.tokens[j];
            if (t.is("("))
                ++depth;
            else if (t.is(")")) {
                --depth;
                if (depth == 0)
                    break;
            } else if (depth == 1 && t.is(";")) {
                return; // classic for
            } else if (depth == 1 && t.is(":")) {
                range = true;
                last = nullptr;
            } else if (range) {
                last = &t;
                last_is_range_end = t.isIdent();
            }
        }
        if (!range || last == nullptr || !last_is_range_end)
            return;
        RangeForSite site;
        site.base = last->text;
        site.file = f_.path;
        site.line = tok().line;
        site.waived = f_.waived(tok().line, "order-insensitive");
        fn.rangeFors.push_back(site);
    }

    void
    parseBody(Function &fn)
    {
        int depth = 0; // current token is the body `{`
        while (!atEnd()) {
            const Token &t = tok();
            if (t.is("{")) {
                ++depth;
                advance();
                continue;
            }
            if (t.is("}")) {
                --depth;
                advance();
                if (depth == 0)
                    return;
                continue;
            }
            if (t.is("for") && tok(1).is("(")) {
                noteRangeFor(fn);
                advance();
                continue;
            }
            if ((t.is("++") || t.is("--")) && tok(1).isIdent()) {
                std::size_t end = 0;
                std::string target = chainTarget(i_ + 1, end);
                if (!target.empty())
                    fn.mutations.push_back(
                        {target, f_.path, t.line, t.text});
                advance();
                continue;
            }
            if (t.isIdent()) {
                const Token &next = tok(1);
                if ((t.is("unordered_map") || t.is("unordered_set"))) {
                    noteUnorderedLocal();
                    advance();
                    continue;
                }
                if (next.is("(")) {
                    if (!kCallKeywords.count(t.text)) {
                        fn.calls.push_back({t.text, f_.path, t.line});
                    }
                    advance();
                    continue;
                }
                if (next.kind == Token::Kind::Punct &&
                    kAssignOps.count(next.text)) {
                    fn.mutations.push_back(
                        {t.text, f_.path, t.line, next.text});
                    advance();
                    continue;
                }
                if (next.is("++") || next.is("--")) {
                    fn.mutations.push_back(
                        {t.text, f_.path, t.line, next.text});
                    advance();
                    continue;
                }
                if (next.is("[")) {
                    // a[...] op: peek past the subscript.
                    std::size_t j = i_ + 1;
                    int d = 0;
                    for (; j < f_.tokens.size(); ++j) {
                        if (f_.tokens[j].is("["))
                            ++d;
                        else if (f_.tokens[j].is("]")) {
                            --d;
                            if (d == 0)
                                break;
                        }
                    }
                    if (j + 1 < f_.tokens.size()) {
                        const Token &after = f_.tokens[j + 1];
                        if (after.kind == Token::Kind::Punct &&
                            (kAssignOps.count(after.text) ||
                             after.is("++") || after.is("--"))) {
                            fn.mutations.push_back(
                                {t.text, f_.path, t.line,
                                 "[]" + after.text});
                        }
                    }
                    advance();
                    continue;
                }
                if ((next.is(".") || next.is("->")) &&
                    tok(2).isIdent() && tok(3).is("(") &&
                    kMutatingMethods.count(tok(2).text)) {
                    fn.mutations.push_back({t.text, f_.path, t.line,
                                            "." + tok(2).text});
                    advance();
                    continue;
                }
                advance();
                continue;
            }
            advance();
        }
    }

    /** `std::unordered_map<...> name` inside a body: record the local
     *  so range-for checks can type it. */
    void
    noteUnorderedLocal()
    {
        std::string container = tok().text;
        std::size_t j = i_ + 1;
        if (j < f_.tokens.size() && f_.tokens[j].is("<")) {
            int d = 0;
            for (; j < f_.tokens.size(); ++j) {
                if (f_.tokens[j].is("<"))
                    ++d;
                else if (f_.tokens[j].is(">"))
                    --d;
                else if (f_.tokens[j].is(">>"))
                    d -= 2;
                if (d <= 0) {
                    ++j;
                    break;
                }
            }
        }
        if (j < f_.tokens.size() && f_.tokens[j].isIdent())
            m_.varTypes[f_.tokens[j].text].push_back("std :: " +
                                                     container + " < > ");
    }

    // ---- token-level determinism scan ----------------------------

    void
    tokenScan()
    {
        const std::vector<Token> &ts = f_.tokens;
        for (std::size_t k = 0; k < ts.size(); ++k) {
            const Token &t = ts[k];
            if (!t.isIdent())
                continue;
            if (t.is("random_device")) {
                if (!f_.waived(t.line, "nondeterminism-ok"))
                    m_.tokenDiags.push_back(
                        {Kind::NondeterministicCall, f_.path, t.line,
                         "use of 'std::random_device' is nondeterministic"
                         "; use the seeded simulator RNG (sim/rng.hpp)",
                         {}});
                continue;
            }
            if (kBannedCalls.count(t.text) && k + 1 < ts.size() &&
                ts[k + 1].is("(")) {
                bool member = k > 0 && (ts[k - 1].is(".") ||
                                        ts[k - 1].is("->"));
                if (!member && !f_.waived(t.line, "nondeterminism-ok"))
                    m_.tokenDiags.push_back(
                        {Kind::NondeterministicCall, f_.path, t.line,
                         "call to '" + t.text +
                             "' makes results depend on wall clock or "
                             "libc random state",
                         {}});
                continue;
            }
            // std::map / std::set keyed by a pointer type.
            if ((t.is("map") || t.is("set") || t.is("multimap") ||
                 t.is("multiset")) &&
                k >= 2 && ts[k - 1].is("::") && ts[k - 2].is("std") &&
                k + 1 < ts.size() && ts[k + 1].is("<")) {
                int d = 0;
                std::size_t j = k + 1;
                const Token *last_key_tok = nullptr;
                for (; j < ts.size(); ++j) {
                    if (ts[j].is("<"))
                        ++d;
                    else if (ts[j].is(">"))
                        --d;
                    else if (ts[j].is(">>"))
                        d -= 2;
                    else if (d == 1 && ts[j].is(","))
                        break;
                    else if (d >= 1)
                        last_key_tok = &ts[j];
                    if (d <= 0)
                        break;
                }
                if (last_key_tok != nullptr && last_key_tok->is("*") &&
                    !f_.waived(t.line, "pointer-key-ok")) {
                    m_.tokenDiags.push_back(
                        {Kind::PointerKeyedOrder, f_.path, t.line,
                         "ordered container 'std::" + t.text +
                             "' keyed by pointer value iterates in "
                             "allocation-dependent order",
                         {}});
                }
            }
        }
    }
};

} // namespace

void
parseFile(const LexedFile &file, Model &model, const Options &options)
{
    Parser(file, model, options).run();
}

} // namespace photon::lint
