/**
 * @file
 * Flow-sensitive lock-set analysis (DESIGN.md §9).
 *
 * For every function with a CFG, a must-hold set of mutex names flows
 * forward through the graph (join = intersection over reachable
 * predecessors): Guard events insert, Unguard events erase. At each
 * write event the target chain is matched against annotated fields —
 * name-level, like every other photon_lint check:
 *
 *  - a PHOTON_GUARDED_BY(m) field requires `m` in the must-hold set;
 *  - a plain PHOTON_SHARED_STATE field requires *some* held lock,
 *    unless the writing function is itself tagged shared / exempt
 *    (internally synchronized by contract);
 *
 * and at each call event, callees tagged PHOTON_REQUIRES_LOCK(m)
 * require `m` held at the call site. Constructors and destructors are
 * exempt: they run before the object is shared.
 *
 * Violations carry a concrete CFG path trace from the function entry
 * to the offending statement, annotated with every guard acquire /
 * release along the way — the path the analysis believes reaches the
 * write without the lock.
 */

#include <algorithm>
#include <map>
#include <set>

#include "dataflow.hpp"
#include "model.hpp"

namespace photon::lint {

namespace {

/** Mutex name -> acquisition depth. Counting (not a plain set) keeps
 *  two same-named guards distinct: releasing `self.mu` must not clear
 *  a live guard on `victim.mu` (both track as "mu" at name level). */
using LockSet = std::map<std::string, int>;

LockSet
transferLocks(const CfgBlock &block, LockSet state)
{
    for (const CfgEvent &e : block.events) {
        if (e.kind == CfgEvent::Kind::Guard) {
            ++state[e.name];
        } else if (e.kind == CfgEvent::Kind::Unguard) {
            auto it = state.find(e.name);
            if (it != state.end() && --it->second <= 0)
                state.erase(it);
        }
    }
    return state;
}

/** Must-hold join: key-wise minimum over both paths. */
LockSet
intersect(const LockSet &a, const LockSet &b)
{
    LockSet out;
    for (const auto &[name, depth] : a) {
        auto it = b.find(name);
        if (it != b.end())
            out.emplace(name, std::min(depth, it->second));
    }
    return out;
}

/** Predecessor lists of a Cfg. */
std::vector<std::vector<std::size_t>>
buildPreds(const Cfg &cfg)
{
    std::vector<std::vector<std::size_t>> preds(cfg.blocks.size());
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
        for (std::size_t s : cfg.blocks[b].succs)
            preds[s].push_back(b);
    }
    return preds;
}

/**
 * Root-first chain tracing one concrete entry-to-violation path:
 * the function header, each guard acquire/release on the path, and
 * the offending statement. Predecessors whose out-state lacks
 * @p mutex (or is lock-free when @p mutex is empty) are preferred so
 * the printed path is one on which the violation actually occurs.
 */
std::vector<std::string>
tracePath(const Function &fn, const Cfg &cfg,
          const std::vector<std::optional<LockSet>> &in,
          const std::vector<std::vector<std::size_t>> &preds,
          std::size_t violBlock, std::size_t violEvent,
          const std::string &mutex, const std::string &what, int line)
{
    // Walk backward from the violation to the entry.
    std::vector<std::size_t> rev{violBlock};
    std::set<std::size_t> visited{violBlock};
    std::size_t cur = violBlock;
    while (cur != 0) {
        std::size_t pick = cfg.blocks.size();
        for (std::size_t p : preds[cur]) {
            if (visited.count(p) || !in[p])
                continue;
            LockSet out = transferLocks(cfg.blocks[p], *in[p]);
            bool lacking = mutex.empty() ? out.empty()
                                         : out.count(mutex) == 0;
            if (lacking) {
                pick = p;
                break;
            }
            if (pick == cfg.blocks.size())
                pick = p;
        }
        if (pick == cfg.blocks.size())
            break;
        visited.insert(pick);
        rev.push_back(pick);
        cur = pick;
    }
    std::reverse(rev.begin(), rev.end());

    std::vector<std::string> chain;
    chain.push_back(fn.display() + " (" + fn.file + ":" +
                    std::to_string(fn.line) + ")");
    for (std::size_t k = 0; k < rev.size(); ++k) {
        const CfgBlock &block = cfg.blocks[rev[k]];
        std::size_t limit = rev[k] == violBlock ? violEvent
                                                : block.events.size();
        for (std::size_t e = 0; e < limit; ++e) {
            const CfgEvent &ev = block.events[e];
            if (ev.kind == CfgEvent::Kind::Guard)
                chain.push_back("lock '" + ev.name + "' acquired (" +
                                fn.file + ":" +
                                std::to_string(ev.line) + ")");
            else if (ev.kind == CfgEvent::Kind::Unguard)
                chain.push_back("lock '" + ev.name + "' released (" +
                                fn.file + ":" +
                                std::to_string(ev.line) + ")");
        }
    }
    chain.push_back(what + " (" + fn.file + ":" + std::to_string(line) +
                    ")");
    return chain;
}

} // namespace

void
checkLockset(const Model &model, std::vector<Diagnostic> &out)
{
    std::multimap<std::string, std::size_t> byName;
    for (std::size_t k = 0; k < model.functions.size(); ++k)
        byName.emplace(model.functions[k].name, k);

    // Field name -> annotated field records (name-level matching,
    // consistent with the other checks).
    std::map<std::string, std::vector<const Field *>> fieldsByName;
    for (const Field &f : model.fields) {
        if (!f.guardMutex.empty() || f.tagShared)
            fieldsByName[f.name].push_back(&f);
    }

    for (std::size_t k = 0; k < model.functions.size(); ++k) {
        const Function &fn = model.functions[k];
        if (!fn.cfg)
            continue;
        // Constructors / destructors run before the object is shared.
        if (!fn.cls.empty() &&
            (fn.name == fn.cls || fn.name == "~" + fn.cls))
            continue;

        const Cfg &cfg = *fn.cfg;
        LockSet entry;
        if (!fn.requiresLock.empty())
            entry[fn.requiresLock] = 1;
        auto in = solveForward(
            cfg, entry, transferLocks, intersect,
            [](const LockSet &a, const LockSet &b) { return a == b; });
        auto preds = buildPreds(cfg);

        for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
            if (!in[b])
                continue; // unreachable
            LockSet held = *in[b];
            for (std::size_t e = 0; e < cfg.blocks[b].events.size();
                 ++e) {
                const CfgEvent &ev = cfg.blocks[b].events[e];
                if (ev.kind == CfgEvent::Kind::Guard) {
                    ++held[ev.name];
                    continue;
                }
                if (ev.kind == CfgEvent::Kind::Unguard) {
                    auto hit = held.find(ev.name);
                    if (hit != held.end() && --hit->second <= 0)
                        held.erase(hit);
                    continue;
                }
                if (ev.kind == CfgEvent::Kind::Call) {
                    if (ev.waivedLockset)
                        continue;
                    auto range = byName.equal_range(ev.name);
                    bool anyCandidate = false;
                    bool satisfied = false;
                    std::string wanted;
                    for (auto it = range.first; it != range.second;
                         ++it) {
                        const Function &callee =
                            model.functions[it->second];
                        if (callee.requiresLock.empty()) {
                            // An unannotated overload shadows the
                            // requirement at name level: stay quiet.
                            satisfied = true;
                            continue;
                        }
                        anyCandidate = true;
                        wanted = callee.requiresLock;
                        if (held.count(callee.requiresLock))
                            satisfied = true;
                    }
                    if (anyCandidate && !satisfied) {
                        Diagnostic d;
                        d.kind = Kind::RequiresLockCall;
                        d.file = fn.file;
                        d.line = ev.line;
                        d.message =
                            "call to '" + ev.name +
                            "' (PHOTON_REQUIRES_LOCK('" + wanted +
                            "')) without holding '" + wanted +
                            "' on every path";
                        d.chain = tracePath(fn, cfg, in, preds, b, e,
                                            wanted,
                                            "call to '" + ev.name + "'",
                                            ev.line);
                        out.push_back(std::move(d));
                    }
                    continue;
                }
                if (ev.kind != CfgEvent::Kind::Write ||
                    ev.waivedLockset)
                    continue;

                // Match chain components against annotated fields;
                // the first component with candidates decides.
                std::vector<std::string> comps;
                std::string word;
                for (char c : ev.chain + ".") {
                    if (c == '.') {
                        if (!word.empty())
                            comps.push_back(word);
                        word.clear();
                    } else {
                        word += c;
                    }
                }
                for (std::size_t ci = 0; ci < comps.size(); ++ci) {
                    auto fit = fieldsByName.find(comps[ci]);
                    if (fit == fieldsByName.end())
                        continue;
                    // A bare first-component write is an unqualified
                    // member access: it can only name a field of the
                    // writer's own class. Chain accesses (`victim.q`)
                    // stay name-level: the receiver's type is unknown.
                    const bool bare = ci == 0;
                    const Field *guarded = nullptr;
                    const Field *shared = nullptr;
                    for (const Field *f : fit->second) {
                        if (bare && f->cls != fn.cls)
                            continue;
                        if (!f->guardMutex.empty() && !guarded)
                            guarded = f;
                        else if (f->tagShared && !shared)
                            shared = f;
                    }
                    if (guarded == nullptr && shared == nullptr)
                        continue; // no candidate survives the filter
                    if (guarded != nullptr) {
                        if (!held.count(guarded->guardMutex)) {
                            Diagnostic d;
                            d.kind = Kind::UnguardedSharedWrite;
                            d.file = fn.file;
                            d.line = ev.line;
                            d.message =
                                "write ('" + ev.how + "') to '" +
                                ev.chain + "': field '" +
                                (guarded->cls.empty()
                                     ? guarded->name
                                     : guarded->cls + "::" +
                                           guarded->name) +
                                "' is PHOTON_GUARDED_BY('" +
                                guarded->guardMutex +
                                "') but the mutex is not held on "
                                "every path to this statement";
                            d.chain = tracePath(
                                fn, cfg, in, preds, b, e,
                                guarded->guardMutex,
                                "unguarded write to '" + ev.chain +
                                    "'",
                                ev.line);
                            out.push_back(std::move(d));
                        }
                    } else if (shared != nullptr) {
                        bool allowed = !held.empty() || fn.tagShared ||
                                       fn.tagExempt;
                        if (!allowed) {
                            Diagnostic d;
                            d.kind = Kind::UnguardedSharedWrite;
                            d.file = fn.file;
                            d.line = ev.line;
                            d.message =
                                "write ('" + ev.how + "') to "
                                "shared-state field '" +
                                ev.chain +
                                "' with no lock held; guard it, tag "
                                "the writer, or waive with `// "
                                "photon-lint: lockset-ok`";
                            d.chain = tracePath(
                                fn, cfg, in, preds, b, e, "",
                                "unguarded write to '" + ev.chain +
                                    "'",
                                ev.line);
                            out.push_back(std::move(d));
                        }
                    }
                    break; // first matching component decides
                }
            }
        }
    }
}

} // namespace photon::lint
