// Lock-set analysis fixture: every "BAD" site below must produce
// exactly one diagnostic (pinned by line in test_photon_lint.cpp);
// every "OK" site must stay silent. Line numbers are load-bearing.
#include <mutex>
#include <vector>

#define PHOTON_PHASE_EXEMPT
#define PHOTON_SHARED_STATE
#define PHOTON_GUARDED_BY(m)
#define PHOTON_REQUIRES_LOCK(m)

class Counters
{
  public:
    // OK: the guard covers the write on the only path.
    void goodAdd(int v)
    {
        std::lock_guard<std::mutex> lock(mu_);
        total_ += v;
    }

    // BAD(25): no lock at all around a GUARDED_BY write.
    void badAdd(int v)
    {
        total_ += v;
    }

    // BAD(32): the wrong mutex is held.
    void wrongMutex(int v)
    {
        std::lock_guard<std::mutex> lock(otherMu_);
        total_ += v;
    }

    // BAD(44): the early-return branch is guarded, the fall-through
    // path is not — the must-hold join kills the lock.
    void branchy(int v, bool fast)
    {
        if (fast) {
            std::lock_guard<std::mutex> lock(mu_);
            total_ += v;
            return;
        }
        total_ += v;
    }

    // BAD(53): the guard dies with the inner scope before the write.
    void guardReleasedEarly(int v)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
        }
        total_ += v;
    }

    // BAD(63): unique_lock released by .unlock() before the write in
    // a loop body — the back edge re-enters with the lock dropped.
    void unlockInLoop(int n)
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (int i = 0; i < n; ++i) {
            lock.unlock();
            total_ += i;
        }
    }

    // BAD(70): mutating-method write to a guarded container.
    void badPush(int v)
    {
        log_.push_back(v);
    }

    // OK: constructors run before the object is shared, so their
    // writes need no lock.
    explicit Counters(int v)
    {
        total_ = v;
    }

    // OK: reviewed single-threaded call site, explicitly waived.
    void waivedAdd(int v)
    {
        total_ += v; // photon-lint: lockset-ok
    }

    // OK: REQUIRES_LOCK body is analyzed with the mutex held.
    PHOTON_REQUIRES_LOCK(mu_)
    void addLocked(int v)
    {
        total_ += v;
    }

    // OK: the caller takes the lock before entering the helper.
    void goodCaller(int v)
    {
        std::lock_guard<std::mutex> lock(mu_);
        addLocked(v);
    }

    // BAD(103): REQUIRES_LOCK callee entered without the mutex.
    void badCaller(int v)
    {
        addLocked(v);
    }

  private:
    std::mutex mu_;
    std::mutex otherMu_;
    PHOTON_GUARDED_BY(mu_)
    long total_ = 0;
    PHOTON_GUARDED_BY(mu_)
    std::vector<int> log_;
};

class Plain
{
  public:
    // BAD(122): plain SHARED_STATE field written with no lock held by
    // an untagged function.
    void bump()
    {
        shared_ += 1;
    }

    // OK: some tracked lock is held (plain shared fields only need
    // internal synchronization, not a specific named mutex).
    void bumpLocked()
    {
        std::lock_guard<std::mutex> lock(mu_);
        shared_ += 1;
    }

    // OK: an exempt writer is internally synchronized by contract.
    PHOTON_PHASE_EXEMPT
    void bumpExempt()
    {
        shared_ += 1;
    }

  private:
    std::mutex mu_;
    PHOTON_SHARED_STATE
    long shared_ = 0;
};
