// photon_lint fixture: annotated code that FOLLOWS the lock-set
// contract. Analyzed by the linter only — never compiled, so the
// annotation macros appear as bare markers.

struct GoodShared
{
    std::mutex mu_;

    PHOTON_SHARED_STATE
    int total_ = 0;

    PHOTON_GUARDED_BY(mu_)
    int guarded_ = 0;

    // Internally synchronized: callable from any thread.
    PHOTON_PHASE_EXEMPT
    void publish(int v);

    void add(int v);
};

struct GoodEngine
{
    int scratch_ = 0;

    void step(GoodShared &shared, int v);
};

void
GoodShared::publish(int v)
{
    total_ += v;
}

void
GoodShared::add(int v)
{
    std::lock_guard<std::mutex> lock(mu_);
    guarded_ += v;
}

void
GoodEngine::step(GoodShared &shared, int v)
{
    scratch_ += v;     // private state: allowed
    shared.publish(v); // exempt callee: allowed
    shared.add(v);     // locks internally: allowed
}
