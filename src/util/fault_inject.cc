#include "util/fault_inject.hh"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/logging.hh"

namespace ipref::fault
{

namespace
{

struct Entry
{
    std::string point;
    std::uint64_t hit = 1;    //!< fire on this hit of `point`
    std::int64_t spawn = -1;  //!< -1 = any IPREF_WORKER_SPAWN
    std::uint64_t param = 0;
    bool fired = false;
};

struct State
{
    std::mutex mu;
    std::vector<Entry> entries;
    std::unordered_map<std::string, std::uint64_t> hits;
    bool envLoaded = false;
};

State &
state()
{
    static State s;
    return s;
}

/** Armed-entry count; lets shouldFire() bail without the lock. */
std::atomic<int> g_armed{0};

std::int64_t
spawnOrdinal()
{
    const char *s = std::getenv("IPREF_WORKER_SPAWN");
    if (!s || !*s)
        return -1;
    return std::strtoll(s, nullptr, 10);
}

/** Parse "point@N[/spawnS][:param]"; returns false on malformed. */
bool
parseEntry(const std::string &text, Entry &e)
{
    std::size_t at = text.find('@');
    if (at == std::string::npos || at == 0)
        return false;
    e.point = text.substr(0, at);
    std::string rest = text.substr(at + 1);

    std::size_t colon = rest.find(':');
    if (colon != std::string::npos) {
        e.param = std::strtoull(rest.c_str() + colon + 1, nullptr, 0);
        rest = rest.substr(0, colon);
    }
    std::size_t slash = rest.find('/');
    if (slash != std::string::npos) {
        std::string sp = rest.substr(slash + 1);
        if (sp.rfind("spawn", 0) == 0)
            sp = sp.substr(5);
        e.spawn = std::strtoll(sp.c_str(), nullptr, 10);
        rest = rest.substr(0, slash);
    }
    char *end = nullptr;
    e.hit = std::strtoull(rest.c_str(), &end, 10);
    return e.hit > 0 && end && *end == '\0';
}

/** Must be called with the state mutex held. */
void
installLocked(State &s, const std::string &schedule)
{
    s.entries.clear();
    s.hits.clear();
    std::string tok;
    for (char c : schedule + ",") {
        if (c != ',') {
            tok += c;
            continue;
        }
        if (!tok.empty()) {
            Entry e;
            if (parseEntry(tok, e))
                s.entries.push_back(std::move(e));
            else
                ipref_warn("fault_inject: ignoring malformed entry "
                           "'%s'",
                           tok.c_str());
        }
        tok.clear();
    }
    g_armed.store(static_cast<int>(s.entries.size()),
                  std::memory_order_release);
}

/** Lazily pick up IPREF_FAULTS; mutex held. */
void
ensureLoadedLocked(State &s)
{
    if (s.envLoaded)
        return;
    s.envLoaded = true;
    const char *env = std::getenv("IPREF_FAULTS");
    if (env && *env)
        installLocked(s, env);
}

} // namespace

void
configure(const std::string &schedule)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.envLoaded = true; // explicit configuration wins over the env
    installLocked(s, schedule);
}

void
reset()
{
    configure("");
}

bool
active()
{
    if (g_armed.load(std::memory_order_acquire) > 0)
        return true;
    // Before any shouldFire()/configure() call the env schedule may
    // not be loaded yet; load it so active() is truthful.
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    ensureLoadedLocked(s);
    return g_armed.load(std::memory_order_acquire) > 0;
}

bool
shouldFire(const char *point, std::uint64_t *param)
{
    State &s = state();
    {
        // Fast path: nothing armed and the env already consulted.
        std::lock_guard<std::mutex> lock(s.mu);
        ensureLoadedLocked(s);
        if (s.entries.empty())
            return false;
        std::uint64_t hit = ++s.hits[point];
        std::int64_t spawn = spawnOrdinal();
        for (Entry &e : s.entries) {
            if (e.fired || e.point != point || e.hit != hit)
                continue;
            if (e.spawn >= 0 && e.spawn != spawn)
                continue;
            e.fired = true;
            g_armed.fetch_sub(1, std::memory_order_acq_rel);
            if (param)
                *param = e.param;
            ipref_warn("fault_inject: firing %s@%llu%s", point,
                       static_cast<unsigned long long>(hit),
                       e.param ? " (with param)" : "");
            return true;
        }
    }
    return false;
}

void
armNext(const char *point)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    ensureLoadedLocked(s);
    Entry e;
    e.point = point;
    e.hit = s.hits[point] + 1;
    s.entries.push_back(std::move(e));
    g_armed.fetch_add(1, std::memory_order_acq_rel);
}

std::uint64_t
hitCount(const char *point)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.hits.find(point);
    return it == s.hits.end() ? 0 : it->second;
}

} // namespace ipref::fault
