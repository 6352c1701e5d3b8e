#include "util/fault_inject.hh"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "util/logging.hh"
#include "util/parse.hh"

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

/** Armed-entry count (active()). */
std::atomic<int> g_armed{0};

/**
 * True once IPREF_FAULTS has been read and no entry is in place:
 * shouldFire() then returns before the lock. A fired entry is still in
 * place (its point's hits keep being counted).
 */
std::atomic<bool> g_noSchedule{false};

std::int64_t
spawnOrdinal()
{
    const char *s = std::getenv("IPREF_WORKER_SPAWN");
    if (!s || !*s)
        return -1;
    // workerMain() refuses a malformed ordinal at start-up.
    return readInt(s).value_or(-1);
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
        std::optional<std::uint64_t> param =
            readUint(rest.substr(colon + 1), Radix::DecOrHex);
        if (!param)
            return false;
        e.param = *param;
        rest = rest.substr(0, colon);
    }
    std::size_t slash = rest.find('/');
    if (slash != std::string::npos) {
        std::string sp = rest.substr(slash + 1);
        if (sp.rfind("spawn", 0) == 0)
            sp = sp.substr(5);
        std::optional<std::int64_t> spawn = readInt(sp);
        if (!spawn)
            return false;
        e.spawn = *spawn;
        rest = rest.substr(0, slash);
    }
    std::optional<std::uint64_t> hit = readUint(rest);
    e.hit = hit.value_or(0);
    return e.hit > 0;
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
    g_noSchedule.store(s.entries.empty(), std::memory_order_release);
}

/** Lazily pick up IPREF_FAULTS; mutex held. */
void
ensureLoadedLocked(State &s)
{
    if (s.envLoaded)
        return;
    s.envLoaded = true;
    const char *env = std::getenv("IPREF_FAULTS");
    installLocked(s, env ? env : "");
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
    // Fast path: no schedule, and the env already consulted.
    if (g_noSchedule.load(std::memory_order_acquire))
        return false;
    State &s = state();
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
    g_noSchedule.store(false, std::memory_order_release);
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
