#include "util/metrics.hh"

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <type_traits>

#include "util/json.hh"
#include "util/logging.hh"

namespace ipref::metrics
{

// --- snapshot accessors ----------------------------------------------

const std::uint64_t *
Snapshot::counter(const std::string &name) const
{
    for (const auto &[n, v] : counters)
        if (n == name)
            return &v;
    return nullptr;
}

const std::int64_t *
Snapshot::gauge(const std::string &name) const
{
    for (const auto &[n, v] : gauges)
        if (n == name)
            return &v;
    return nullptr;
}

// --- serialization ----------------------------------------------------

std::string
snapshotToJsonLine(const Snapshot &s)
{
    std::ostringstream os;
    os << "{\"seq\": " << s.seq << ", \"unix_ms\": " << s.unixMs
       << ", \"counters\": {";
    for (std::size_t i = 0; i < s.counters.size(); ++i)
        os << (i ? ", " : "") << jsonString(s.counters[i].first)
           << ": " << s.counters[i].second;
    os << "}, \"gauges\": {";
    for (std::size_t i = 0; i < s.gauges.size(); ++i)
        os << (i ? ", " : "") << jsonString(s.gauges[i].first) << ": "
           << s.gauges[i].second;
    os << "}}";
    return os.str();
}

Snapshot
parseSnapshotLine(const std::string &line)
{
    JsonValue doc = parseJson(line);
    if (doc.kind != JsonValue::Object)
        throw std::runtime_error("metrics: snapshot is not an object");
    Snapshot s;
    s.seq = doc.intOr<std::uint64_t>("seq", 0);
    s.unixMs = doc.intOr<std::uint64_t>("unix_ms", 0);
    if (doc.has("counters")) {
        const JsonValue &counters = doc.at("counters");
        for (const auto &kv : counters.fields)
            s.counters.emplace_back(
                kv.first, counters.intOr<std::uint64_t>(kv.first, 0));
    }
    if (doc.has("gauges")) {
        const JsonValue &gauges = doc.at("gauges");
        for (const auto &kv : gauges.fields)
            s.gauges.emplace_back(
                kv.first, gauges.intOr<std::int64_t>(kv.first, 0));
    }
    return s;
}

// --- Registry ---------------------------------------------------------

struct Registry::Impl
{
    mutable std::mutex mu;
    /** Deques: stable addresses for the handed-out references. */
    std::deque<Counter> counters;
    std::deque<Gauge> gauges;

    struct Record
    {
        bool isCounter;
        std::size_t index;
        std::string help;
    };
    std::map<std::string, Record> byName;

    /** The instrument named @p name in @p pool, registered if new. */
    template <typename T>
    T &
    lookup(std::deque<T> &pool, const std::string &name,
           const std::string &help)
    {
        constexpr bool isCounter = std::is_same_v<T, Counter>;
        std::lock_guard<std::mutex> lock(mu);
        auto it = byName.find(name);
        if (it != byName.end()) {
            if (it->second.isCounter != isCounter)
                ipref_panic("metric '%s' re-registered with a different "
                            "kind", name.c_str());
            return pool[it->second.index];
        }
        pool.emplace_back();
        byName[name] = {isCounter, pool.size() - 1, help};
        return pool.back();
    }
};

Registry::Impl *
Registry::impl() const
{
    // Leaked singleton: instruments are referenced from static call
    // sites and the sampler may run until process exit, so the
    // registry must never be destroyed (static-destruction order).
    static Impl *impl = new Impl;
    return impl;
}

Registry &
Registry::instance()
{
    static Registry r;
    return r;
}

Registry &
registry()
{
    return Registry::instance();
}

Counter &
Registry::counter(const std::string &name, const std::string &help)
{
    return impl()->lookup(impl()->counters, name, help);
}

Gauge &
Registry::gauge(const std::string &name, const std::string &help)
{
    return impl()->lookup(impl()->gauges, name, help);
}

Snapshot
Registry::snapshot() const
{
    Impl *im = impl();
    Snapshot s;
    std::lock_guard<std::mutex> lock(im->mu);
    // byName is a std::map: iteration is already name-ordered, which
    // keeps every rendering deterministic.
    for (const auto &[name, rec] : im->byName) {
        if (rec.isCounter)
            s.counters.emplace_back(name,
                                    im->counters[rec.index].value());
        else
            s.gauges.emplace_back(name, im->gauges[rec.index].value());
    }
    return s;
}

// --- sampler ----------------------------------------------------------

namespace
{

/**
 * Background thread appending a registry snapshot to one JSON-lines
 * file every interval, flushed per record so `ipref_top` and
 * `tail -f` see snapshots as they land. Destruction joins the thread
 * and appends one final snapshot.
 */
class Sampler
{
  public:
    Sampler(std::uint64_t intervalMs, std::ofstream out)
        : interval_(intervalMs), out_(std::move(out)),
          thread_([this] { loop(); })
    {}

    ~Sampler()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stopRequested_ = true;
        }
        cv_.notify_all();
        thread_.join();
        writeOne();
    }

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

  private:
    /** Only the thread writes until it is joined; no lock needed. */
    void
    writeOne()
    {
        Snapshot s = registry().snapshot();
        s.seq = seq_++;
        s.unixMs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count());
        out_ << snapshotToJsonLine(s) << '\n';
        out_.flush();
    }

    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (!cv_.wait_for(lock, interval_,
                             [this] { return stopRequested_; })) {
            lock.unlock();
            writeOne();
            lock.lock();
        }
    }

    std::chrono::milliseconds interval_;
    std::ofstream out_;
    std::uint64_t seq_ = 0;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stopRequested_ = false;
    std::thread thread_; //!< last: starts once the rest is built
};

std::mutex g_samplerMu;
std::unique_ptr<Sampler> g_sampler;
bool g_atexitRegistered = false;

} // namespace

void
shutdownMetrics()
{
    std::unique_ptr<Sampler> doomed;
    {
        std::lock_guard<std::mutex> lock(g_samplerMu);
        doomed = std::move(g_sampler);
    }
    // Destroyed outside the lock: the join waits out a sample.
}

void
configureMetrics(const MetricsOptions &opts)
{
    shutdownMetrics();
    if (opts.jsonlPath.empty())
        return;
    std::ofstream out(opts.jsonlPath, std::ios::trunc);
    if (!out) {
        ipref_warn("metrics: cannot open '%s' for writing",
                   opts.jsonlPath.c_str());
        return;
    }
    auto sampler = std::make_unique<Sampler>(
        opts.intervalMs ? opts.intervalMs : 1000, std::move(out));

    std::lock_guard<std::mutex> lock(g_samplerMu);
    g_sampler = std::move(sampler);
    if (!g_atexitRegistered) {
        std::atexit(shutdownMetrics);
        g_atexitRegistered = true;
    }
}

} // namespace ipref::metrics
