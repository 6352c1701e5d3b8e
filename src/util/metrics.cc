#include "util/metrics.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

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

std::vector<double>
defaultMsBounds()
{
    return {1,    2,    5,     10,    20,    50,     100,   200,
            500,  1000, 2000,  5000,  10000, 30000,  60000, 120000,
            300000};
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
    os << "}, \"histograms\": {";
    for (std::size_t i = 0; i < s.histograms.size(); ++i) {
        const HistogramSample &h = s.histograms[i];
        os << (i ? ", " : "") << jsonString(h.name)
           << ": {\"bounds\": [";
        for (std::size_t b = 0; b < h.bounds.size(); ++b)
            os << (b ? ", " : "") << jsonNumber(h.bounds[b]);
        os << "], \"counts\": [";
        for (std::size_t b = 0; b < h.counts.size(); ++b)
            os << (b ? ", " : "") << h.counts[b];
        os << "], \"count\": " << h.count
           << ", \"sum\": " << jsonNumber(h.sum) << "}";
    }
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
    s.seq = static_cast<std::uint64_t>(doc.numberOr("seq", 0));
    s.unixMs = static_cast<std::uint64_t>(doc.numberOr("unix_ms", 0));
    if (doc.has("counters"))
        for (const auto &[name, v] : doc.at("counters").fields)
            s.counters.emplace_back(
                name, static_cast<std::uint64_t>(v.number));
    if (doc.has("gauges"))
        for (const auto &[name, v] : doc.at("gauges").fields)
            s.gauges.emplace_back(
                name, static_cast<std::int64_t>(v.number));
    if (doc.has("histograms")) {
        for (const auto &[name, v] : doc.at("histograms").fields) {
            HistogramSample h;
            h.name = name;
            if (v.has("bounds"))
                for (const JsonValue &b : v.at("bounds").items)
                    h.bounds.push_back(b.number);
            if (v.has("counts"))
                for (const JsonValue &c : v.at("counts").items)
                    h.counts.push_back(
                        static_cast<std::uint64_t>(c.number));
            h.count = static_cast<std::uint64_t>(v.numberOr("count", 0));
            h.sum = v.numberOr("sum", 0.0);
            s.histograms.push_back(std::move(h));
        }
    }
    return s;
}

// --- LatencyHistogram -------------------------------------------------

namespace
{

double
bitsToDouble(std::uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

std::uint64_t
doubleToBits(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
}

} // namespace

LatencyHistogram::LatencyHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1)
{
    // Ascending bounds are a registration-time contract; sorting here
    // beats asserting in a telemetry layer.
    std::sort(bounds_.begin(), bounds_.end());
}

void
LatencyHistogram::observe(double v)
{
    std::size_t b = 0;
    while (b < bounds_.size() && v > bounds_[b])
        ++b;
    counts_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t old = sumBits_.load(std::memory_order_relaxed);
    while (!sumBits_.compare_exchange_weak(
        old, doubleToBits(bitsToDouble(old) + v),
        std::memory_order_relaxed, std::memory_order_relaxed)) {
    }
}

HistogramSample
LatencyHistogram::sample() const
{
    HistogramSample h;
    h.bounds = bounds_;
    h.counts.reserve(counts_.size());
    for (const auto &c : counts_)
        h.counts.push_back(c.load(std::memory_order_relaxed));
    h.count = count_.load(std::memory_order_relaxed);
    h.sum = bitsToDouble(sumBits_.load(std::memory_order_relaxed));
    return h;
}

void
LatencyHistogram::reset()
{
    for (auto &c : counts_)
        c.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sumBits_.store(0, std::memory_order_relaxed);
}

// --- Registry ---------------------------------------------------------

struct Registry::Impl
{
    mutable std::mutex mu;
    /** Deques: stable addresses for the handed-out references. */
    std::deque<Counter> counters;
    std::deque<Gauge> gauges;
    std::deque<LatencyHistogram> histograms;

    struct Record
    {
        Kind kind;
        std::size_t index;
        std::string help;
    };
    std::map<std::string, Record> byName;
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
    Impl *im = impl();
    std::lock_guard<std::mutex> lock(im->mu);
    auto it = im->byName.find(name);
    if (it != im->byName.end()) {
        if (it->second.kind != Kind::Counter)
            ipref_panic("metric '%s' re-registered with a different "
                        "kind", name.c_str());
        return im->counters[it->second.index];
    }
    im->counters.emplace_back();
    im->byName[name] = {Kind::Counter, im->counters.size() - 1, help};
    return im->counters.back();
}

Gauge &
Registry::gauge(const std::string &name, const std::string &help)
{
    Impl *im = impl();
    std::lock_guard<std::mutex> lock(im->mu);
    auto it = im->byName.find(name);
    if (it != im->byName.end()) {
        if (it->second.kind != Kind::Gauge)
            ipref_panic("metric '%s' re-registered with a different "
                        "kind", name.c_str());
        return im->gauges[it->second.index];
    }
    im->gauges.emplace_back();
    im->byName[name] = {Kind::Gauge, im->gauges.size() - 1, help};
    return im->gauges.back();
}

LatencyHistogram &
Registry::histogram(const std::string &name, std::vector<double> bounds,
                    const std::string &help)
{
    Impl *im = impl();
    std::lock_guard<std::mutex> lock(im->mu);
    auto it = im->byName.find(name);
    if (it != im->byName.end()) {
        if (it->second.kind != Kind::Histogram)
            ipref_panic("metric '%s' re-registered with a different "
                        "kind", name.c_str());
        return im->histograms[it->second.index];
    }
    im->histograms.emplace_back(std::move(bounds));
    im->byName[name] = {Kind::Histogram, im->histograms.size() - 1,
                        help};
    return im->histograms.back();
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
        switch (rec.kind) {
          case Kind::Counter:
            s.counters.emplace_back(
                name, im->counters[rec.index].value());
            break;
          case Kind::Gauge:
            s.gauges.emplace_back(name,
                                  im->gauges[rec.index].value());
            break;
          case Kind::Histogram: {
            HistogramSample h = im->histograms[rec.index].sample();
            h.name = name;
            s.histograms.push_back(std::move(h));
            break;
          }
        }
    }
    return s;
}

void
Registry::resetAll()
{
    Impl *im = impl();
    std::lock_guard<std::mutex> lock(im->mu);
    for (auto &c : im->counters)
        c.reset();
    for (auto &g : im->gauges)
        g.reset();
    for (auto &h : im->histograms)
        h.reset();
}

// --- exporters --------------------------------------------------------

struct JsonLinesExporter::Impl
{
    std::mutex mu;
    std::string path;
    std::ofstream out;
};

JsonLinesExporter::JsonLinesExporter(std::string path)
    : impl_(std::make_unique<Impl>())
{
    impl_->path = std::move(path);
    impl_->out.open(impl_->path, std::ios::trunc);
    if (!impl_->out)
        ipref_warn("metrics: cannot open '%s' for writing",
                   impl_->path.c_str());
}

JsonLinesExporter::~JsonLinesExporter() = default;

void
JsonLinesExporter::consume(const Snapshot &s)
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (!impl_->out)
        return;
    impl_->out << snapshotToJsonLine(s) << "\n";
    // Per-record flush: the stream is tailed live by ipref_top.
    impl_->out.flush();
}

void
JsonLinesExporter::flush()
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->out)
        impl_->out.flush();
}

struct SnapshotRing::Impl
{
    mutable std::mutex mu;
    std::size_t capacity;
    std::deque<Snapshot> ring;
};

SnapshotRing::SnapshotRing(std::size_t capacity)
    : impl_(std::make_unique<Impl>())
{
    impl_->capacity = capacity == 0 ? 1 : capacity;
}

SnapshotRing::~SnapshotRing() = default;

void
SnapshotRing::consume(const Snapshot &s)
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->ring.push_back(s);
    while (impl_->ring.size() > impl_->capacity)
        impl_->ring.pop_front();
}

std::vector<Snapshot>
SnapshotRing::recent() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return {impl_->ring.begin(), impl_->ring.end()};
}

// --- sampler ----------------------------------------------------------

struct Sampler::Impl
{
    std::uint64_t intervalMs;
    std::vector<std::shared_ptr<Exporter>> exporters;

    std::mutex mu;
    std::condition_variable cv;
    std::thread thread;
    bool running = false;
    bool stopRequested = false;
    std::uint64_t seq = 0;

    /** Serializes exports from the thread and sampleNow() callers. */
    std::mutex exportMu;

    void
    exportOne()
    {
        Snapshot s = Registry::instance().snapshot();
        std::lock_guard<std::mutex> lock(exportMu);
        s.seq = seq++;
        s.unixMs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count());
        for (const auto &e : exporters)
            e->consume(s);
    }

    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mu);
        while (!stopRequested) {
            cv.wait_for(lock, std::chrono::milliseconds(intervalMs));
            if (stopRequested)
                break;
            lock.unlock();
            exportOne();
            lock.lock();
        }
    }
};

Sampler::Sampler(std::uint64_t intervalMs)
    : impl_(std::make_unique<Impl>())
{
    impl_->intervalMs = intervalMs == 0 ? 1000 : intervalMs;
}

Sampler::~Sampler()
{
    stop();
}

void
Sampler::addExporter(std::shared_ptr<Exporter> exporter)
{
    if (exporter)
        impl_->exporters.push_back(std::move(exporter));
}

void
Sampler::start()
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (impl_->running)
        return;
    impl_->running = true;
    impl_->stopRequested = false;
    impl_->thread = std::thread([this] { impl_->loop(); });
}

void
Sampler::stop()
{
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        if (!impl_->running) {
            return;
        }
        impl_->stopRequested = true;
    }
    impl_->cv.notify_all();
    impl_->thread.join();
    impl_->running = false;
    // Final snapshot: the stream's last record carries the final
    // instrument totals, so interval deltas reconcile exactly.
    impl_->exportOne();
    for (const auto &e : impl_->exporters)
        e->flush();
}

void
Sampler::sampleNow()
{
    impl_->exportOne();
}

std::uint64_t
Sampler::intervalMs() const
{
    return impl_->intervalMs;
}

// --- process-wide wiring ---------------------------------------------

namespace
{

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
    if (doomed)
        doomed->stop();
}

void
configureMetrics(const MetricsOptions &opts)
{
    std::unique_ptr<Sampler> previous;
    {
        std::lock_guard<std::mutex> lock(g_samplerMu);
        previous = std::move(g_sampler);
    }
    if (previous)
        previous->stop();
    previous.reset();

    if (opts.intervalMs == 0 || !opts.anySink())
        return;

    auto sampler = std::make_unique<Sampler>(opts.intervalMs);
    if (!opts.jsonlPath.empty())
        sampler->addExporter(
            std::make_shared<JsonLinesExporter>(opts.jsonlPath));
    if (opts.ringCapacity != 0)
        sampler->addExporter(
            std::make_shared<SnapshotRing>(opts.ringCapacity));
    sampler->start();

    std::lock_guard<std::mutex> lock(g_samplerMu);
    g_sampler = std::move(sampler);
    if (!g_atexitRegistered) {
        std::atexit(shutdownMetrics);
        g_atexitRegistered = true;
    }
}

Sampler *
globalSampler()
{
    std::lock_guard<std::mutex> lock(g_samplerMu);
    return g_sampler.get();
}

} // namespace ipref::metrics
