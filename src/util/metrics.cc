#include "util/metrics.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

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

namespace
{

/** Prometheus `le` label rendering for a bucket bound. */
std::string
leLabel(double bound)
{
    std::string n = jsonNumber(bound);
    return n;
}

} // namespace

std::string
renderPrometheus(const Snapshot &s)
{
    std::ostringstream os;
    for (const auto &[name, value] : s.counters) {
        os << "# TYPE " << name << " counter\n"
           << name << " " << value << "\n";
    }
    for (const auto &[name, value] : s.gauges) {
        os << "# TYPE " << name << " gauge\n"
           << name << " " << value << "\n";
    }
    for (const HistogramSample &h : s.histograms) {
        os << "# TYPE " << h.name << " histogram\n";
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < h.bounds.size(); ++b) {
            cum += b < h.counts.size() ? h.counts[b] : 0;
            os << h.name << "_bucket{le=\"" << leLabel(h.bounds[b])
               << "\"} " << cum << "\n";
        }
        os << h.name << "_bucket{le=\"+Inf\"} " << h.count << "\n"
           << h.name << "_sum " << jsonNumber(h.sum) << "\n"
           << h.name << "_count " << h.count << "\n";
    }
    return os.str();
}

Snapshot
parsePrometheus(const std::string &text)
{
    Snapshot s;
    std::map<std::string, std::string> types; //!< name -> type token
    std::map<std::string, HistogramSample> hists;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (line[0] == '#') {
            // "# TYPE <name> <type>"
            std::istringstream ls(line);
            std::string hash, kw, name, type;
            ls >> hash >> kw >> name >> type;
            if (kw == "TYPE")
                types[name] = type;
            continue;
        }
        // "<name>[{le="B"}] <value>"
        std::size_t sp = line.rfind(' ');
        if (sp == std::string::npos)
            throw std::runtime_error("metrics: bad exposition line: " +
                                     line);
        std::string key = line.substr(0, sp);
        double value = std::strtod(line.c_str() + sp + 1, nullptr);

        std::string le;
        std::size_t brace = key.find('{');
        if (brace != std::string::npos) {
            std::size_t q1 = key.find('"', brace);
            std::size_t q2 = q1 == std::string::npos
                                 ? std::string::npos
                                 : key.find('"', q1 + 1);
            if (q2 == std::string::npos)
                throw std::runtime_error(
                    "metrics: bad label in exposition line: " + line);
            le = key.substr(q1 + 1, q2 - q1 - 1);
            key = key.substr(0, brace);
        }

        auto baseOf = [&](const std::string &suffix) {
            return key.size() > suffix.size() &&
                           key.compare(key.size() - suffix.size(),
                                       suffix.size(), suffix) == 0
                       ? key.substr(0, key.size() - suffix.size())
                       : std::string();
        };
        std::string bucketBase = baseOf("_bucket");
        std::string sumBase = baseOf("_sum");
        std::string countBase = baseOf("_count");

        if (!bucketBase.empty() &&
            types[bucketBase] == "histogram") {
            HistogramSample &h = hists[bucketBase];
            h.name = bucketBase;
            if (le != "+Inf") {
                h.bounds.push_back(std::strtod(le.c_str(), nullptr));
                h.counts.push_back(static_cast<std::uint64_t>(value));
            }
        } else if (!sumBase.empty() && types[sumBase] == "histogram") {
            hists[sumBase].sum = value;
        } else if (!countBase.empty() &&
                   types[countBase] == "histogram") {
            hists[countBase].count =
                static_cast<std::uint64_t>(value);
        } else if (types[key] == "gauge") {
            s.gauges.emplace_back(key,
                                  static_cast<std::int64_t>(value));
        } else {
            s.counters.emplace_back(key,
                                    static_cast<std::uint64_t>(value));
        }
    }
    for (auto &[name, h] : hists) {
        // De-cumulate the bucket series back to per-bucket counts and
        // append the +Inf bucket (count minus the last cumulative).
        std::uint64_t prev = 0;
        for (std::uint64_t &c : h.counts) {
            std::uint64_t cum = c;
            c = cum - prev;
            prev = cum;
        }
        h.counts.push_back(h.count - prev);
        s.histograms.push_back(h);
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

struct PrometheusExporter::Impl
{
    std::mutex mu;
    std::string path;
    std::string latest; //!< most recent rendered exposition
    int listenFd = -1;
    unsigned port = 0;
    std::thread server;

    void
    serveLoop()
    {
        for (;;) {
            int fd = ::accept(listenFd, nullptr, nullptr);
            if (fd < 0)
                return; // listener closed: shutting down
            std::string body;
            {
                std::lock_guard<std::mutex> lock(mu);
                body = latest;
            }
            std::ostringstream resp;
            resp << "HTTP/1.0 200 OK\r\n"
                 << "Content-Type: text/plain; version=0.0.4\r\n"
                 << "Content-Length: " << body.size() << "\r\n"
                 << "Connection: close\r\n\r\n"
                 << body;
            std::string text = resp.str();
            std::size_t off = 0;
            while (off < text.size()) {
                ssize_t n = ::send(fd, text.data() + off,
                                   text.size() - off, MSG_NOSIGNAL);
                if (n <= 0)
                    break;
                off += static_cast<std::size_t>(n);
            }
            ::close(fd);
        }
    }
};

PrometheusExporter::PrometheusExporter(std::string path, unsigned port)
    : impl_(std::make_unique<Impl>())
{
    impl_->path = std::move(path);
    if (port == 0 && impl_->path.empty())
        return;
    if (port == 0)
        return;

    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        ipref_warn("metrics: socket() failed; exposition endpoint "
                   "disabled");
        return;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 8) != 0) {
        ipref_warn("metrics: cannot bind localhost:%u; exposition "
                   "endpoint disabled", port);
        ::close(fd);
        return;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
    impl_->listenFd = fd;
    impl_->port = ntohs(addr.sin_port);
    impl_->server = std::thread([this] { impl_->serveLoop(); });
}

PrometheusExporter::~PrometheusExporter()
{
    if (impl_->listenFd >= 0) {
        ::shutdown(impl_->listenFd, SHUT_RDWR);
        ::close(impl_->listenFd);
        impl_->server.join();
    }
}

unsigned
PrometheusExporter::boundPort() const
{
    return impl_->port;
}

void
PrometheusExporter::consume(const Snapshot &s)
{
    std::string text = renderPrometheus(s);
    {
        std::lock_guard<std::mutex> lock(impl_->mu);
        impl_->latest = text;
    }
    if (impl_->path.empty())
        return;
    // Atomic rewrite: readers never observe a torn exposition.
    std::string tmp = impl_->path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) {
            ipref_warn("metrics: cannot write '%s'", tmp.c_str());
            return;
        }
        out << text;
    }
    if (std::rename(tmp.c_str(), impl_->path.c_str()) != 0)
        ipref_warn("metrics: cannot rename '%s' into place",
                   tmp.c_str());
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
    if (!opts.promPath.empty() || opts.promPort != 0)
        sampler->addExporter(std::make_shared<PrometheusExporter>(
            opts.promPath, opts.promPort));
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
