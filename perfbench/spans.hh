/**
 * @file
 * In-memory span log for the benchmark's traced pass.
 *
 * A span is one timed region: name, start, end and the span that
 * caused it. Calls too short and too frequent to log one by one (a
 * cache access, a prefetch-engine tick) are kept as an aggregate span
 * instead: a call count and a summed duration under one parent. A
 * span's self time is its duration minus what its children cover.
 * The traced pass runs on one thread, so children never overlap and
 * the self times of every span sum to the root's duration; check()
 * verifies exactly that.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic nanoseconds (steady_clock). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Hot-loop accumulator behind one aggregate span. */
struct CallTimer
{
    std::uint64_t calls = 0;
    std::int64_t ns = 0;

    void
    add(std::int64_t dt)
    {
        ++calls;
        ns += dt;
    }
};

class SpanLog
{
  public:
    static constexpr int noParent = -1;

    /** Start an interval span now; @return its id. */
    int open(const std::string &name, int parent);

    /** End interval span @p id now. */
    void close(int id);

    /** Record @p t as an aggregate span under @p parent. */
    void addAggregate(const std::string &name, int parent,
                      const CallTimer &t);

    /** Duration of interval span @p id in seconds. */
    double seconds(int id) const;

    /** Self time per span name, in seconds, over every span. */
    std::map<std::string, double> selfSeconds() const;

    /** Calls per aggregate name (interval spans count once each). */
    std::map<std::string, std::uint64_t> calls() const;

    /**
     * Verify the tree: the first span is the only root, every child
     * lies inside its parent, siblings do not overlap, and no self time
     * is negative. @return "" when the tree is sound, else the first
     * violation.
     */
    std::string check() const;

    /** One JSON object per line: interval spans, then aggregates. */
    void writeJsonLines(std::ostream &os) const;

  private:
    struct Interval
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = noParent;
    };
    struct Aggregate
    {
        std::string name;
        int parent = noParent;
        CallTimer timer;
    };

    /** Children time per interval span id. */
    std::vector<std::int64_t> coveredNs() const;

    std::vector<Interval> intervals_;
    std::vector<Aggregate> aggregates_;
};

/** Interval span for the lifetime of a scope. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, const std::string &name, int parent)
        : log_(log), id_(log.open(name, parent))
    {}
    ~SpanScope() { log_.close(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
