#include "spans.hh"

#include "util/json.hh"

namespace perfbench
{

int
SpanLog::open(const std::string &name, int parent)
{
    intervals_.push_back({name, nowNs(), 0, parent});
    return static_cast<int>(intervals_.size() - 1);
}

void
SpanLog::close(int id)
{
    intervals_[static_cast<std::size_t>(id)].endNs = nowNs();
}

void
SpanLog::addAggregate(const std::string &name, int parent,
                      const CallTimer &t)
{
    if (t.calls > 0)
        aggregates_.push_back({name, parent, t});
}

double
SpanLog::seconds(int id) const
{
    const Interval &s = intervals_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.endNs - s.startNs) * 1e-9;
}

std::vector<std::int64_t>
SpanLog::coveredNs() const
{
    std::vector<std::int64_t> cov(intervals_.size(), 0);
    for (const Interval &s : intervals_)
        if (s.parent != noParent)
            cov[static_cast<std::size_t>(s.parent)] += s.endNs - s.startNs;
    for (const Aggregate &a : aggregates_)
        cov[static_cast<std::size_t>(a.parent)] += a.timer.ns;
    return cov;
}

std::map<std::string, double>
SpanLog::selfSeconds() const
{
    std::vector<std::int64_t> cov = coveredNs();
    std::map<std::string, std::int64_t> ns;
    for (std::size_t i = 0; i < intervals_.size(); ++i)
        ns[intervals_[i].name] +=
            intervals_[i].endNs - intervals_[i].startNs - cov[i];
    for (const Aggregate &a : aggregates_)
        ns[a.name] += a.timer.ns;
    std::map<std::string, double> out;
    for (const auto &[name, v] : ns)
        out[name] = static_cast<double>(v) * 1e-9;
    return out;
}

std::map<std::string, std::uint64_t>
SpanLog::calls() const
{
    std::map<std::string, std::uint64_t> out;
    for (const Interval &s : intervals_)
        ++out[s.name];
    for (const Aggregate &a : aggregates_)
        out[a.name] += a.timer.calls;
    return out;
}

std::string
SpanLog::check() const
{
    if (intervals_.empty() || intervals_[0].parent != noParent)
        return "the first span is not the root";
    std::vector<std::int64_t> cov = coveredNs();
    // Per parent, the end of the latest child seen so far: children
    // are opened in time order on one thread, so each must start after
    // its previous sibling ended.
    std::vector<std::int64_t> lastChildEnd(intervals_.size(), 0);
    for (std::size_t i = 0; i < intervals_.size(); ++i) {
        const Interval &s = intervals_[i];
        if (s.endNs < s.startNs)
            return "span '" + s.name + "' was never closed";
        if (i > 0 && s.parent == noParent)
            return "span '" + s.name + "' is a second root";
        if (cov[i] > s.endNs - s.startNs)
            return "children of '" + s.name + "' cover more than it";
        if (s.parent == noParent)
            continue;
        const auto p = static_cast<std::size_t>(s.parent);
        const Interval &ps = intervals_[p];
        if (s.startNs < ps.startNs || s.endNs > ps.endNs)
            return "span '" + s.name + "' escapes parent '" + ps.name +
                   "'";
        if (s.startNs < lastChildEnd[p])
            return "span '" + s.name + "' overlaps a sibling";
        lastChildEnd[p] = s.endNs;
    }
    return "";
}

void
SpanLog::writeJsonLines(std::ostream &os) const
{
    const std::int64_t t0 = intervals_.empty() ? 0 : intervals_[0].startNs;
    for (std::size_t i = 0; i < intervals_.size(); ++i) {
        const Interval &s = intervals_[i];
        os << "{\"kind\": \"span\", \"id\": " << i
           << ", \"name\": " << ipref::jsonString(s.name)
           << ", \"parent\": " << s.parent
           << ", \"start_ns\": " << s.startNs - t0
           << ", \"end_ns\": " << s.endNs - t0 << "}\n";
    }
    for (const Aggregate &a : aggregates_) {
        os << "{\"kind\": \"aggregate\", \"name\": "
           << ipref::jsonString(a.name) << ", \"parent\": " << a.parent
           << ", \"calls\": " << a.timer.calls
           << ", \"total_ns\": " << a.timer.ns << "}\n";
    }
}

} // namespace perfbench
