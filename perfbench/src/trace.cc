#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

Tracer::Tracer() : epoch_(Clock::now()) {}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

Tracer::Buffer &
Tracer::localBuffer()
{
    thread_local const Tracer *owner = nullptr;
    thread_local Buffer *buf = nullptr;
    if (owner != this) {
        std::lock_guard<std::mutex> lock(mu_);
        buffers_.push_back(std::make_unique<Buffer>());
        buffers_.back()->thread =
            static_cast<std::uint32_t>(buffers_.size());
        buf = buffers_.back().get();
        owner = this;
    }
    return *buf;
}

void
Tracer::record(Span s)
{
    Buffer &b = localBuffer();
    s.thread = b.thread;
    b.spans.push_back(std::move(s));
}

std::vector<Span>
Tracer::collect() const
{
    std::vector<Span> all;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &b : buffers_)
        all.insert(all.end(), b->spans.begin(), b->spans.end());
    std::sort(all.begin(), all.end(), [](const Span &a, const Span &b) {
        return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                        : a.id < b.id;
    });
    return all;
}

ScopedSpan::ScopedSpan(Tracer &t, std::string name, std::uint32_t parent,
                       std::int64_t pass, std::int64_t run)
    : tracer_(t)
{
    span_.name = std::move(name);
    span_.id = t.newId();
    span_.parent = parent;
    span_.pass = pass;
    span_.run = run;
    span_.start_ns = t.nowNs();
}

ScopedSpan::~ScopedSpan()
{
    span_.end_ns = tracer_.nowNs();
    tracer_.record(std::move(span_));
}

namespace {

/** Self time of each span, by span id. */
std::map<std::uint32_t, std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint32_t,
                       std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.start_ns, s.end_ns);

    std::map<std::uint32_t, std::int64_t> self;
    for (const Span &s : spans) {
        std::int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::int64_t cur_lo = 0, cur_hi = -1;
            for (auto [lo, hi] : iv) {
                lo = std::max(lo, s.start_ns);
                hi = std::min(hi, s.end_ns);
                if (hi <= lo)
                    continue;
                if (lo > cur_hi) {
                    if (cur_hi > cur_lo)
                        covered += cur_hi - cur_lo;
                    cur_lo = lo;
                    cur_hi = hi;
                } else {
                    cur_hi = std::max(cur_hi, hi);
                }
            }
            if (cur_hi > cur_lo)
                covered += cur_hi - cur_lo;
        }
        self[s.id] = s.durationNs() - covered;
    }
    return self;
}

} // namespace

double
passCoverage(const std::vector<Span> &pass_spans,
             std::map<std::string, double> &by_layer)
{
    const auto self = selfTimesNs(pass_spans);
    std::int64_t root_ns = 0;
    double total = 0.0;
    for (const Span &s : pass_spans) {
        if (s.parent == 0)
            root_ns += s.durationNs();
        const double ns = static_cast<double>(self.at(s.id));
        by_layer[s.name.substr(0, s.name.find('.'))] += ns;
        total += ns;
    }
    if (root_ns <= 0)
        return 0.0;
    return total / (static_cast<double>(root_ns) *
                    static_cast<double>(kWorkers));
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    for (const Span &s : spans)
        std::fprintf(f,
                     "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": "
                     "%lld, \"id\": %u, \"parent\": %u, \"pass\": %lld, "
                     "\"run\": %lld, \"thread\": %u}\n",
                     s.name.c_str(), static_cast<long long>(s.start_ns),
                     static_cast<long long>(s.end_ns), s.id, s.parent,
                     static_cast<long long>(s.pass),
                     static_cast<long long>(s.run), s.thread);
    std::fclose(f);
}

} // namespace perfbench
