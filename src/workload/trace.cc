#include "workload/trace.h"

#include <cassert>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "workload/ycsb.h"

namespace smartconf::workload {

double
DiurnalCurve::at(sim::Tick t) const
{
    const double p = static_cast<double>(period <= 0 ? 1 : period);
    // Raised cosine: trough at phase 0, peak at phase 0.5.
    const double angle = 2.0 * 3.14159265358979323846 *
                         static_cast<double>(t + phase) / p;
    const double swing = 0.5 * (1.0 - std::cos(angle));
    return trough + (1.0 - trough) * swing;
}

Trace
recordDiurnal(const YcsbParams &params, const DiurnalCurve &curve,
              sim::Rng rng, sim::Tick ticks)
{
    Trace out;
    YcsbGenerator gen(params, rng);
    std::vector<Op> ops;
    for (sim::Tick t = 0; t < ticks; ++t) {
        gen.setOpsPerTick(params.ops_per_tick * curve.at(t));
        gen.tickInto(ops);
        out.record(t, ops);
    }
    return out;
}

void
Trace::record(sim::Tick tick, const std::vector<Op> &ops)
{
    assert(records_.empty() || tick >= records_.back().tick);
    for (const Op &op : ops)
        records_.push_back({tick, op});
}

sim::Tick
Trace::horizon() const
{
    return records_.empty() ? -1 : records_.back().tick;
}

std::string
Trace::serialize() const
{
    std::ostringstream out;
    out << std::setprecision(17);
    out << "# smartconf operation trace: tick type key size_mb\n";
    for (const Record &r : records_) {
        out << r.tick << ' '
            << (r.op.type == Op::Type::Write ? 'W' : 'R') << ' '
            << r.op.key << ' ' << r.op.size_mb << '\n';
    }
    return out.str();
}

Trace
Trace::parse(const std::string &text)
{
    Trace out;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    sim::Tick last_tick = -1;
    while (std::getline(in, line)) {
        ++line_no;
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        std::istringstream fields(line);
        Record r;
        char type = '?';
        if (!(fields >> r.tick >> type >> r.op.key >> r.op.size_mb)) {
            throw std::runtime_error(
                "trace parse error at line " + std::to_string(line_no) +
                ": expected 'tick type key size_mb'");
        }
        if (type == 'W') {
            r.op.type = Op::Type::Write;
        } else if (type == 'R') {
            r.op.type = Op::Type::Read;
        } else {
            throw std::runtime_error(
                "trace parse error at line " + std::to_string(line_no) +
                ": type must be R or W");
        }
        if (r.tick < last_tick) {
            throw std::runtime_error(
                "trace parse error at line " + std::to_string(line_no) +
                ": ticks must not regress");
        }
        last_tick = r.tick;
        out.records_.push_back(r);
    }
    return out;
}

TraceReplayer::TraceReplayer(Trace trace) : trace_(std::move(trace)) {}

std::vector<Op>
TraceReplayer::tick(sim::Tick now)
{
    std::vector<Op> out;
    const auto &records = trace_.records();
    while (next_ < records.size() && records[next_].tick <= now) {
        if (records[next_].tick == now)
            out.push_back(records[next_].op);
        ++next_;
    }
    return out;
}

} // namespace smartconf::workload
