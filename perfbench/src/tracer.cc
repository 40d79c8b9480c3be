#include "tracer.hh"

#include <cstdio>
#include <stdexcept>

namespace perfbench
{

Tracer::Span::Span(Tracer &tracer, std::uint32_t layer, std::uint64_t id)
{
    if (tracer.enabled_) {
        tracer_ = &tracer;
        tracer.open(layer, id);
    }
}

Tracer::Span::~Span()
{
    if (tracer_)
        tracer_->close();
}

std::uint32_t
Tracer::layer(std::string_view name)
{
    if (auto it = index_.find(name); it != index_.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.emplace_back(name);
    index_.emplace(std::string(name), id);
    return id;
}

void
Tracer::open(std::uint32_t layer, std::uint64_t id)
{
    const std::uint64_t now = nowNs();
    if (epochNs_ == 0)
        epochNs_ = now;
    Open span{layer, id, now};
    if (records_.size() < kMaxRecords) {
        span.record = static_cast<std::int64_t>(records_.size());
        const std::int32_t parent =
            stack_.empty() ? -1
                           : static_cast<std::int32_t>(stack_.back().record);
        records_.push_back({layer, parent, id, now, 0, 0});
    }
    stack_.push_back(span);
}

void
Tracer::close()
{
    const std::uint64_t now = nowNs();
    const Open span = stack_.back();
    stack_.pop_back();
    const std::uint64_t total = now - span.start;
    const std::uint64_t self =
        total > span.childNs ? total - span.childNs : 0;
    if (!stack_.empty())
        stack_.back().childNs += total;

    // The phase is the layer of the outermost open span (or this span
    // itself when it is the root).
    const std::uint32_t root =
        stack_.empty() ? span.layer : stack_.front().layer;
    if (totals_.size() <= root)
        totals_.resize(root + 1);
    auto &row = totals_[root];
    if (row.size() <= span.layer)
        row.resize(span.layer + 1);
    LayerTotals &t = row[span.layer];
    t.spans++;
    t.totalNs += total;
    t.selfNs += self;

    ++spansRecorded_;
    if (span.record >= 0) {
        Record &r = records_[static_cast<std::size_t>(span.record)];
        r.end = now;
        r.selfNs = self;
    }
}

std::map<std::string, std::map<std::string, LayerTotals>>
Tracer::totals() const
{
    std::map<std::string, std::map<std::string, LayerTotals>> out;
    for (std::size_t root = 0; root < totals_.size(); ++root) {
        for (std::size_t layer = 0; layer < totals_[root].size();
             ++layer) {
            if (totals_[root][layer].spans)
                out[names_[root]][names_[layer]] = totals_[root][layer];
        }
    }
    return out;
}

void
Tracer::writeCsv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write span file " + path);
    std::fprintf(f, "index,layer,id,parent,start_ns,end_ns,self_ns\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        std::fprintf(f, "%zu,%s,%llu,%d,%llu,%llu,%llu\n", i,
                     names_[r.layer].c_str(),
                     static_cast<unsigned long long>(r.id), r.parent,
                     static_cast<unsigned long long>(r.start - epochNs_),
                     static_cast<unsigned long long>(r.end - epochNs_),
                     static_cast<unsigned long long>(r.selfNs));
    }
    std::fclose(f);
}

} // namespace perfbench
