#include "gpu/gpm.hh"

#include "common/log.hh"

namespace hmg
{

GpmNode::GpmNode(Engine &engine, const SystemConfig &cfg, GpmId id,
                 bool with_directory)
    : id_(id),
      l2_(cfg.l2BytesPerGpm(), cfg.l2Ways, cfg.cacheLineBytes,
          /*write_allocate=*/true),
      dram_(engine, cfg)
{
    if (with_directory) {
        dir_ = std::make_unique<Directory>(
            cfg.dirEntriesPerGpm, cfg.dirWays,
            cfg.cacheLineBytes * cfg.dirLinesPerEntry);
    }
}

void
GpmNode::ingress(const Packet &p, Tick arrival)
{
    (void)arrival;
    hmg_assert(p.dst == id_);
    ++rx_count_[static_cast<std::size_t>(p.type)];
    rx_bytes_ += p.bytes;
}

bool
GpmNode::mshrRegister(Addr line, GpmId via, MissCb cb)
{
    std::uint32_t w = free_waiter_;
    if (w == kNoWaiter) {
        w = static_cast<std::uint32_t>(waiters_.size());
        waiters_.emplace_back();
    } else {
        free_waiter_ = waiters_[w].next;
    }
    MshrWaiter &slot = waiters_[w];
    slot.cb = std::move(cb);
    slot.via = via;
    slot.next = kNoWaiter;

    auto [e, first] = mshr_.tryEmplace(line);
    if (first) {
        e->head = w;
    } else {
        waiters_[e->tail].next = w;
        ++mshr_merges_;
    }
    e->tail = w;
    return first;
}

void
GpmNode::reportStats(StatRecorder &r, const std::string &prefix) const
{
    l2_.reportStats(r, prefix + ".l2");
    dram_.reportStats(r, prefix + ".dram");
    r.record(prefix + ".mshr_merges", static_cast<double>(mshr_merges_));
    std::uint64_t rx_msgs = 0;
    for (auto c : rx_count_)
        rx_msgs += c;
    r.record(prefix + ".rx_msgs", static_cast<double>(rx_msgs));
    r.record(prefix + ".rx_bytes", static_cast<double>(rx_bytes_));
    if (dir_)
        dir_->reportStats(r, prefix + ".dir");
}

} // namespace hmg
