#include "shell/msg_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace t3dsim::shell
{

MessageQueue::MessageQueue(const ShellConfig &config)
    : _config(config)
{
    T3D_FATAL_IF(config.msgQueueCapacity == 0,
                 "ShellConfig::msgQueueCapacity must be nonzero: with "
                 "no hardware slots every delivery would land in the "
                 "overflow region, which receivers never observe "
                 "directly, so delivered messages would be invisible "
                 "and receivers would spin forever");
}

void
MessageQueue::deliver(Cycles arrive, const std::uint64_t words[4])
{
    Entry entry;
    entry.msg.arrival = arrive;
    std::copy(words, words + 4, entry.msg.words.begin());

    // Keep concat(_hw, _spill) ordered by arrival so the receiver
    // drains messages in delivery order.
    auto by_arrival = [](Cycles t, const Entry &e) {
        return t < e.msg.arrival;
    };

    if (_hw.size() < _config.msgQueueCapacity) {
        // Hardware segment has room (and by the invariant the spill
        // region is empty): plain sorted insert.
        auto pos =
            std::upper_bound(_hw.begin(), _hw.end(), arrive, by_arrival);
        _hw.insert(pos, entry);
    } else if (!_hw.empty() && arrive < _hw.back().msg.arrival) {
        // The newcomer sorts into the full hardware segment: it
        // takes its place there and the youngest hardware entry is
        // demoted to the overflow region.
        Entry demoted = _hw.back();
        _hw.pop_back();
        if (!demoted.spilled) {
            // Count only the first trip into the overflow region: a
            // refilled entry keeps its spilled marking (its one drain
            // charge is still pending), so demoting it again must not
            // double-count.
            demoted.spilled = true;
            T3D_COUNT(_ctr, msgSpills);
        }
        _spill.push_front(demoted);
        auto pos =
            std::upper_bound(_hw.begin(), _hw.end(), arrive, by_arrival);
        _hw.insert(pos, entry);
    } else {
        // Hardware segment full and the newcomer is youngest-or-tied:
        // system software parks it in the DRAM overflow region.
        entry.spilled = true;
        T3D_COUNT(_ctr, msgSpills);
        auto pos = std::upper_bound(_spill.begin(), _spill.end(), arrive,
                                    by_arrival);
        _spill.insert(pos, entry);
    }

    if (_onDeliver)
        _onDeliver();
}

std::optional<Cycles>
MessageQueue::headArrival() const
{
    if (_hw.empty())
        return std::nullopt;
    return _hw.front().msg.arrival;
}

std::pair<Message, Cycles>
MessageQueue::dequeue(Cycles now, bool handler_mode)
{
    T3D_FATAL_IF(!hasMessage(), "dequeue from an empty message queue");
    Entry entry = _hw.front();
    _hw.pop_front();

    // System software refills the drained hardware slot from the
    // overflow region (the entry keeps its spilled marking).
    if (!_spill.empty()) {
        _hw.push_back(_spill.front());
        _spill.pop_front();
    }

    Cycles done =
        std::max(now, entry.msg.arrival) + _config.msgInterruptCycles;
    if (handler_mode)
        done += _config.msgHandlerCycles;
    if (entry.spilled)
        done += _config.msgSpillDrainCycles;
    T3D_COUNT(_ctr, msgInterrupts);
    T3D_TRACE(_trace, span(_pe, "msg_recv", entry.msg.arrival, done));
    return {entry.msg, done};
}

} // namespace t3dsim::shell
