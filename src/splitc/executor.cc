#include "splitc/executor.hh"

#include <algorithm>

#include "splitc/proc.hh"
#include "sim/logging.hh"

namespace t3dsim::splitc
{

// ---------------------------------------------------------------------
// Awaitables
// ---------------------------------------------------------------------

bool
BarrierAwaiter::await_ready() const noexcept
{
    // The arrival was recorded by startBarrier(); the awaiter only
    // asks whether the generation has already completed.
    return proc.barrierReady();
}

void
BarrierAwaiter::await_suspend(std::coroutine_handle<>) const
{
    proc.scheduler().parkBarrier(proc.pe());
}

bool
StoreSyncAwaiter::await_ready() const noexcept
{
    auto &log = amLog ? proc.node().amArrivals()
                      : proc.node().storeArrivals();
    auto when = log.timeOfCumulative(targetCumulative);
    if (!when)
        return false;
    proc.clock().syncTo(*when);
    proc.node().core().charge(proc.config().storeSyncPollCycles);
    return true;
}

void
StoreSyncAwaiter::await_suspend(std::coroutine_handle<>) const
{
    proc.scheduler().parkStoreWait(proc.pe(), targetCumulative, amLog);
}

bool
MessageAwaiter::await_ready() const noexcept
{
    return proc.node().shell().messages().hasMessage();
}

void
MessageAwaiter::await_suspend(std::coroutine_handle<>) const
{
    proc.scheduler().parkMessageWait(proc.pe());
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

Scheduler::Scheduler(machine::Machine &machine, const SplitcConfig &config)
    : _machine(machine), _config(config)
{
    _slots.resize(machine.numPes());
    _amFlow.resize(machine.numPes());
    for (PeId pe = 0; pe < machine.numPes(); ++pe) {
        _slots[pe].proc = std::make_unique<Proc>(*this, machine,
                                                 machine.node(pe), config);
    }
}

Scheduler::~Scheduler() = default;

Proc &
Scheduler::proc(PeId pe)
{
    T3D_ASSERT(pe < _slots.size(), "proc index out of range: ", pe);
    return *_slots[pe].proc;
}

void
Scheduler::parkBarrier(PeId pe)
{
    _slots[pe].state = ProcState::BarrierWait;
    _barrierWaiters.push_back(pe);
}

void
Scheduler::parkStoreWait(PeId pe, std::uint64_t target_cumulative,
                         bool am_log)
{
    _slots[pe].state = ProcState::StoreWait;
    _slots[pe].storeTarget = target_cumulative;
    _slots[pe].storeTargetAmLog = am_log;
}

void
Scheduler::parkMessageWait(PeId pe)
{
    _slots[pe].state = ProcState::MessageWait;
}

void
Scheduler::barrierArrive(PeId pe, Cycles when)
{
    auto exit = _machine.barrier().arrive(pe, when);
    if (exit)
        completeBarrier(*exit);
}

void
Scheduler::recordStoreArrival(PeId dst, Cycles when, std::uint64_t bytes)
{
    _machine.node(dst).storeArrivals().record(when, bytes);
}

void
Scheduler::recordAmArrival(PeId dst, Cycles when, std::uint64_t count)
{
    _machine.node(dst).amArrivals().record(when, count);
}

void
Scheduler::amPublishDispatch(PeId pe, bool spilled)
{
    AmFlowCounts &flow = _amFlow[pe];
    ++flow.dispatched;
    if (spilled)
        ++flow.spillsDrained;
}

void
Scheduler::wakeBarrierWaiter(PeId pe, Cycles exit)
{
    Slot &slot = _slots[pe];
    T3D_ASSERT(slot.state == ProcState::BarrierWait,
               "barrier waiter list holds non-waiting PE ", pe);
    Proc &proc = *slot.proc;
    proc.clock().syncTo(exit);
    proc.node().core().charge(_config.endBarrierCycles);
    proc.clearBarrierWait();
    proc.noteBarrierComplete();
    slot.state = ProcState::Ready;
    markReady(pe);
}

void
Scheduler::completeBarrier(Cycles exit)
{
    for (PeId pe : _barrierWaiters)
        wakeBarrierWaiter(pe, exit);
    _barrierWaiters.clear();
    _machine.barrier().resetGeneration();
}

void
Scheduler::markReady(PeId pe)
{
    _ready.push_back({_slots[pe].proc->now(), pe});
    std::push_heap(_ready.begin(), _ready.end());
}

PeId
Scheduler::popReady()
{
    std::pop_heap(_ready.begin(), _ready.end());
    const PeId pe = _ready.back().pe;
    _ready.pop_back();
    return pe;
}

void
Scheduler::queueWakeupCheck(PeId pe)
{
    Slot &slot = _slots[pe];
    if (slot.wakeQueued)
        return;
    if (slot.state != ProcState::StoreWait &&
        slot.state != ProcState::MessageWait)
        return;
    slot.wakeQueued = true;
    _pendingWakeups.push_back(pe);
}

bool
Scheduler::tryWake(PeId pe)
{
    Slot &slot = _slots[pe];
    slot.wakeQueued = false;
    Proc &proc = *slot.proc;
    switch (slot.state) {
      case ProcState::StoreWait: {
        auto &log = slot.storeTargetAmLog
            ? proc.node().amArrivals()
            : proc.node().storeArrivals();
        auto when = log.timeOfCumulative(slot.storeTarget);
        if (when) {
            proc.clock().syncTo(*when);
            proc.node().core().charge(_config.storeSyncPollCycles);
            slot.state = ProcState::Ready;
            markReady(pe);
            return true;
        }
        break;
      }
      case ProcState::MessageWait:
        if (proc.node().shell().messages().hasMessage()) {
            slot.state = ProcState::Ready;
            markReady(pe);
            return true;
        }
        break;
      default:
        break;
    }
    return false;
}

void
Scheduler::drainPendingWakeups()
{
    for (std::size_t i = 0; i < _pendingWakeups.size(); ++i)
        tryWake(_pendingWakeups[i]);
    _pendingWakeups.clear();
}

void
Scheduler::installHooks()
{
    for (PeId pe = 0; pe < _slots.size(); ++pe) {
        _slots[pe].proc->node().setWakeupHooks(
            [this, pe] { queueWakeupCheck(pe); },
            [this, pe] { queueWakeupCheck(pe); },
            [this, pe] { queueWakeupCheck(pe); });
    }
}

void
Scheduler::removeHooks()
{
    for (auto &slot : _slots)
        slot.proc->node().clearWakeupHooks();
}

void
Scheduler::panicDeadlock(std::size_t done) const
{
    std::size_t barrier_waiters = 0, store_waiters = 0, msg_waiters = 0;
    for (const auto &slot : _slots) {
        barrier_waiters += slot.state == ProcState::BarrierWait ? 1 : 0;
        store_waiters += slot.state == ProcState::StoreWait ? 1 : 0;
        msg_waiters += slot.state == ProcState::MessageWait ? 1 : 0;
    }
    T3D_PANIC("SPMD deadlock: ", done, "/", _slots.size(), " done, ",
              barrier_waiters, " in barrier, ", store_waiters,
              " in store_sync, ", msg_waiters,
              " waiting for messages");
}

bool
Scheduler::resumeSlot(PeId pe)
{
    Slot &slot = _slots[pe];
    T3D_ASSERT(slot.state == ProcState::Ready,
               "ready heap out of sync with slot ", pe);
    auto handle = slot.task.handle();
    handle.resume();

    if (handle.done()) {
        slot.state = ProcState::Done;
        return true;
    }
    if (slot.state == ProcState::Ready) {
        // The coroutine suspended but an awaitable left the slot
        // Ready (woken synchronously): requeue it.
        markReady(pe);
    }
    // Else: the awaitable moved the slot into a wait state; a hook
    // or completeBarrier will requeue it.
    return false;
}

void
Scheduler::mainLoop()
{
    while (_done < _slots.size()) {
        drainPendingWakeups();
        if (_ready.empty()) {
            // Nothing runnable and nothing wakeable: deadlock.
            panicDeadlock(_done);
        }

        const PeId next = popReady();
        if (resumeSlot(next)) {
            auto handle = _slots[next].task.handle();
            if (handle.promise().exception)
                std::rethrow_exception(handle.promise().exception);
            ++_done;
        }
    }
}

std::vector<Cycles>
Scheduler::run(const ProgramFn &program)
{
    T3D_ASSERT(!_running, "scheduler re-entered");
    _running = true;

    // Hooks must come off however we leave (panic paths throw in
    // tests): the machine outlives this scheduler.
    struct HookGuard
    {
        Scheduler &sched;
        ~HookGuard() { sched.removeHooks(); }
    } hook_guard{*this};
    installHooks();

    _ready.clear();
    _ready.reserve(_slots.size());
    _pendingWakeups.clear();
    _done = 0;

    for (PeId pe = 0; pe < _slots.size(); ++pe) {
        Slot &slot = _slots[pe];
        slot.task = program(*slot.proc);
        slot.state = ProcState::Ready;
        slot.wakeQueued = false;
        markReady(pe);
    }

    mainLoop();

    _running = false;

    // End-of-program flush: drain every node's write buffer so
    // backing storage reflects all completed stores.
    for (auto &slot : _slots)
        slot.proc->node().mb();

    // Dump the counter/trace reports configured for this run (no-op
    // with observability off).
    _machine.flushObservability();

    std::vector<Cycles> finish;
    finish.reserve(_slots.size());
    for (auto &slot : _slots)
        finish.push_back(slot.proc->now());
    return finish;
}

std::vector<Cycles>
runSpmd(machine::Machine &machine, const ProgramFn &program,
        const SplitcConfig &config)
{
    Scheduler sched(machine, config);
    return sched.run(program);
}

} // namespace t3dsim::splitc
