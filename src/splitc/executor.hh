/**
 * @file
 * SPMD executor: one C++20 coroutine per PE, scheduled
 * lowest-logical-clock-first (conservative discrete event
 * execution). Coroutines suspend only at cross-PE wait points —
 * barriers, store_sync, message receive; every other runtime
 * operation charges the local clock and returns normally.
 *
 * Host-performance design (see DESIGN.md "Host performance"): the
 * runnable set is a binary min-heap keyed by (logical clock, PE), so
 * selecting the next PE is O(log P); parked PEs are woken
 * event-driven — ArrivalLog::record and MessageQueue::deliver fire
 * node hooks that enqueue the affected PE for a wake check after the
 * current resume — instead of rescanning all P slots per step. Wake
 * checks run at exactly the point the old polling loop ran them
 * (between a resume and the next pick), so simulated timing is
 * bit-identical to the O(P)-scan scheduler; the determinism
 * regression test pins this.
 */

#ifndef T3DSIM_SPLITC_EXECUTOR_HH
#define T3DSIM_SPLITC_EXECUTOR_HH

#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "machine/machine.hh"
#include "splitc/config.hh"
#include "sim/types.hh"

namespace t3dsim::splitc
{

class Proc;
class Scheduler;

/** Coroutine handle type of one PE's program. */
class ProcTask
{
  public:
    struct promise_type
    {
        std::exception_ptr exception;

        ProcTask
        get_return_object()
        {
            return ProcTask(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }
        void return_void() {}

        void
        unhandled_exception()
        {
            exception = std::current_exception();
        }
    };

    ProcTask() = default;
    explicit ProcTask(std::coroutine_handle<promise_type> handle)
        : _handle(handle)
    {
    }

    ProcTask(ProcTask &&other) noexcept
        : _handle(std::exchange(other._handle, nullptr))
    {
    }

    ProcTask &
    operator=(ProcTask &&other) noexcept
    {
        if (this != &other) {
            destroy();
            _handle = std::exchange(other._handle, nullptr);
        }
        return *this;
    }

    ProcTask(const ProcTask &) = delete;
    ProcTask &operator=(const ProcTask &) = delete;
    ~ProcTask() { destroy(); }

    std::coroutine_handle<promise_type> handle() const { return _handle; }

  private:
    void
    destroy()
    {
        if (_handle)
            _handle.destroy();
        _handle = nullptr;
    }

    std::coroutine_handle<promise_type> _handle;
};

/** A PE's program: a coroutine body receiving its runtime handle. */
using ProgramFn = std::function<ProcTask(Proc &)>;

/** Awaitable returned by Proc::barrier() / Proc::allStoreSync(). */
struct BarrierAwaiter
{
    Proc &proc;

    bool await_ready() const noexcept;
    void await_suspend(std::coroutine_handle<>) const;
    void await_resume() const noexcept {}
};

/** Awaitable returned by Proc::storeSync(bytes) / Proc::amWait(). */
struct StoreSyncAwaiter
{
    Proc &proc;
    std::uint64_t targetCumulative;

    /** False: wait on the store-byte log; true: on the AM log. */
    bool amLog = false;

    bool await_ready() const noexcept;
    void await_suspend(std::coroutine_handle<>) const;
    void await_resume() const noexcept {}
};

/** Awaitable returned by Proc::waitMessage(). */
struct MessageAwaiter
{
    Proc &proc;

    bool await_ready() const noexcept;
    void await_suspend(std::coroutine_handle<>) const;
    void await_resume() const noexcept {}
};

/** Per-PE scheduling state. */
enum class ProcState : std::uint8_t
{
    Ready,
    BarrierWait,
    StoreWait,
    MessageWait,
    Done,
};

/**
 * The SPMD scheduler. Owns the Proc runtime objects and coroutine
 * frames for one run and executes them sequentially on the calling
 * thread.
 */
class Scheduler
{
  public:
    Scheduler(machine::Machine &machine, const SplitcConfig &config);
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Run @p program on every PE to completion.
     * @return Per-PE finish times (cycles).
     */
    std::vector<Cycles> run(const ProgramFn &program);

    /** The runtime handle of PE @p pe (valid during run()). */
    Proc &proc(PeId pe);

    machine::Machine &machine() { return _machine; }
    const SplitcConfig &config() const { return _config; }

    /** @name Called by awaitables / Proc (internal) */
    /// @{
    /**
     * Park @p pe in BarrierWait and remember it on the waiter list,
     * so completing the generation wakes exactly the parked PEs
     * instead of scanning all P slots.
     */
    void parkBarrier(PeId pe);

    void parkStoreWait(PeId pe, std::uint64_t target_cumulative,
                       bool am_log);
    void parkMessageWait(PeId pe);

    /**
     * Wake all barrier waiters at @p exit (last arriver calls).
     * O(waiters), not O(P): drains the waiter list(s) built by
     * parkBarrier. Wake order cannot affect scheduling order — the
     * ready heap totally orders by (clock, pe) — so the list order
     * is as deterministic as the old PE-order scan.
     */
    void completeBarrier(Cycles exit);

    /**
     * PE @p pe arrived at the barrier at time @p when: record the
     * arrival in the barrier network and, if @p pe was the last
     * arriver, complete the generation.
     */
    void barrierArrive(PeId pe, Cycles when);

    /**
     * A signaling store of @p bytes bytes landed at PE @p dst at time
     * @p when; record it in the destination's arrival log (possibly
     * waking a store_sync waiter).
     */
    void recordStoreArrival(PeId dst, Cycles when, std::uint64_t bytes);

    /** Like recordStoreArrival, for the active-message arrival log. */
    void recordAmArrival(PeId dst, Cycles when, std::uint64_t count);

    /**
     * Deterministic flow account of one receiver's AM queue (§7.4).
     * The deposit path routes between the primary queue and the DRAM
     * overflow ring on these counters — sampled at the ticket claim —
     * never on a peek at the receiver's memory, so placement is a
     * pure function of simulated state.
     */
    struct AmFlowCounts
    {
        /** Deposits rerouted into the overflow ring (claim side). */
        std::uint64_t spillsClaimed = 0;
        /** Messages dispatched by amPoll (receiver-published). */
        std::uint64_t dispatched = 0;
        /** Dispatches that recovered a spilled message. */
        std::uint64_t spillsDrained = 0;
    };

    /**
     * The flow account of PE @p pe: amDeposit reads it at the ticket
     * claim and bumps spillsClaimed through it.
     */
    AmFlowCounts &amFlow(PeId pe) { return _amFlow[pe]; }

    /**
     * Receiver publish: PE @p pe dispatched one message (@p spilled:
     * recovered from the overflow ring).
     */
    void amPublishDispatch(PeId pe, bool spilled);
    /// @}

  private:
    /** Min-heap entry: one Ready PE keyed by its logical clock. */
    struct ReadyRef
    {
        Cycles clock;
        PeId pe;

        /** std::push_heap builds a max-heap; invert for a min-heap
         *  with ties broken toward the lowest PE (the same order the
         *  old linear scan produced). */
        bool
        operator<(const ReadyRef &other) const
        {
            if (clock != other.clock)
                return clock > other.clock;
            return pe > other.pe;
        }
    };

    /** Push @p pe (which just became Ready) onto the ready heap. */
    void markReady(PeId pe);

    /** Pop the Ready PE with the smallest (clock, pe) key. */
    PeId popReady();

    /**
     * Node hook: an arrival or message landed at @p pe. Queues a
     * wake check to run after the current resume (the point the old
     * polling scheduler evaluated wait conditions).
     */
    void queueWakeupCheck(PeId pe);

    /**
     * Evaluate @p pe's wait condition; move it to Ready (charging the
     * wake-up costs) if satisfied. Clears the wakeQueued flag.
     * @return True if the PE became Ready.
     */
    bool tryWake(PeId pe);

    /** Run the queued wake checks, moving satisfied PEs to Ready. */
    void drainPendingWakeups();

    /** Install / remove the per-node wakeup hooks. */
    void installHooks();
    void removeHooks();

    /**
     * Resume @p pe (which must be Ready) once. Requeues it if the
     * awaitable left it Ready.
     * @return True if the coroutine ran to completion; any exception
     *         is left in the coroutine promise for the caller.
     */
    bool resumeSlot(PeId pe);

    /** The scheduling loop proper; run() wraps it with setup and the
     *  end-of-run flush. */
    void mainLoop();

    /** Sync, charge, and requeue one parked barrier waiter. */
    void wakeBarrierWaiter(PeId pe, Cycles exit);

    [[noreturn]] void panicDeadlock(std::size_t done) const;

    machine::Machine &_machine;
    SplitcConfig _config;

    struct Slot
    {
        std::unique_ptr<Proc> proc;
        ProcTask task;
        ProcState state = ProcState::Ready;
        std::uint64_t storeTarget = 0;
        bool storeTargetAmLog = false;

        /** A wake check for this PE is queued in _pendingWakeups. */
        bool wakeQueued = false;
    };

    std::vector<Slot> _slots;

    /** Per-receiver AM queue flow accounts (see amFlow()). */
    std::vector<AmFlowCounts> _amFlow;

    /** Ready PEs, min-heap via std::push_heap/std::pop_heap. */
    std::vector<ReadyRef> _ready;

    /** PEs with a queued wake check (FIFO). */
    std::vector<PeId> _pendingWakeups;

    /** PEs parked in BarrierWait this generation. */
    std::vector<PeId> _barrierWaiters;

    /** PEs whose coroutine has completed. */
    std::size_t _done = 0;

    bool _running = false;
};

/**
 * Convenience entry point: build a scheduler and run @p program on
 * every PE of @p machine.
 */
std::vector<Cycles> runSpmd(machine::Machine &machine,
                            const ProgramFn &program,
                            const SplitcConfig &config = SplitcConfig{});

} // namespace t3dsim::splitc

#endif // T3DSIM_SPLITC_EXECUTOR_HH
