#include "splitc/proc.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "alpha/address.hh"
#include "alpha/write_buffer.hh"
#include "sim/logging.hh"

namespace t3dsim::splitc
{

namespace
{

/** Tag reserved for the remote byte-write handler (§4.5/§7.4). */
constexpr std::uint64_t amTagByteWrite = 0;

/** First tag available to user handlers. */
constexpr std::uint64_t amTagUser = 16;

/** Scratch offset of the AM queue (below Node::allocBase). */
constexpr Addr amQueueBase = 4 * KiB;

/** Slot layout: [flag|tag, ticket, a0, a1, a2, a3] = 6 words. The
 *  ticket tag lets the receiver verify which deposit occupies a slot,
 *  so dispatch stays strictly in ticket order across the primary
 *  queue and the overflow ring. */
constexpr Addr amSlotBytes = 48;

} // namespace

Proc::Proc(Scheduler &sched, machine::Machine &machine,
           machine::Node &node, const SplitcConfig &config)
    : _sched(sched), _machine(machine), _node(node), _config(config),
      _annexCurrent(0), _ctr(node.countersIfEnabled()),
      _trace(machine.trace())
{
    T3D_FATAL_IF(_config.amQueueSlots == 0 ||
                     _config.amOverflowSlots == 0,
                 "SplitcConfig::amQueueSlots and amOverflowSlots must "
                 "be nonzero (a 0-slot ring has no address to deposit "
                 "into)");
    T3D_FATAL_IF(
        amQueueBase +
                (Addr{_config.amQueueSlots} + _config.amOverflowSlots) *
                    amSlotBytes >
            machine::Node::allocBase,
        "AM queue rings (", _config.amQueueSlots, " + ",
        _config.amOverflowSlots, " slots of ", amSlotBytes,
        " bytes) do not fit in the scratch region below "
        "Node::allocBase");
    // The §4.5 fix: byte writes into shared data are shipped to the
    // owner and performed locally, making them atomic.
    registerAmHandler(
        amTagByteWrite,
        [](Proc &self, const std::array<std::uint64_t, 4> &args) {
            self.node().core().storeU8(
                static_cast<Addr>(args[0]),
                static_cast<std::uint8_t>(args[1]));
        });
}

GlobalAddr
Proc::allocLocal(std::size_t bytes, std::size_t align)
{
    return GlobalAddr::make(_node.pe(), _node.alloc(bytes, align));
}

// ---------------------------------------------------------------------
// Annex management (§3.4)
// ---------------------------------------------------------------------

unsigned
Proc::annexFor(PeId dst, shell::ReadMode mode)
{
    if (dst == pe())
        return 0;

    auto &core = _node.core();
    if (_config.annexPolicy == AnnexPolicy::SingleReload) {
        // Compare against the remembered contents of register 1.
        core.chargeRegOps(2);
        if (_annexValid && _annexCurrent == dst && _annexMode == mode) {
            T3D_COUNT(_ctr, annexHits);
            return 1;
        }
        _node.shell().setAnnex(1, {dst, mode});
        _annexCurrent = dst;
        _annexMode = mode;
        _annexValid = true;
        return 1;
    }

    // HashedTable: a PE always maps to the same register, so no two
    // registers ever alias the same PE (synonym-hazard-free), at the
    // price of a table lookup on every access.
    const unsigned idx = 1 + (dst % (alpha::numAnnexRegs - 2));
    core.charge(_config.annexTableLookupCycles);
    auto it = _annexTable.find(idx);
    if (it == _annexTable.end() || it->second != dst ||
        _node.shell().annex().get(idx).readMode != mode) {
        _node.shell().setAnnex(idx, {dst, mode});
        _annexTable[idx] = dst;
    } else {
        T3D_COUNT(_ctr, annexHits);
    }
    return idx;
}

// ---------------------------------------------------------------------
// Blocking reads and writes (§4.4)
// ---------------------------------------------------------------------

std::uint64_t
Proc::readU64(GlobalAddr src)
{
    auto &core = _node.core();
    if (src.pe() == pe()) {
        core.chargeRegOps(2); // locality test on the pointer
        return core.loadU64(src.local());
    }
    const unsigned idx = annexFor(src.pe(), shell::ReadMode::Uncached);
    core.charge(_config.ptrOverheadCycles);
    return _node.loadU64(vaFor(idx, src.local()));
}

void
Proc::writeU64(GlobalAddr dst, std::uint64_t value)
{
    auto &core = _node.core();
    if (dst.pe() == pe()) {
        core.chargeRegOps(2);
        // Blocking semantics irrespective of locality (§4.5): the
        // write must be complete, not buffered.
        core.storeU64Mb(dst.local(), value);
        return;
    }
    const unsigned idx = annexFor(dst.pe());
    core.charge(_config.ptrOverheadCycles);
    // Node::waitRemoteWrites() with the store folded into its MB:
    // the line has left the processor, so poll the status bit.
    _node.storeU64Mb(vaFor(idx, dst.local()), value);
    _node.shell().remote().pollUntilQuiet();
}

double
Proc::readF64(GlobalAddr src)
{
    return std::bit_cast<double>(readU64(src));
}

void
Proc::writeF64(GlobalAddr dst, double value)
{
    writeU64(dst, std::bit_cast<std::uint64_t>(value));
}

std::uint8_t
Proc::readU8(GlobalAddr src)
{
    auto &core = _node.core();
    if (src.pe() == pe()) {
        core.chargeRegOps(2);
        return core.loadU8(src.local());
    }
    const unsigned idx = annexFor(src.pe());
    core.charge(_config.ptrOverheadCycles);
    return _node.loadU8(vaFor(idx, src.local()));
}

void
Proc::writeU8(GlobalAddr dst, std::uint8_t value)
{
    auto &core = _node.core();
    if (dst.pe() == pe()) {
        core.chargeRegOps(2);
        core.storeU8(dst.local(), value);
        core.mb();
        return;
    }
    // The §4.5 trap, faithfully: remote read-modify-write of the
    // containing word. Concurrent writers clobber each other; use
    // amWriteByte() for the correct version.
    const unsigned idx = annexFor(dst.pe());
    core.charge(_config.ptrOverheadCycles);
    _node.storeU8(vaFor(idx, dst.local()), value);
    _node.waitRemoteWrites();
}

// ---------------------------------------------------------------------
// Split-phase gets and puts (§5.4)
// ---------------------------------------------------------------------

void
Proc::getU64(GlobalAddr src, Addr local_dst)
{
    const unsigned idx = annexFor(src.pe());

    // The hardware FIFO holds 16; when full, drain before issuing.
    if (_getTable.size() >= _node.shell().config().prefetchSlots) {
        T3D_COUNT(_ctr, prefetchFullStalls);
        drainGets();
    }

    _node.fetchHint(vaFor(idx, src.local()));
    _node.core().charge(_config.getTableCycles);
    _getTable.push_back(local_dst);
}

void
Proc::drainGets()
{
    if (_getTable.empty())
        return;
    auto &pq = _node.shell().prefetch();
    // With fewer than 4 outstanding, the requests may still sit in
    // the write buffer: MB forces them out (§5.2).
    if (pq.needsMbBeforePop())
        _node.mb();
    while (!_getTable.empty()) {
        const std::uint64_t value = _node.popPrefetch();
        _node.core().storeU64(_getTable.front(), value);
        _getTable.pop_front();
    }
}

void
Proc::putU64(GlobalAddr dst, std::uint64_t value)
{
    auto &core = _node.core();
    if (dst.pe() == pe()) {
        core.chargeRegOps(2);
        core.storeU64(dst.local(), value);
        return;
    }
    const unsigned idx = annexFor(dst.pe());
    core.charge(_config.putCheckCycles);
    _node.storeU64(vaFor(idx, dst.local()), value);
    _putsOutstanding = true;
}

void
Proc::putF64(GlobalAddr dst, double value)
{
    putU64(dst, std::bit_cast<std::uint64_t>(value));
}

void
Proc::sync()
{
    drainGets();
    if (_putsOutstanding) {
        _node.waitRemoteWrites();
        _putsOutstanding = false;
    }
    if (_bltPending) {
        _node.shell().blt().wait(_bltPending);
        _bltPending = 0;
    }
}

// ---------------------------------------------------------------------
// Signaling stores (§7.1)
// ---------------------------------------------------------------------

void
Proc::storeBytesSignaling(GlobalAddr dst, const void *src,
                          std::size_t len)
{
    auto &core = _node.core();
    auto &clock = _node.clock();

    if (dst.pe() == pe()) {
        // Local store: data is immediately "arrived".
        core.chargeRegOps(2);
        for (std::size_t i = 0; i + 8 <= len; i += 8) {
            std::uint64_t w;
            std::memcpy(&w, static_cast<const std::uint8_t *>(src) + i, 8);
            core.storeU64(dst.local() + i, w);
        }
        _sched.recordStoreArrival(pe(), clock.now(), len);
        return;
    }

    const unsigned idx = annexFor(dst.pe());
    (void)idx;
    core.charge(core.config().storeIssueCycles +
                _config.storeSignalExtraCycles);

    // Build the masked line and inject it directly (the store path
    // bypasses blocking entirely; backpressure is the injection
    // channel itself).
    const Addr offset = dst.local();
    const Addr line = offset & ~(Addr{alpha::wbLineBytes} - 1);
    const std::size_t in_line = offset - line;
    T3D_FATAL_IF(in_line + len > alpha::wbLineBytes,
                 "signaling store crosses a line boundary");

    std::array<std::uint8_t, alpha::wbLineBytes> data{};
    std::memcpy(data.data() + in_line, src, len);
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < len; ++i)
        mask |= 1u << (in_line + i);

    Cycles remote_done = 0;
    const Cycles injected = _node.shell().remote().injectWriteLine(
        clock.now(), dst.pe(), line, data.data(), mask, &remote_done);
    // The processor stalls only if the channel is backed up beyond
    // one injection interval.
    clock.syncTo(injected > clock.now() ? injected : clock.now());

    _sched.recordStoreArrival(dst.pe(), remote_done, len);
    _putsOutstanding = true; // all_store_sync waits for acks
}

void
Proc::storeU64(GlobalAddr dst, std::uint64_t value)
{
    storeBytesSignaling(dst, &value, sizeof(value));
}

void
Proc::storeF64(GlobalAddr dst, double value)
{
    storeU64(dst, std::bit_cast<std::uint64_t>(value));
}

BarrierAwaiter
Proc::allStoreSync()
{
    // Identical mechanism to the barrier: drain, poll acks, fuzzy
    // hardware barrier (§7.5).
    return barrier();
}

StoreSyncAwaiter
Proc::storeSync(std::uint64_t bytes)
{
    _storeWatermark += bytes;
    return StoreSyncAwaiter{*this, _storeWatermark, /*amLog=*/false};
}

// ---------------------------------------------------------------------
// Barrier (§7.5)
// ---------------------------------------------------------------------

BarrierAwaiter
Proc::barrier()
{
    startBarrier();
    return endBarrier();
}

void
Proc::startBarrier()
{
    // "The global barrier waits for outstanding stores to complete,
    // performs the start-barrier instruction, then polls..." (§7.5)
    T3D_FATAL_IF(_barrierActive,
                 "start-barrier while a barrier is already in flight");
    _node.waitRemoteWrites();
    _putsOutstanding = false;
    _node.core().charge(_config.startBarrierCycles);
    T3D_COUNT(_ctr, barriers);
    _barrierArrive = now();

    auto &bn = _machine.barrier();
    _barrierGen = bn.generation();
    _barrierActive = true;

    // The scheduler owns the arrival: it lands in the barrier network
    // at once, completing the generation if we are the last arriver.
    _sched.barrierArrive(pe(), now());
}

BarrierAwaiter
Proc::endBarrier()
{
    T3D_FATAL_IF(!_barrierActive, "end-barrier without start-barrier");
    return BarrierAwaiter{*this};
}

bool
Proc::barrierReady()
{
    auto &bn = _machine.barrier();
    if (bn.generation() == _barrierGen)
        return false; // not everyone has started yet: suspend.
    _barrierActive = false;
    _node.clock().syncTo(bn.lastExitTime());
    _node.core().charge(_config.endBarrierCycles);
    noteBarrierComplete();
    return true;
}

void
Proc::noteBarrierComplete()
{
    T3D_COUNT_ADD(_ctr, barrierWaitCycles, now() - _barrierArrive);
    T3D_TRACE(_trace, span(pe(), "barrier", _barrierArrive, now()));
}

// ---------------------------------------------------------------------
// Bulk transfers (§6)
// ---------------------------------------------------------------------

void
Proc::bulkReadUncached(Addr local_dst, GlobalAddr src, std::size_t bytes)
{
    T3D_FATAL_IF(bytes % 8 != 0, "bulk transfers are word-granular");
    const unsigned idx = annexFor(src.pe(), shell::ReadMode::Uncached);
    auto &core = _node.core();
    for (std::size_t off = 0; off < bytes; off += 8) {
        const std::uint64_t v = _node.loadU64(vaFor(idx, src.local() + off));
        core.storeU64(local_dst + off, v);
    }
}

void
Proc::bulkReadCached(Addr local_dst, GlobalAddr src, std::size_t bytes)
{
    T3D_FATAL_IF(bytes % 8 != 0, "bulk transfers are word-granular");
    const unsigned idx = annexFor(src.pe(), shell::ReadMode::Cached);
    auto &core = _node.core();
    const std::size_t line = core.dcache().lineBytes();
    // Above 8 KB the per-line flushes batch into one whole-cache
    // flush, which is cheaper (§6.2 footnote 3).
    const bool batch_flush = bytes >= 8 * KiB;

    for (std::size_t off = 0; off < bytes; off += 8) {
        const Addr va = vaFor(idx, src.local() + off);
        const std::uint64_t v = _node.loadU64(va);
        core.storeU64(local_dst + off, v);
        const bool line_end =
            ((off + 8) % line == 0) || (off + 8 == bytes);
        if (line_end && !batch_flush)
            core.flushLine(va & ~(Addr{line} - 1));
    }
    if (batch_flush)
        core.flushAll();
}

void
Proc::bulkReadPrefetch(Addr local_dst, GlobalAddr src, std::size_t bytes)
{
    T3D_FATAL_IF(bytes % 8 != 0, "bulk transfers are word-granular");
    // The prefetch FIFO is shared with split-phase gets: pop theirs
    // into their targets first, or this transfer would pop their
    // words as its own (§5.4 FIFO order).
    drainGets();
    const unsigned idx = annexFor(src.pe());
    auto &core = _node.core();
    auto &pq = _node.shell().prefetch();
    const std::size_t slots = _node.shell().config().prefetchSlots;

    std::size_t off = 0;
    while (off < bytes) {
        const std::size_t group =
            std::min(slots, (bytes - off) / 8);
        for (std::size_t g = 0; g < group; ++g)
            _node.fetchHint(vaFor(idx, src.local() + off + g * 8));
        if (pq.needsMbBeforePop())
            _node.mb();
        for (std::size_t g = 0; g < group; ++g) {
            const std::uint64_t v = _node.popPrefetch();
            core.storeU64(local_dst + off + g * 8, v);
        }
        off += group * 8;
    }
}

void
Proc::bulkReadBlt(Addr local_dst, GlobalAddr src, std::size_t bytes)
{
    const Cycles done = _node.shell().blt().startRead(
        src.pe(), src.local(), local_dst, bytes);
    _node.shell().blt().wait(done);
}

void
Proc::bulkRead(Addr local_dst, GlobalAddr src, std::size_t bytes)
{
    // Mechanism selection (§6.3): a single word reads uncached; the
    // prefetch queue wins up to the BLT crossover (~16 KB).
    if (bytes <= 8)
        bulkReadUncached(local_dst, src, bytes);
    else if (bytes < _config.bulkBltCrossoverBytes)
        bulkReadPrefetch(local_dst, src, bytes);
    else
        bulkReadBlt(local_dst, src, bytes);
}

void
Proc::bulkWriteStores(GlobalAddr dst, Addr local_src, std::size_t bytes)
{
    T3D_FATAL_IF(bytes % 8 != 0, "bulk transfers are word-granular");
    auto &core = _node.core();
    if (dst.pe() == pe()) {
        for (std::size_t off = 0; off < bytes; off += 8)
            core.storeU64(dst.local() + off,
                          core.loadU64(local_src + off));
        core.mb();
        return;
    }
    const unsigned idx = annexFor(dst.pe());
    for (std::size_t off = 0; off < bytes; off += 8) {
        const std::uint64_t v = core.loadU64(local_src + off);
        _node.storeU64(vaFor(idx, dst.local() + off), v);
    }
    _node.waitRemoteWrites();
}

void
Proc::bulkWriteBlt(GlobalAddr dst, Addr local_src, std::size_t bytes)
{
    const Cycles done = _node.shell().blt().startWrite(
        dst.pe(), dst.local(), local_src, bytes);
    _node.shell().blt().wait(done);
}

void
Proc::bulkWrite(GlobalAddr dst, Addr local_src, std::size_t bytes)
{
    // Non-blocking stores beat the BLT at every size (§6.2).
    bulkWriteStores(dst, local_src, bytes);
}

void
Proc::bulkGet(Addr local_dst, GlobalAddr src, std::size_t bytes)
{
    // Below ~7,900 bytes the prefetch queue finishes before the BLT
    // would even start (§6.3); above it, start the BLT and overlap.
    if (bytes < _config.bulkGetBltCrossoverBytes) {
        bulkReadPrefetch(local_dst, src, bytes);
        return;
    }
    _bltPending = std::max(
        _bltPending, _node.shell().blt().startRead(
                         src.pe(), src.local(), local_dst, bytes));
}

void
Proc::bulkPut(GlobalAddr dst, Addr local_src, std::size_t bytes)
{
    // Pipelined non-blocking stores; completion at the next sync().
    T3D_FATAL_IF(bytes % 8 != 0, "bulk transfers are word-granular");
    auto &core = _node.core();
    if (dst.pe() == pe()) {
        for (std::size_t off = 0; off < bytes; off += 8)
            core.storeU64(dst.local() + off,
                          core.loadU64(local_src + off));
        return;
    }
    const unsigned idx = annexFor(dst.pe());
    for (std::size_t off = 0; off < bytes; off += 8) {
        const std::uint64_t v = core.loadU64(local_src + off);
        _node.storeU64(vaFor(idx, dst.local() + off), v);
    }
    _putsOutstanding = true;
}

// ---------------------------------------------------------------------
// Messages and Active Messages (§7.3/§7.4)
// ---------------------------------------------------------------------

void
Proc::sendMessage(PeId dst, const std::array<std::uint64_t, 4> &words)
{
    _node.shell().remote().sendMessage(dst, words.data());
}

MessageAwaiter
Proc::waitMessage()
{
    return MessageAwaiter{*this};
}

shell::Message
Proc::takeMessage(bool handler_mode)
{
    auto [msg, done] =
        _node.shell().messages().dequeue(now(), handler_mode);
    _node.clock().advanceTo(done);
    return msg;
}

void
Proc::registerAmHandler(std::uint64_t tag, AmHandler handler)
{
    _amHandlers[tag] = std::move(handler);
}

Addr
Proc::amSlotAddr(std::uint64_t slot) const
{
    return amQueueBase + slot * amSlotBytes;
}

Addr
Proc::amOverflowSlotAddr(std::uint64_t slot) const
{
    return amQueueBase + _config.amQueueSlots * amSlotBytes +
        slot * amSlotBytes;
}

std::uint64_t
Proc::fetchInc(PeId dst, unsigned reg)
{
    if (dst == pe()) {
        // Local fetch&increment of the shell register.
        T3D_COUNT(_ctr, fetchIncRoundTrips);
        const Cycles t0 = now();
        std::uint64_t old_value = 0;
        const Cycles done =
            _node.serviceFetchInc(now(), reg, old_value);
        _node.clock().advanceTo(done + 5);
        T3D_TRACE(_trace,
                  span(pe(), "fetch_inc", t0, now(), "dst", dst));
        return old_value;
    }
    return _node.shell().remote().fetchInc(dst, reg);
}

std::uint64_t
Proc::atomicSwap(GlobalAddr dst, std::uint64_t new_value)
{
    const unsigned idx = annexFor(dst.pe(), shell::ReadMode::Swap);
    return _node.swap(vaFor(idx, dst.local()), new_value);
}

void
Proc::amDeposit(PeId dst, std::uint64_t tag,
                const std::array<std::uint64_t, 4> &args)
{
    T3D_FATAL_IF(dst == pe(), "AM deposit to self is not supported");
    _node.core().charge(_config.amDepositOverheadCycles);

    // Claim a ticket in the receiver's queue (≈ a remote read,
    // §7.4); tickets dispatch in order, so the ticket number is the
    // deterministic total order of deposits per receiver.
    const std::uint64_t ticket = fetchInc(dst, 0);

    // Route the deposit on the receiver's flow account, sampled at
    // the claim, never on a peek at the receiver's memory: placement
    // stays a pure function of simulated state. ticket - dispatched
    // predecessors are undispatched; once they cannot all fit in the
    // primary queue the deposit must take the DRAM overflow ring:
    // writing a freed primary slot ahead of an older spilled message
    // would dispatch out of order and strand the spill. The receiver
    // recovers each spill at one modeled interrupt
    // (amOverflowDrainCycles) — an interrupt storm under sustained
    // flooding, not a process abort.
    auto &flow = _sched.amFlow(dst);
    Addr base;
    const bool spill =
        ticket - flow.dispatched >= _config.amQueueSlots;
    if (spill) {
        T3D_FATAL_IF(
            flow.spillsClaimed - flow.spillsDrained >=
                _config.amOverflowSlots,
            "AM queue overflow on PE ", dst, ": ticket ", ticket,
            " found both the primary queue and the overflow ring "
            "full (", _config.amQueueSlots, " + ",
            _config.amOverflowSlots,
            " undispatched deposits; the consumer is not draining — "
            "call amPoll, or enlarge SplitcConfig::amQueueSlots / "
            "amOverflowSlots)");
        // Spills occupy ring slots in claim (= ticket) order; the
        // occupancy gate above proves this slot's previous occupant
        // (spill number spillsClaimed - amOverflowSlots) has been
        // drained and its flag cleared.
        base = amOverflowSlotAddr(flow.spillsClaimed %
                                  _config.amOverflowSlots);
        ++flow.spillsClaimed;
        T3D_COUNT(_ctr, amOverflows);
    } else {
        // An unspilled ticket owns its primary slot: its Q-th
        // predecessor is already dispatched (flag cleared), and no
        // later ticket can claim the slot until this one dispatches.
        base = amSlotAddr(ticket % _config.amQueueSlots);
    }

    // Deposit the ticket tag and four data words (pipelined puts)...
    putU64(GlobalAddr::make(dst, base + 8), ticket);
    for (unsigned i = 0; i < 4; ++i)
        putU64(GlobalAddr::make(dst, base + 16 + i * 8), args[i]);
    // ...make them visible before the control word...
    _node.waitRemoteWrites();
    _putsOutstanding = false;

    // ...then set the control word; its arrival is what the
    // receiver's poll observes.
    auto &clock = _node.clock();
    std::array<std::uint8_t, alpha::wbLineBytes> data{};
    const Addr line = base & ~(Addr{alpha::wbLineBytes} - 1);
    const std::size_t in_line = base - line;
    const std::uint64_t flag = tag + 1;
    std::memcpy(data.data() + in_line, &flag, 8);
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < 8; ++i)
        mask |= 1u << (in_line + i);

    Cycles remote_done = 0;
    _node.shell().remote().injectWriteLine(clock.now(), dst, line,
                                           data.data(), mask,
                                           &remote_done);
    _sched.recordAmArrival(dst, remote_done, 1);
    _putsOutstanding = true;
}

bool
Proc::amPoll()
{
    auto &core = _node.core();
    Addr base = amSlotAddr(_amHead % _config.amQueueSlots);
    bool spilled = false;

    std::uint64_t flag = core.loadU64(base);
    if (flag != 0) {
        // The deposit path's routing rule guarantees the occupant of
        // the primary slot is exactly the next ticket (see
        // amDeposit); the ticket tag pins the invariant.
        T3D_ASSERT(core.peekU64(base + 8) == _amHead,
                   "AM primary slot holds ticket ",
                   core.peekU64(base + 8), ", expected ", _amHead);
    } else {
        // The next ticket may have been rerouted to the DRAM
        // overflow ring. Spilled deposits occupy ring slots in claim
        // order, so the ring head is the oldest undispatched spill;
        // its ticket tag says whether it is this one's turn (a later
        // spilled ticket must wait for in-flight primary deposits).
        // The peeks are untimed system-software bookkeeping, so a
        // poll that finds nothing costs exactly what it did before
        // the overflow ring existed; recovering a spilled message
        // pays a full OS interrupt.
        const Addr ovf = amOverflowSlotAddr(_amSpillHead %
                                            _config.amOverflowSlots);
        if (core.peekU64(ovf) == 0 || core.peekU64(ovf + 8) != _amHead)
            return false;
        base = ovf;
        spilled = true;
        flag = core.loadU64(base);
        core.charge(_config.amOverflowDrainCycles);
        ++_amSpillHead;
    }

    std::array<std::uint64_t, 4> args{};
    for (unsigned i = 0; i < 4; ++i)
        args[i] = core.loadU64(base + 16 + i * 8);
    core.storeU64(base, 0); // free the slot
    ++_amHead;
    ++_amWatermark;
    core.charge(_config.amDispatchOverheadCycles);
    _sched.amPublishDispatch(pe(), spilled);

    const std::uint64_t tag = flag - 1;
    auto it = _amHandlers.find(tag);
    T3D_FATAL_IF(it == _amHandlers.end(), "no AM handler for tag ", tag);
    it->second(*this, args);
    return true;
}

StoreSyncAwaiter
Proc::amWait()
{
    return StoreSyncAwaiter{*this, _amWatermark + 1, /*amLog=*/true};
}

void
Proc::amWriteByte(GlobalAddr dst, std::uint8_t value)
{
    if (dst.pe() == pe()) {
        _node.core().storeU8(dst.local(), value);
        return;
    }
    amDeposit(dst.pe(), amTagByteWrite,
              {dst.local(), std::uint64_t{value}, 0, 0});
}

} // namespace t3dsim::splitc
