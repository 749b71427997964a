#include "stress/generator.hh"

#include <algorithm>
#include <array>
#include <ostream>
#include <vector>

#include "machine/node.hh"
#include "sim/hash.hh"
#include "sim/logging.hh"
#include "splitc/executor.hh"
#include "splitc/global_ptr.hh"
#include "splitc/proc.hh"

namespace t3dsim::stress
{

namespace
{

/** User AM tag (must be >= the runtime's reserved range). */
constexpr std::uint64_t kAmTag = 20;

/** Per-receiver-per-round caps (docs/STRESS.md): the AM cap keeps
 *  the plain corpus off the overflow ring, the message cap bounds
 *  simulated time. */
constexpr std::uint32_t kAmCapPerRound = 32;  // < amQueueSlots
constexpr std::uint32_t kMsgCapPerRound = 3;  // 25 us interrupt each

/** SplitMix64: the plan is a pure function of this stream. */
struct Rng
{
    std::uint64_t state;

    std::uint64_t next() { return hash::splitMix64(state); }

    /** Uniform draw in [0, n). */
    std::uint64_t
    below(std::uint64_t n)
    {
        return next() % n;
    }
};

std::size_t
bankBytes(const StressConfig &cfg)
{
    return std::size_t{cfg.pes} * kStripeWords * 8;
}

/** Address of word @p word of data bank @p bank. */
Addr
dataWordAddr(const StressConfig &cfg, const Layout &lay, int bank,
             std::uint32_t word)
{
    return lay.dataBase + Addr(bank) * bankBytes(cfg) + Addr(word) * 8;
}

/** Address of write slot @p slot of @p writer's stripe in @p bank. */
Addr
stripeSlotAddr(const StressConfig &cfg, const Layout &lay, int bank,
               PeId writer, std::uint32_t slot)
{
    return dataWordAddr(cfg, lay, bank, writer * kStripeWords + slot);
}

/** Address of @p writer's BLT landing stripe in @p bank. */
Addr
bigStripeAddr(const StressConfig &cfg, const Layout &lay, int bank,
              PeId writer)
{
    return lay.bigBase +
           Addr(bank) * cfg.pes * kBigStripeBytes +
           Addr(writer) * kBigStripeBytes;
}

/** Order-sensitive accumulate into result cell @p cell (untimed:
 *  host bookkeeping folded into the checksummed memory image). */
void
accumulate(mem::Storage &storage, const Layout &lay, std::uint32_t cell,
           std::uint64_t v)
{
    const Addr a = lay.accumBase + Addr(cell) * 8;
    storage.writeU64(a, storage.readU64(a) * hash::fnvPrime ^ v);
}

} // namespace

Layout
Layout::of(const StressConfig &cfg)
{
    const auto align = [](Addr a) {
        return (a + Addr{0xFFF}) & ~Addr{0xFFF};
    };
    Layout lay;
    lay.dataBase = kDataBase;
    Addr end = lay.dataBase + 2 * bankBytes(cfg);
    lay.bigBase = std::max(kBigBase, align(end));
    end = lay.bigBase + 2 * Addr{cfg.pes} * kBigStripeBytes;
    lay.constBase = std::max(kConstBase, align(end));
    end = lay.constBase + Addr{kConstWords} * 8;
    lay.scratchBase = std::max(kScratchBase, align(end));
    end = lay.scratchBase + Addr{cfg.opsPerRound} * kScratchSlotBytes;
    lay.bltScratch = std::max(kBltScratch, align(end));
    end = lay.bltScratch + kBigStripeBytes;
    lay.accumBase = std::max(kAccumBase, align(end));
    end = lay.accumBase + Addr{kAccumCells} * 8;
    lay.swapBase = std::max(kSwapBase, align(end));
    return lay;
}

const char *
opKindName(OpKind kind)
{
    switch (kind) {
    case OpKind::RemoteRead: return "remote_read";
    case OpKind::RemoteWrite: return "remote_write";
    case OpKind::Put: return "put";
    case OpKind::Get: return "get";
    case OpKind::SignalStore: return "signal_store";
    case OpKind::Prefetch: return "prefetch";
    case OpKind::BltGet: return "blt_get";
    case OpKind::BltPut: return "blt_put";
    case OpKind::FetchInc: return "fetch_inc";
    case OpKind::Swap: return "swap";
    case OpKind::AmDeposit: return "am_deposit";
    case OpKind::SendMsg: return "send_msg";
    case OpKind::Compute: return "compute";
    }
    return "?";
}

Plan
Plan::build(const StressConfig &raw)
{
    StressConfig cfg = raw;
    // 8192 PEs keeps the per-PE BLT landing region (2 * pes * 4 KiB)
    // plus everything below it inside the 128 MiB local segment.
    cfg.pes = std::clamp<std::uint32_t>(cfg.pes, 2, 8192);
    cfg.rounds = std::max<std::uint32_t>(cfg.rounds, 1);
    cfg.opsPerRound =
        std::clamp<std::uint32_t>(cfg.opsPerRound, 1, kStripeWords);

    Plan plan;
    plan.cfg = cfg;
    plan.layout = Layout::of(cfg);
    Rng rng{cfg.seed * 0x243f6a8885a308d3ull + 1};

    const std::uint32_t bank_words = cfg.pes * kStripeWords;
    for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
        RoundPlan round;
        round.ops.resize(cfg.pes);
        round.storeBytesIn.assign(cfg.pes, 0);
        round.msgsIn.assign(cfg.pes, 0);
        round.amsIn.assign(cfg.pes, 0);

        // AM flood pair: counted into amsIn before the op draws, so
        // the kAmCapPerRound check bounds the combined total.
        if (cfg.amFloodDeposits > 0) {
            const PeId sender = PeId(rng.below(cfg.pes));
            PeId receiver = PeId(rng.below(cfg.pes - 1));
            if (receiver >= sender)
                ++receiver;
            Op op;
            op.kind = OpKind::AmDeposit;
            op.target = receiver;
            for (std::uint32_t k = 0; k < cfg.amFloodDeposits; ++k) {
                op.slot = cfg.opsPerRound + k;
                op.value = rng.next();
                round.ops[sender].push_back(op);
            }
            round.amsIn[receiver] += cfg.amFloodDeposits;
        }

        for (PeId pe = 0; pe < cfg.pes; ++pe) {
            bool blt_get_used = false, blt_put_used = false;
            for (std::uint32_t i = 0; i < cfg.opsPerRound; ++i) {
                Op op;
                op.slot = i;
                // Any target but self.
                op.target = PeId(rng.below(cfg.pes - 1));
                if (op.target >= pe)
                    ++op.target;
                op.value = rng.next();

                const std::uint64_t draw = rng.below(100);
                if (draw < 14) {
                    op.kind = OpKind::RemoteRead;
                    op.word = std::uint32_t(rng.below(bank_words));
                } else if (draw < 28) {
                    op.kind = OpKind::RemoteWrite;
                } else if (draw < 40) {
                    op.kind = OpKind::Put;
                } else if (draw < 52) {
                    op.kind = OpKind::Get;
                    op.word = std::uint32_t(rng.below(bank_words));
                } else if (draw < 66) {
                    op.kind = OpKind::SignalStore;
                    round.storeBytesIn[op.target] += 8;
                } else if (draw < 74) {
                    op.kind = OpKind::Prefetch;
                    op.len = 1 + std::uint32_t(rng.below(16));
                    op.word = std::uint32_t(
                        rng.below(bank_words - op.len + 1));
                } else if (draw < 80) {
                    op.kind = OpKind::Compute;
                } else if (draw < 86) {
                    op.kind = OpKind::FetchInc;
                } else if (draw < 92) {
                    op.kind = OpKind::Swap;
                } else if (draw < 96 &&
                           round.amsIn[op.target] < kAmCapPerRound) {
                    op.kind = OpKind::AmDeposit;
                    ++round.amsIn[op.target];
                } else if (draw < 98 &&
                           round.msgsIn[op.target] < kMsgCapPerRound) {
                    op.kind = OpKind::SendMsg;
                    ++round.msgsIn[op.target];
                } else if (draw < 99 && !blt_get_used) {
                    op.kind = OpKind::BltGet;
                    blt_get_used = true;
                } else if (!blt_put_used) {
                    op.kind = OpKind::BltPut;
                    blt_put_used = true;
                } else {
                    // Capped draw: fall back to a read.
                    op.kind = OpKind::RemoteRead;
                    op.word = std::uint32_t(rng.below(bank_words));
                }
                round.ops[pe].push_back(op);
            }
        }
        plan.rounds.push_back(std::move(round));
    }
    return plan;
}

void
Plan::print(std::ostream &os) const
{
    os << "plan seed=" << cfg.seed << " pes=" << cfg.pes
       << " rounds=" << cfg.rounds << " ops=" << cfg.opsPerRound
       << "\n";
    for (std::uint32_t r = 0; r < rounds.size(); ++r) {
        const RoundPlan &round = rounds[r];
        for (PeId pe = 0; pe < cfg.pes; ++pe) {
            for (std::uint32_t i = 0; i < round.ops[pe].size(); ++i) {
                const Op &op = round.ops[pe][i];
                os << "  r" << r << " pe" << pe << " op" << i << ": "
                   << opKindName(op.kind) << " -> pe" << op.target;
                if (op.kind == OpKind::Prefetch)
                    os << " word " << op.word << " len " << op.len;
                else if (op.kind == OpKind::RemoteRead ||
                         op.kind == OpKind::Get)
                    os << " word " << op.word;
                os << " value 0x" << std::hex << op.value << std::dec
                   << "\n";
            }
        }
        os << "  r" << r << " waits:";
        for (PeId pe = 0; pe < cfg.pes; ++pe)
            os << " pe" << pe << "(store " << round.storeBytesIn[pe]
               << "B, msg " << round.msgsIn[pe] << ", am "
               << round.amsIn[pe] << ")";
        os << "\n";
    }
}

std::vector<Cycles>
runPlan(machine::Machine &machine, const Plan &plan,
        const splitc::SplitcConfig &splitc_cfg)
{
    using splitc::GlobalAddr;
    using splitc::Proc;
    using splitc::ProcTask;

    const StressConfig &cfg = plan.cfg;
    const Layout &lay = plan.layout;
    T3D_FATAL_IF(machine.numPes() != cfg.pes,
                 "machine has ", machine.numPes(),
                 " PEs but the plan wants ", cfg.pes);

    // Host-side AM progress, one cell per PE; each cell is only ever
    // touched by its owning PE's handler.
    std::vector<std::uint64_t> am_handled(cfg.pes, 0);

    return splitc::runSpmd(
        machine,
        [&](Proc &p) -> ProcTask {
            const PeId me = p.pe();
            auto &storage = p.node().storage();

            // Seed the read-only source region (untimed host fill).
            Rng init{cfg.seed ^ (hash::splitMixGamma * (me + 1))};
            for (std::uint32_t w = 0; w < kConstWords; ++w)
                storage.writeU64(lay.constBase + Addr(w) * 8, init.next());

            p.registerAmHandler(
                kAmTag,
                [&am_handled, &lay](Proc &self,
                              const std::array<std::uint64_t, 4> &a) {
                    accumulate(self.node().storage(), lay, 4,
                               a[0] ^ a[1] * 31 ^ a[2] * 7 ^ a[3]);
                    ++am_handled[self.pe()];
                });

            co_await p.barrier();

            std::uint64_t am_expected = 0;
            for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
                const RoundPlan &round = plan.rounds[r];
                const int bank = int(r & 1), prev = bank ^ 1;

                for (const Op &op : round.ops[me]) {
                    switch (op.kind) {
                    case OpKind::RemoteRead:
                        accumulate(storage, lay, 0,
                                   p.readU64(GlobalAddr::make(
                                       op.target,
                                       dataWordAddr(cfg, lay, prev,
                                                    op.word))));
                        break;
                    case OpKind::RemoteWrite:
                        p.writeU64(GlobalAddr::make(
                                       op.target,
                                       stripeSlotAddr(cfg, lay, bank, me,
                                                      op.slot)),
                                   op.value);
                        break;
                    case OpKind::Put:
                        p.putU64(GlobalAddr::make(
                                     op.target,
                                     stripeSlotAddr(cfg, lay, bank, me,
                                                    op.slot)),
                                 op.value);
                        break;
                    case OpKind::Get:
                        p.getU64(GlobalAddr::make(
                                     op.target,
                                     dataWordAddr(cfg, lay, prev, op.word)),
                                 lay.scratchBase +
                                     Addr(op.slot) * kScratchSlotBytes);
                        break;
                    case OpKind::SignalStore:
                        p.storeU64(GlobalAddr::make(
                                       op.target,
                                       stripeSlotAddr(cfg, lay, bank, me,
                                                      op.slot)),
                                   op.value);
                        break;
                    case OpKind::Prefetch:
                        p.bulkReadPrefetch(
                            lay.scratchBase +
                                Addr(op.slot) * kScratchSlotBytes,
                            GlobalAddr::make(
                                op.target,
                                dataWordAddr(cfg, lay, prev, op.word)),
                            std::size_t{op.len} * 8);
                        break;
                    case OpKind::BltGet:
                        p.bulkReadBlt(lay.bltScratch,
                                      GlobalAddr::make(op.target,
                                                       lay.constBase),
                                      kBigStripeBytes);
                        break;
                    case OpKind::BltPut:
                        p.bulkWriteBlt(
                            GlobalAddr::make(
                                op.target,
                                bigStripeAddr(cfg, lay, bank, me)),
                            lay.constBase, kBigStripeBytes);
                        break;
                    case OpKind::FetchInc:
                        accumulate(storage, lay, 1,
                                   p.fetchInc(op.target, 1));
                        break;
                    case OpKind::Swap:
                        accumulate(
                            storage, lay, 2,
                            p.atomicSwap(
                                GlobalAddr::make(op.target, lay.swapBase),
                                op.value));
                        break;
                    case OpKind::AmDeposit:
                        p.amDeposit(op.target, kAmTag,
                                    {op.value, me, r, op.slot});
                        break;
                    case OpKind::SendMsg:
                        p.sendMessage(op.target,
                                      {op.value, me, r, op.slot});
                        break;
                    case OpKind::Compute:
                        p.compute(20 + Cycles(op.value % 480));
                        break;
                    }
                }

                // Round epilogue: complete split-phase traffic, then
                // consume exactly what the plan says arrives here.
                p.sync();
                if (round.storeBytesIn[me] != 0)
                    co_await p.storeSync(round.storeBytesIn[me]);
                for (std::uint32_t i = 0; i < round.msgsIn[me]; ++i) {
                    co_await p.waitMessage();
                    const auto msg = p.takeMessage(false);
                    accumulate(
                        storage, lay, 3,
                        msg.words[0] ^ msg.words[1] * 31 ^
                            msg.words[2] * 7 ^ msg.words[3]);
                }
                am_expected += round.amsIn[me];
                while (am_handled[me] < am_expected) {
                    co_await p.amWait();
                    while (p.amPoll()) {
                    }
                }
                co_await p.barrier();
            }
            co_return;
        },
        splitc_cfg);
}

namespace
{

/**
 * Fold @p n zero bytes into an FNV-1a state: XOR with zero is the
 * identity, so each byte contributes only the prime multiply —
 * h * prime^n, computed by square-and-multiply. Lets the checksum
 * skip absent storage chunks (which read back as zero) in O(log n)
 * instead of materializing or scanning them, while producing exactly
 * the value a byte-by-byte fold over zeros would.
 */
std::uint64_t
fnvFoldZeros(std::uint64_t h, std::uint64_t n)
{
    std::uint64_t p = hash::fnvPrime;
    while (n) {
        if (n & 1)
            h *= p;
        p *= p;
        n >>= 1;
    }
    return h;
}

} // namespace

std::uint64_t
memoryChecksum(machine::Machine &machine, const Plan &plan)
{
    const StressConfig &cfg = plan.cfg;
    const Layout &lay = plan.layout;
    std::uint64_t h = hash::fnvOffset;

    // Chunk-at-a-time sparse fold: present chunks hash their bytes,
    // absent chunks fast-forward as runs of zeros. Large-P regions
    // (the BLT landing banks are 2 * pes * 4 KiB) are mostly
    // untouched, and this keeps the checksum from materializing them.
    const auto fold = [&](mem::Storage &storage, Addr base,
                          std::size_t len) {
        Addr a = base;
        std::size_t remaining = len;
        while (remaining > 0) {
            std::size_t span = 0;
            const std::uint8_t *p =
                storage.peekSpan(a, remaining, span);
            if (p) {
                h = hash::fnv1aBytes(p, span, h);
            } else {
                h = fnvFoldZeros(h, span);
            }
            a += span;
            remaining -= span;
        }
    };

    for (PeId pe = 0; pe < cfg.pes; ++pe) {
        auto &storage = machine.node(pe).storage();
        fold(storage, lay.dataBase, 2 * bankBytes(cfg));
        fold(storage, lay.bigBase, 2 * cfg.pes * kBigStripeBytes);
        fold(storage, lay.scratchBase,
             std::size_t{cfg.opsPerRound} * kScratchSlotBytes);
        fold(storage, lay.bltScratch, kBigStripeBytes);
        fold(storage, lay.accumBase, kAccumCells * 8);
        fold(storage, lay.swapBase, 8);
    }
    return h;
}

} // namespace t3dsim::stress
