/**
 * @file
 * Fetch stage: multi-ported SMT fetch with the paper's bandwidth
 * partitioning (half to the non-speculative thread, half round-robin
 * across speculative threads), ICache-miss stalls that only block the
 * missing thread, per-thread stop-at-successor-start, and the
 * thread-misprediction detector.
 */

#include "dmt/engine.hh"

namespace dmt
{

Addr
DmtEngine::successorStartPc(const ThreadContext &t) const
{
    const ThreadId succ = tree.successor(t.id);
    if (succ == kNoThread)
        return 0;
    return ctx(succ).start_pc;
}

void
DmtEngine::fetchForThread(ThreadContext &t, int max_insts)
{
    const ThreadId succ = tree.successor(t.id);
    const Addr succ_start = succ == kNoThread ? 0 : ctx(succ).start_pc;

    for (int n = 0; n < max_insts; ++n) {
        // Join check: stop when control *reaches* the successor's start.
        // A thread whose own start PC equals its successor's (recursion:
        // the same static continuation at different depths) must first
        // make progress — it joins when control comes back around.
        const bool progressed =
            t.tb.totalAppended() != 0 || !t.fq.empty();
        if (succ != kNoThread && t.pc == succ_start && progressed) {
            // Reached the start of the next thread in the order list:
            // this thread's job is done (paper Section 2).
            t.stopped = true;
            emitTrace(TraceStage::Fetch, TraceEventKind::ThreadStop,
                      t.id, t.pc);
            return;
        }

        // Frontend backpressure.
        if (static_cast<int>(t.fq.size()) >= cfg.fetch_block * 4)
            return;

        // ICache lookup; a miss stalls only this thread.
        const Cycle extra = hier.instAccess(t.pc);
        if (extra > 0) {
            emitTrace(TraceStage::Fetch, TraceEventKind::IcacheMiss,
                      t.id, t.pc, extra);
            t.fetch_ready = now_ + extra;
            if (cfg.isDmt()) {
                t.pending_imiss_episode =
                    imiss_eps.open(now_, now_ + extra);
            }
            return;
        }

        const Instruction &inst = prog.fetch(t.pc);

        FetchedInst fi;
        fi.inst = inst;
        fi.pc = t.pc;
        fi.fetch_cycle = now_;
        fi.ready_cycle = now_ + static_cast<Cycle>(cfg.frontend_depth);
        fi.imiss_episode = t.pending_imiss_episode;
        t.pending_imiss_episode = 0;

        emitTrace(TraceStage::Fetch, TraceEventKind::InstFetch, t.id,
                  t.pc);

        if (inst.isHalt()) {
            t.fq.push_back(fi);
            t.fetched_halt = true;
            return;
        }

        if (inst.isControl()) {
            fi.bstate_before = t.bstate;
            fi.has_bstate = true;
        }
        fi.pred = bpu.predict(inst, t.pc, t.bstate);
        // Fault injection: flip a conditional-branch prediction.  The
        // thread fetches down the wrong path until the branch executes;
        // the ordinary checkpoint-restore misprediction machinery (a
        // checkpoint exists for every conditional branch) repairs it.
        if (inst.isCondBranch()
            && injector_.shouldInject(FaultSite::BranchPrediction)) {
            fi.pred.taken = !fi.pred.taken;
            fi.pred.target = fi.pred.taken ? inst.branchTarget(t.pc)
                                           : t.pc + 4;
        }
        t.fq.push_back(fi);

        if (fi.pred.taken) {
            t.pc = fi.pred.target;
            return; // fetch block ends at a taken control transfer
        }
        t.pc += 4;
    }
}

void
DmtEngine::doFetch()
{
    const auto &order = tree.order();
    if (order.empty())
        return;

    const ThreadId head = order.front();

    // Collect fetch-capable speculative threads in order.
    std::vector<ThreadId> &specs = fetch_spec_scratch_;
    specs.clear();
    for (size_t i = 1; i < order.size(); ++i) {
        if (ctx(order[i]).canFetch(now_, cfg.recovery_fetch_stall))
            specs.push_back(order[i]);
    }
    const bool head_ok = ctx(head).canFetch(now_,
                                            cfg.recovery_fetch_stall);

    // Bandwidth split (paper Section 4.1): half the ports to the
    // non-speculative thread, the rest round-robin over speculative
    // threads.  A single port alternates by cycle parity.  Ports with
    // no eligible thread in their class fall back to the other class.
    int head_ports;
    if (cfg.fetch_ports == 1) {
        head_ports = (now_ & 1) == 0 ? 1 : 0;
    } else {
        head_ports = cfg.fetch_ports / 2;
    }

    size_t spec_cursor = static_cast<size_t>(fetch_rr);
    bool head_fetched = false;
    for (int port = 0; port < cfg.fetch_ports; ++port) {
        const bool wants_head = port < head_ports;
        ThreadId pick = kNoThread;
        if (wants_head && head_ok && !head_fetched) {
            pick = head;
        } else if (!specs.empty()) {
            pick = specs[spec_cursor % specs.size()];
            ++spec_cursor;
        } else if (head_ok && !head_fetched) {
            pick = head;
        }
        if (pick == kNoThread)
            continue;
        if (pick == head)
            head_fetched = true;
        fetchForThread(ctx(pick), cfg.fetch_block);
    }
    fetch_rr = static_cast<int>(spec_cursor);
}

void
DmtEngine::checkThreadMispredictions()
{
    // Forward-progress rule: if the head thread has appended a full
    // trace buffer of instructions since its current successor became
    // adjacent, it will never join it — the successor was mispredicted
    // (e.g. spawned at an unexpected loop exit).  Squash it and its
    // subtree (paper Section 3.1.2's cleanup, made deterministic).
    const ThreadId head = tree.head();
    if (head == kNoThread)
        return;
    ThreadContext &t = ctx(head);
    const ThreadId succ = tree.successor(head);
    if (succ == kNoThread) {
        t.successor_watch_armed = false;
        return;
    }
    // Fingerprint of the watched successor: re-arm the detector
    // whenever the successor identity changes.
    const u32 key = static_cast<u32>(succ) ^ (ctx(succ).gen << 8);
    if (!t.successor_watch_armed || t.watched_succ_key != key) {
        t.successor_watch_armed = true;
        t.watched_succ_key = key;
        t.successor_watch_base = t.tb.totalAppended();
        return;
    }
    if (t.stopped)
        return; // joined (or halted); detector idle
    if (t.tb.totalAppended() - t.successor_watch_base
        > static_cast<u64>(cfg.tb_size) * 2) {
        squashThreadTree(succ);
        t.successor_watch_armed = false;
    }
}

} // namespace dmt
