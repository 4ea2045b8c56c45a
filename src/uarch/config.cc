#include "uarch/config.hh"

#include "common/json.hh"
#include "common/log.hh"
#include "common/strutil.hh"

namespace dmt
{

int
SimConfig::physRegCount() const
{
    if (phys_regs > 0)
        return phys_regs;
    // Registers are freed at early retirement (results live on in the
    // trace buffer data array), so live registers are bounded by the
    // in-pipeline population; the rest is headroom for same-cycle
    // transients and per-thread state.
    return 2 * window_size + 64 * max_threads + 128;
}

int
SimConfig::lqSize() const
{
    return lq_size > 0 ? lq_size : tb_size / 4;
}

int
SimConfig::sqSize() const
{
    return sq_size > 0 ? sq_size : tb_size / 4;
}

void
SimConfig::validate() const
{
    if (max_threads < 1 || max_threads > 64)
        fatal("max_threads %d out of range", max_threads);
    if (fetch_ports < 1 || fetch_block < 1)
        fatal("bad fetch configuration");
    if (window_size < fetch_block)
        fatal("window smaller than one fetch block");
    if (tb_size < 8)
        fatal("trace buffer too small (%d)", tb_size);
    if (lqSize() < 1 || sqSize() < 1)
        fatal("load/store queues too small");
    if (tb_latency < 0 || tb_read_block < 0)
        fatal("bad trace buffer timing");
    if (lat_alu < 1 || lat_mul < 1 || lat_div < 1 || lat_mem < 1)
        fatal("latencies must be at least 1 cycle");
    if (audit_period < 0)
        fatal("audit_period must be >= 0");
    if (max_retired > 0 && warmup_retired >= max_retired) {
        fatal("warmup_retired %llu leaves no measurement window before "
              "max_retired %llu",
              static_cast<unsigned long long>(warmup_retired),
              static_cast<unsigned long long>(max_retired));
    }
    for (int i = 0; i < kNumFaultSites; ++i) {
        if (fault.rate[i] < 0.0 || fault.rate[i] > 1.0) {
            fatal("fault rate for %s out of [0, 1]: %g",
                  faultSiteName(static_cast<FaultSite>(i)),
                  fault.rate[i]);
        }
    }
}

SimConfig
SimConfig::baseline()
{
    SimConfig c;
    c.max_threads = 1;
    c.spawn_on_call = false;
    c.spawn_on_loop = false;
    c.fetch_ports = 1;
    c.fetch_block = 4;
    c.window_size = 128;
    c.unlimited_fus = true;
    return c;
}

SimConfig
SimConfig::dmt(int threads, int ports)
{
    SimConfig c;
    c.max_threads = threads;
    c.fetch_ports = ports;
    c.fetch_block = 4;
    c.window_size = 128;
    c.unlimited_fus = true;
    c.tb_size = 500;
    return c;
}

std::string
SimConfig::summary() const
{
    return strprintf(
        "%s threads=%d ports=%d window=%d tb=%d/%d/%d fus=%s",
        isDmt() ? "DMT" : "base", max_threads, fetch_ports, window_size,
        tb_size, tb_latency, tb_read_block,
        unlimited_fus ? "unlimited"
                      : strprintf("%dalu/%dmd/%dmem", fus.alu, fus.muldiv,
                                  fus.mem_ports)
                            .c_str());
}

void
SimConfig::jsonOn(JsonWriter &w) const
{
    w.beginObject();
    w.key("machine").value(isDmt() ? "dmt" : "baseline");
    w.key("max_threads").value(max_threads);
    w.key("spawn_on_call").value(spawn_on_call);
    w.key("spawn_on_loop").value(spawn_on_loop);
    w.key("value_prediction").value(value_prediction);
    w.key("dataflow_prediction").value(dataflow_prediction);
    w.key("dataflow_sync").value(dataflow_sync);
    w.key("memdep_sync").value(memdep_sync);
    w.key("fetch_ports").value(fetch_ports);
    w.key("fetch_block").value(fetch_block);
    w.key("window_size").value(window_size);
    w.key("retire_width").value(retire_width);
    w.key("unlimited_fus").value(unlimited_fus);
    w.key("phys_regs").value(physRegCount());
    w.key("tb_size").value(tb_size);
    w.key("tb_latency").value(tb_latency);
    w.key("tb_read_block").value(tb_read_block);
    w.key("recovery_fetch_stall").value(recovery_fetch_stall);
    w.key("recovery_dispatch_stall").value(recovery_dispatch_stall);
    w.key("early_divergence_repair").value(early_divergence_repair);
    w.key("lq_size").value(lqSize());
    w.key("sq_size").value(sqSize());
    w.key("lat_mem").value(lat_mem);
    w.key("l1i_size_bytes").value(mem.l1i.size_bytes);
    w.key("l2_size_bytes").value(mem.l2.size_bytes);
    w.key("max_retired").value(max_retired);
    w.key("warmup_retired").value(warmup_retired);
    w.key("watchdog_cycles").value(watchdog_cycles);
    w.key("audit_period").value(audit_period);
    w.key("fault_enabled").value(fault.enabled);
    w.endObject();
}

} // namespace dmt
