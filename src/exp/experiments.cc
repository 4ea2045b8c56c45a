#include "exp/experiments.hh"

namespace dmt
{

namespace exp
{

SimConfig
baseline(bool realistic_fus)
{
    SimConfig c = SimConfig::baseline();
    c.unlimited_fus = !realistic_fus;
    return c;
}

SimConfig
fig4Dmt(int threads)
{
    SimConfig c = SimConfig::dmt(threads, 2);
    c.unlimited_fus = true;
    c.tb_size = 500;
    return c;
}

SimConfig
fig5Dmt(int fetch_ports)
{
    SimConfig c = SimConfig::dmt(4, fetch_ports);
    c.unlimited_fus = true;
    return c;
}

SimConfig
fig6Dmt(int threads, bool realistic_fus)
{
    SimConfig c = SimConfig::dmt(threads, 2);
    c.unlimited_fus = !realistic_fus;
    return c;
}

SimConfig
fig7Dmt(int tb_size)
{
    SimConfig c = SimConfig::dmt(6, 2);
    c.tb_size = tb_size;
    return c;
}

SimConfig
fig89Dmt()
{
    return SimConfig::dmt(6, 2);
}

SimConfig
fig10Dmt(bool dataflow)
{
    SimConfig c = SimConfig::dmt(4, 2);
    c.dataflow_prediction = dataflow;
    return c;
}

SimConfig
fig11Dmt()
{
    return fig10Dmt(true);
}

SimConfig
fig12Dmt(int read_block)
{
    SimConfig c = SimConfig::dmt(4, 2);
    c.tb_read_block = read_block;
    return c;
}

SimConfig
fig13Dmt(int tb_latency)
{
    SimConfig c = SimConfig::dmt(4, 2);
    c.tb_latency = tb_latency;
    return c;
}

std::vector<BenchColumn>
ablationColumns()
{
    const SimConfig base = SimConfig::dmt(4, 2);
    std::vector<BenchColumn> cols(6, BenchColumn{"", base});
    cols[0].name = "default";
    cols[1].name = "late-div";
    cols[1].cfg.early_divergence_repair = false;
    cols[2].name = "df-sync";
    cols[2].cfg.dataflow_sync = true;
    cols[3].name = "stall-all";
    cols[3].cfg.recovery_fetch_stall = 2;
    cols[3].cfg.recovery_dispatch_stall = 2;
    cols[4].name = "calls-only";
    cols[4].cfg.spawn_on_loop = false;
    cols[5].name = "loops-only";
    cols[5].cfg.spawn_on_call = false;
    return cols;
}

} // namespace exp

} // namespace dmt
