#include "exp/phase.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/log.hh"
#include "common/rng.hh"
#include "sim/functional_core.hh"

namespace dmt
{

// ---- BBV collection ----------------------------------------------------

namespace
{

/** Budget charge of one anchor: its memory pages, at least one, so a
 *  program that touches no memory still takes a bounded number. */
u64
anchorBytes(const MainMemory &mem)
{
    return std::max<u64>(mem.numPages(), 1) * MainMemory::kPageSize;
}

} // namespace

std::vector<IntervalBbv>
collectBbvs(const Program &prog, u64 interval_len, u64 budget,
            u64 *covered_out, bool *completed_out)
{
    return collectBbvsAnchored(prog, interval_len, budget, nullptr,
                               covered_out, completed_out);
}

std::vector<IntervalBbv>
collectBbvsAnchored(const Program &prog, u64 interval_len, u64 budget,
                    std::vector<Checkpoint> *anchors, u64 *covered_out,
                    bool *completed_out)
{
    DMT_ASSERT(interval_len > 0, "BBV interval length must be > 0");
    FunctionalCore core(prog);
    BbvCollector bbv(interval_len, prog.text.size(), prog.entry);
    core.setBbv(&bbv);
    if (anchors)
        anchors->clear();
    u64 stride = 1; // chunks between anchors
    u64 held = 0;   // anchorBytes() summed over the live anchors
    // Chunked so an unbounded profile of a non-halting program is
    // still budget-driven by the caller; interval vectors are chunk
    // invariant by the sim/bbv.hh contract.
    while (!core.halted()) {
        u64 step = kProfileChunk;
        if (budget > 0) {
            const u64 left = budget - core.instrCount();
            if (left == 0)
                break;
            step = left < step ? left : step;
        }
        if (core.run(step) == 0)
            break;
        const u64 pos = core.instrCount();
        if (!anchors || core.halted() || pos % kProfileChunk != 0
            || pos == budget) {
            continue;
        }
        const u64 chunk = pos / kProfileChunk;
        const u64 bytes = anchorBytes(core.memory());
        if (chunk % stride != 0 || bytes > kAnchorPageBudget)
            continue;
        // Over budget: keep every other anchor (the multiples of the
        // doubled stride) until this one fits or falls off the stride.
        while (chunk % stride == 0 && held + bytes > kAnchorPageBudget) {
            stride *= 2;
            held = 0;
            std::erase_if(*anchors, [&](const Checkpoint &a) {
                if ((a.instr_count / kProfileChunk) % stride != 0)
                    return true;
                held += anchorBytes(a.mem);
                return false;
            });
        }
        if (chunk % stride == 0) {
            anchors->push_back(Checkpoint::capture(core));
            held += bytes;
        }
    }
    core.setBbv(nullptr);
    bbv.finish();
    if (covered_out)
        *covered_out = core.instrCount();
    if (completed_out)
        *completed_out = core.halted();
    return bbv.takeIntervals();
}

// ---- projection + clustering -------------------------------------------

namespace
{

constexpr double kTwoPi = 6.283185307179586;

/** splitmix64 output folded to a uniform double in [0, 1) — the same
 *  mapping Rng::chance() uses, fixed here for cross-platform
 *  bit-stability of the clustering. */
inline double
u01(u64 x)
{
    return static_cast<double>(x >> 11)
        * (1.0 / 9007199254740992.0); // 2^-53
}

/** Projection row for one block key: dims values in [-1, 1) drawn
 *  from a splitmix64 stream keyed by (seed, block) only, so rows are
 *  independent of traversal order and of which intervals touch the
 *  block. */
std::vector<double>
projectionRow(u64 seed, u32 block, u64 dims)
{
    Rng rng(seed ^ (static_cast<u64>(block) + 1)
                       * 0x9e3779b97f4a7c15ull);
    std::vector<double> row(dims);
    for (u64 d = 0; d < dims; ++d)
        row[d] = 2.0 * u01(rng.next64()) - 1.0;
    return row;
}

double
dist2(const double *a, const double *b, size_t dims)
{
    double s = 0.0;
    for (size_t d = 0; d < dims; ++d) {
        const double diff = a[d] - b[d];
        s += diff * diff;
    }
    return s;
}

/** Centers measured together by dist2x4(). */
constexpr size_t kLanes = 4;

/**
 * Squared distances from @p a to kLanes centers stored interleaved in
 * @p ct (dims rows of kLanes coordinates).  Each lane sums in
 * dimension order exactly as dist2() does, so every result is
 * bit-identical to a dist2() call; the lanes are independent, so
 * their adds overlap instead of queueing on one add's latency.
 */
inline void
dist2x4(const double *a, const double *ct, size_t dims, double *out)
{
    double s[kLanes] = {};
    for (size_t d = 0; d < dims; ++d) {
        for (size_t j = 0; j < kLanes; ++j) {
            const double diff = a[d] - ct[d * kLanes + j];
            s[j] += diff * diff;
        }
    }
    std::copy_n(s, kLanes, out);
}

struct KmeansRun
{
    std::vector<u32> assign;      ///< point -> center
    std::vector<double> centers;  ///< k x dims, row-major
    std::vector<u64> sizes;       ///< points per center
    double distortion = 0.0;
};

/**
 * Deterministic k-means: splitmix64-driven k-means++ seeding, Lloyd
 * iterations with all ties broken by lowest index, empty clusters
 * re-seeded from the farthest point.  @p feats is n x dims row-major.
 */
KmeansRun
kmeansFit(const std::vector<double> &feats, size_t n, size_t dims,
          size_t k, u64 seed)
{
    KmeansRun run;
    run.assign.assign(n, 0);
    run.centers.assign(k * dims, 0.0);
    run.sizes.assign(k, 0);

    // Every k gets its own stream so adding a candidate k never
    // perturbs the others.
    Rng rng(seed ^ (static_cast<u64>(k) * 0xd1b54a32d192ed03ull));

    // k-means++ D^2 seeding.
    std::vector<double> d2(n, 0.0);
    const size_t first = static_cast<size_t>(rng.below(n));
    std::copy_n(&feats[first * dims], dims, &run.centers[0]);
    for (size_t i = 0; i < n; ++i)
        d2[i] = dist2(&feats[i * dims], &run.centers[0], dims);
    for (size_t c = 1; c < k; ++c) {
        double total = 0.0;
        for (size_t i = 0; i < n; ++i)
            total += d2[i];
        size_t pick = 0;
        if (total > 0.0) {
            const double r = u01(rng.next64()) * total;
            double cum = 0.0;
            pick = n - 1;
            for (size_t i = 0; i < n; ++i) {
                cum += d2[i];
                if (cum > r) {
                    pick = i;
                    break;
                }
            }
        } else {
            // All remaining mass is zero (duplicate points): seed from
            // the lowest index; the empty-cluster pass below and the
            // final non-empty filter keep the result well-defined.
            pick = static_cast<size_t>(c % n);
        }
        std::copy_n(&feats[pick * dims], dims, &run.centers[c * dims]);
        for (size_t i = 0; i < n; ++i) {
            const double d =
                dist2(&feats[i * dims], &run.centers[c * dims], dims);
            if (d < d2[i])
                d2[i] = d;
        }
    }

    // Lloyd iterations.  The assignment step reads the centers in
    // groups of kLanes, interleaved per dimension for dist2x4()
    // (lanes past k stay zero and are never compared): a single add
    // chain per center waits on add latency, and its speed swings by
    // up to half with where the linker places the loop.
    std::vector<double> sums(k * dims);
    const size_t groups = (k + kLanes - 1) / kLanes;
    std::vector<double> ct(groups * dims * kLanes, 0.0);
    double lane_d[kLanes];
    constexpr int kMaxIters = 64;
    for (int iter = 0; iter < kMaxIters; ++iter) {
        bool changed = iter == 0;
        run.distortion = 0.0;
        std::fill(run.sizes.begin(), run.sizes.end(), u64{0});
        for (size_t c = 0; c < k; ++c) {
            for (size_t d = 0; d < dims; ++d)
                ct[((c / kLanes) * dims + d) * kLanes + c % kLanes] =
                    run.centers[c * dims + d];
        }
        for (size_t i = 0; i < n; ++i) {
            size_t best = 0;
            double best_d = 0.0;
            for (size_t c = 0; c < k; ++c) {
                if (c % kLanes == 0) {
                    dist2x4(&feats[i * dims], &ct[c * dims], dims,
                            lane_d);
                }
                const double d = lane_d[c % kLanes];
                if (c == 0 || d < best_d) { // strict: ties keep lowest c
                    best_d = d;
                    best = c;
                }
            }
            if (run.assign[i] != best) {
                run.assign[i] = static_cast<u32>(best);
                changed = true;
            }
            ++run.sizes[best];
            run.distortion += best_d;
        }

        // Re-seed empty clusters from the farthest point (ties lowest
        // index) — but only while there is spread to steal; duplicate
        // point sets legitimately leave clusters empty.
        bool reseeded = false;
        for (size_t c = 0; c < k; ++c) {
            if (run.sizes[c] != 0)
                continue;
            size_t far = 0;
            double far_d = -1.0;
            for (size_t i = 0; i < n; ++i) {
                const double d = dist2(
                    &feats[i * dims],
                    &run.centers[run.assign[i] * dims], dims);
                if (d > far_d) { // strict: ties keep the lowest i
                    far_d = d;
                    far = i;
                }
            }
            if (far_d <= 0.0)
                break;
            std::copy_n(&feats[far * dims], dims,
                        &run.centers[c * dims]);
            reseeded = true;
        }
        if (reseeded)
            continue; // re-assign against the new centers
        if (!changed)
            break;

        std::fill(sums.begin(), sums.end(), 0.0);
        for (size_t i = 0; i < n; ++i) {
            const u32 c = run.assign[i];
            for (size_t d = 0; d < dims; ++d)
                sums[c * dims + d] += feats[i * dims + d];
        }
        for (size_t c = 0; c < k; ++c) {
            if (run.sizes[c] == 0)
                continue;
            for (size_t d = 0; d < dims; ++d)
                run.centers[c * dims + d] = sums[c * dims + d]
                    / static_cast<double>(run.sizes[c]);
        }
    }
    return run;
}

/** X-means-flavoured BIC of one fitted clustering (higher is better).
 *  Exact constants matter less than monotonic behaviour: the score
 *  must reward tighter clusters and charge k * (dims + 1) parameters. */
double
bicScore(const KmeansRun &run, size_t n, size_t dims, size_t k)
{
    const double r = static_cast<double>(n);
    // Spherical variance estimate; clamped so identical points (zero
    // distortion) stay finite and k selection still favours small k
    // through the parameter penalty.
    double sigma2 = n > k
        ? run.distortion / static_cast<double>(n - k)
        : 0.0;
    if (sigma2 < 1e-12)
        sigma2 = 1e-12;
    double ll = 0.0;
    size_t live = 0;
    for (size_t c = 0; c < k; ++c) {
        const u64 rc = run.sizes[c];
        if (rc == 0)
            continue;
        ++live;
        const double rcd = static_cast<double>(rc);
        ll += rcd * std::log(rcd) - rcd * std::log(r)
            - rcd * static_cast<double>(dims) / 2.0
                  * std::log(kTwoPi * sigma2)
            - (rcd - 1.0) / 2.0;
    }
    const double params =
        static_cast<double>(live) * (static_cast<double>(dims) + 1.0);
    return ll - params / 2.0 * std::log(r);
}

} // namespace

PhaseAnalysis
clusterPhases(const std::vector<IntervalBbv> &bbvs,
              const PhaseParams &params)
{
    DMT_ASSERT(params.interval > 0 && params.max_k > 0
                   && params.dims > 0,
               "phase params must be positive");
    PhaseAnalysis pa;
    pa.interval_len = params.interval;
    const size_t n = bbvs.size();
    if (n == 0)
        return pa;

    // Random-project each interval's sparse BBV to a dense feature
    // row, weighting blocks by their share of the interval so the
    // trailing partial interval compares by distribution, not volume.
    const size_t dims = static_cast<size_t>(params.dims);
    std::vector<double> feats(n * dims, 0.0);
    std::unordered_map<u32, std::vector<double>> rows;
    for (size_t i = 0; i < n; ++i) {
        const IntervalBbv &iv = bbvs[i];
        if (iv.instrs == 0)
            continue;
        const double inv = 1.0 / static_cast<double>(iv.instrs);
        for (const auto &[block, count] : iv.counts) {
            auto it = rows.find(block);
            if (it == rows.end()) {
                it = rows.emplace(block, projectionRow(params.seed,
                                                      block, dims))
                         .first;
            }
            const double w = static_cast<double>(count) * inv;
            const std::vector<double> &row = it->second;
            for (size_t d = 0; d < dims; ++d)
                feats[i * dims + d] += w * row[d];
        }
    }

    // Fit every candidate k, then take the smallest k whose BIC
    // reaches 90% of the score range (SimPoint's rule): more clusters
    // must buy a real likelihood gain, not just spend parameters.
    const size_t kmax = std::min(static_cast<size_t>(params.max_k), n);
    std::vector<KmeansRun> runs;
    std::vector<double> scores;
    runs.reserve(kmax);
    for (size_t k = 1; k <= kmax; ++k) {
        runs.push_back(kmeansFit(feats, n, dims, k, params.seed));
        scores.push_back(bicScore(runs.back(), n, dims, k));
    }
    const double lo = *std::min_element(scores.begin(), scores.end());
    const double hi = *std::max_element(scores.begin(), scores.end());
    const double threshold = lo + 0.9 * (hi - lo);
    size_t chosen = kmax;
    for (size_t k = 1; k <= kmax; ++k) {
        if (scores[k - 1] >= threshold) {
            chosen = k;
            break;
        }
    }
    const KmeansRun &fit = runs[chosen - 1];

    // Representative per cluster: the member nearest its center (ties
    // lowest interval); weight = the cluster's instruction share.
    u64 total_instrs = 0;
    for (const IntervalBbv &iv : bbvs)
        total_instrs += iv.instrs;
    struct Cluster
    {
        size_t center;
        u64 rep;
        u64 members = 0;
        u64 instrs = 0;
        double best_d = 0.0;
        bool seen = false;
    };
    std::vector<Cluster> clusters(chosen);
    for (size_t i = 0; i < n; ++i) {
        Cluster &cl = clusters[fit.assign[i]];
        const double d = dist2(&feats[i * dims],
                               &fit.centers[fit.assign[i] * dims],
                               dims);
        if (!cl.seen || d < cl.best_d) { // strict: ties keep lowest i
            cl.seen = true;
            cl.best_d = d;
            cl.rep = i;
        }
        ++cl.members;
        cl.instrs += bbvs[i].instrs;
    }

    // Dense ids in representative order; remap the assignment.
    std::vector<size_t> order;
    for (size_t c = 0; c < chosen; ++c)
        if (clusters[c].seen)
            order.push_back(c);
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) {
                  return clusters[a].rep < clusters[b].rep;
              });
    std::vector<u32> remap(chosen, 0);
    for (size_t new_id = 0; new_id < order.size(); ++new_id) {
        const Cluster &cl = clusters[order[new_id]];
        remap[order[new_id]] = static_cast<u32>(new_id);
        PhaseInfo info;
        info.id = static_cast<u32>(new_id);
        info.rep = cl.rep;
        info.members = cl.members;
        info.weight = total_instrs > 0
            ? static_cast<double>(cl.instrs)
                  / static_cast<double>(total_instrs)
            : 0.0;
        pa.phases.push_back(info);
    }
    pa.k = static_cast<u32>(order.size());
    pa.assignment.resize(n);
    for (size_t i = 0; i < n; ++i)
        pa.assignment[i] = remap[fit.assign[i]];
    return pa;
}

} // namespace dmt
