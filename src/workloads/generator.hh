/**
 * @file
 * Seeded workload-family generator: parameterized program families
 * with tunable call depth, loop trip counts, branch entropy and
 * memory-aliasing density, plus structural shapes the fixed suite
 * lacks (producer-consumer queue, pointer chasing, event-loop
 * dispatch).  A family + seed + knob set is addressed by a *workload
 * spec string*
 *
 *     gen:<family>:<seed>[:knob=value...]
 *
 * accepted everywhere a suite workload name is (buildWorkload, the
 * figure-bench sweep grids, run_workload), so every layer of the
 * stack gains hundreds of scenarios per family for free.
 *
 * Determinism contract: a spec string fully determines the emitted
 * Program image, bit for bit, on every platform (all randomness comes
 * from the repo's splitmix64 Rng, seeded only from the spec).  Two
 * spellings of the same parameters — knobs in any order, defaulted or
 * explicit — normalize to one canonicalSpec(), and the canonical spec
 * re-parses to identical parameters, so caches and golden files keyed
 * by workload name never split or collide wrongly.  Every generated
 * program is self-checking (OUTs checksums) and provably terminating
 * (fixed trip counts, bounded recursion), which is what turns each
 * seed into a differential-conformance test case (see
 * exp/conformance.hh).
 */

#ifndef DMT_WORKLOADS_GENERATOR_HH
#define DMT_WORKLOADS_GENERATOR_HH

#include <string>
#include <string_view>
#include <vector>

#include "casm/program.hh"

namespace dmt
{

/** One generated-workload family. */
struct GenFamilyInfo
{
    const char *name;      ///< spec-string family component
    const char *character; ///< dominant control-flow behaviour
    const char *knobs;     ///< the knobs this family responds to
};

/** All families, in reporting order. */
const std::vector<GenFamilyInfo> &genFamilies();

/** Parsed gen: spec — a family, a seed, and the knob set. */
struct GenParams
{
    std::string family;
    u64 seed = 1;

    // Knobs.  All integral so canonical rendering is exact; entropy
    // and alias are percentages (0..100).  Ranges are enforced by
    // parseGenSpec(); out-of-range values are rejected, never clamped.
    int depth = 4;     ///< call/recursion depth            [1, 10]
    int trips = 8;     ///< loop trip count                 [1, 100000]
    int entropy = 50;  ///< branch-entropy percentage       [0, 100]
    int alias = 25;    ///< memory-aliasing density percent [0, 100]
    int units = 16;    ///< structural element count        [1, 65536]

    /**
     * The one true spelling of this parameter set:
     * "gen:<family>:<seed>:alias=A:depth=D:entropy=E:trips=T:units=U"
     * with every knob explicit and keys in alphabetical order.
     * Round-trips through parseGenSpec() to equal parameters.
     */
    std::string canonicalSpec() const;
};

/** True when @p name is addressed to the generator ("gen:" prefix). */
bool isGenSpec(std::string_view name);

/**
 * Strict spec parse: unknown family names, malformed or duplicate
 * knobs, out-of-range values, empty fields and trailing garbage all
 * return false with a structured message in @p err — never a fatal().
 * Local paths wrap it with fatal() (buildWorkload).
 */
bool parseGenSpec(std::string_view spec, GenParams *out,
                  std::string *err);

/** Build the program for parsed parameters. */
Program buildGenWorkload(const GenParams &params);

/** Parse + build; fatal() on a malformed spec (local CLI paths). */
Program buildGenWorkload(const std::string &spec);

/**
 * Canonical name for any workload addressable by buildWorkload(): gen
 * specs normalize to GenParams::canonicalSpec(); suite names pass
 * through unchanged.  fatal() on a malformed gen spec.  Runner entry
 * points canonicalize before keying caches or stamping RunResults so
 * every spelling of one workload shares one identity.
 */
std::string canonicalWorkloadName(const std::string &name);

} // namespace dmt

#endif // DMT_WORKLOADS_GENERATOR_HH
