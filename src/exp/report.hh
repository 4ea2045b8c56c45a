/**
 * @file
 * Plain-text table rendering for the figure benches: fixed-width
 * columns, a title block quoting the paper's series, and a footer for
 * averages.
 */

#ifndef DMT_EXP_REPORT_HH
#define DMT_EXP_REPORT_HH

#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace dmt
{

class JsonWriter;
struct RunResult;

// ---- canonical hashing -------------------------------------------------
//
// Golden tooling needs a compact, stable identity for "this exact
// result".  The contract: hash the *canonical JSON* form (jsonOn
// through JsonWriter), which already excludes host-timing fields
// (wall_s, minstr_per_s, func_wall_s), with FNV-1a — the same digest
// family checkpoints use for program images.  Equal hashes ⇔
// byte-identical canonical documents (modulo 64-bit collisions).

/** FNV-1a offset basis (matches ArchState::kOutHashInit). */
constexpr u64 kFnvBasis = 0xcbf29ce484222325ull;

/** FNV-1a over @p bytes, chained from @p seed. */
u64 fnv1aHash(std::string_view bytes, u64 seed = kFnvBasis);

/** Canonical digest of a RunResult (over jsonString()). */
u64 canonicalHash(const RunResult &r);

/** Simple fixed-width table. */
class Report
{
  public:
    /**
     * @param title figure name, e.g. "Figure 4: speedup vs threads"
     * @param paper_note what the paper reports, for side-by-side reading
     */
    Report(std::string title, std::string paper_note);

    /** Define columns (first column is the row label). */
    void columns(const std::vector<std::string> &names);

    /** Add a data row. */
    void row(const std::string &label, const std::vector<double> &values);

    /** Append an "average" row over all rows added so far. */
    void averageRow(const std::string &label = "average");

    /** Render everything. */
    std::string render() const;

    /** Render and print to stdout. */
    void print() const;

    /** Serialize the table (title, columns, rows) as JSON. */
    void jsonOn(JsonWriter &w) const;

  private:
    std::string title;
    std::string paper_note;
    std::vector<std::string> cols;
    struct Row
    {
        std::string label;
        std::vector<double> values;
        bool is_average = false;
    };
    std::vector<Row> rows;
};

} // namespace dmt

#endif // DMT_EXP_REPORT_HH
